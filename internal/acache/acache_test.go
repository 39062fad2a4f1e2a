package acache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello capsule world")
	s.Save("e0001", payload)
	got, ok := s.Load("e0001")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Load = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Load("missing"); ok {
		t.Fatal("Load(missing) reported a hit")
	}
	// Overwrite under the same key.
	s.Save("e0001", []byte("v2"))
	if got, ok := s.Load("e0001"); !ok || string(got) != "v2" {
		t.Fatalf("after overwrite: Load = %q, %v", got, ok)
	}
	// Empty payloads round-trip too.
	s.Save("empty", nil)
	if got, ok := s.Load("empty"); !ok || len(got) != 0 {
		t.Fatalf("empty payload: Load = %q, %v", got, ok)
	}
}

// TestCorruptionIsAMiss bit-flips every byte position of a stored frame in
// turn and checks that no corruption is ever served as a hit, and that each
// corrupt file is removed so the slot heals.
func TestCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the payload under test")
	s.Save("k", payload)
	p := filepath.Join(dir, "k"+ext)
	pristine, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pristine {
		bad := append([]byte(nil), pristine...)
		bad[i] ^= 0x40
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Load("k"); ok {
			t.Fatalf("bit flip at offset %d served as a hit (%q)", i, got)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corrupt file (flip at %d) not removed", i)
		}
	}
}

func TestTruncationIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("k", []byte("a payload long enough to truncate meaningfully"))
	p := filepath.Join(dir, "k"+ext)
	pristine, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, headerLen - 1, headerLen, len(pristine) - 1} {
		if err := os.WriteFile(p, pristine[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load("k"); ok {
			t.Fatalf("truncation to %d bytes served as a hit", n)
		}
	}
	// Trailing garbage is also a length mismatch.
	if err := os.WriteFile(p, append(append([]byte(nil), pristine...), 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("k"); ok {
		t.Fatal("trailing garbage served as a hit")
	}
}

func TestVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("k", []byte("payload"))
	p := filepath.Join(dir, "k"+ext)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[4]++ // bump the version field
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("k"); ok {
		t.Fatal("version-mismatched file served as a hit")
	}
}

func TestAtomicSaveLeavesNoTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Save("k", bytes.Repeat([]byte{byte(i)}, 100))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly the capsule file, got %d entries", len(entries))
	}
}

// TestLRUEviction pins the byte cap: oldest-mtime capsules go first, the
// just-written one survives, and Load refreshes the clock. Mtimes are set
// explicitly so filesystem timestamp granularity can't flake the order.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{1}, 100)
	frameSize := int64(headerLen + len(payload))
	s, err := Open(dir, 3*frameSize)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"a", "b", "c"} {
		s.Save(k, payload)
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+ext), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" (oldest by write order) so "b" becomes the LRU victim.
	if _, ok := s.Load("a"); !ok {
		t.Fatal("Load(a) missed before eviction")
	}
	s.Save("d", payload) // over cap: evicts exactly one, the LRU
	for _, want := range []struct {
		key  string
		live bool
	}{{"a", true}, {"b", false}, {"c", true}, {"d", true}} {
		_, ok := s.Load(want.key)
		if ok != want.live {
			t.Errorf("after eviction: Load(%s) = %v, want %v", want.key, ok, want.live)
		}
	}
}

func TestUnlimitedNeverEvicts(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Save(string(rune('a'+i%26))+string(rune('0'+i/26)), bytes.Repeat([]byte{2}, 1000))
	}
	misses := 0
	for i := 0; i < 50; i++ {
		if _, ok := s.Load(string(rune('a'+i%26)) + string(rune('0'+i/26))); !ok {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d entries evicted with no byte cap", misses)
	}
}

// TestOpenUnusableDirFails pins the graceful-degradation contract: Open must
// report an unusable CacheDir so callers can fall back to an uncached run,
// rather than handing out a Store whose Saves silently vanish. A regular
// file as a parent path component fails MkdirAll for any user (including
// root, for whom permission bits alone don't block writes).
func TestOpenUnusableDirFails(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(blocker, "cache"), 0); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

// TestOpenUnwritableDirFails covers the probe for a directory that exists
// but rejects writes. Permission bits don't constrain root, so the check is
// skipped there.
func TestOpenUnwritableDirFails(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission bits don't block root")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("Open of a read-only directory succeeded")
	}
}

// TestWriteFailureDisablesWritesOnce: the first failed capsule write warns
// exactly once on WarnLog, flips the store to read-only for the run, and
// later Saves are silent no-ops — while Loads of already-stored capsules
// keep hitting. The failure is injected by swapping the store's directory
// for a regular file (CreateTemp then fails for any user, including root,
// whom permission bits would not stop).
func TestWriteFailureDisablesWritesOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var warnings strings.Builder
	s.WarnLog = &warnings
	s.Save("good", []byte("before the failure"))
	if s.WritesDisabled() {
		t.Fatal("writes disabled before any failure")
	}

	realDir := s.dir
	s.dir = filepath.Join(dir, "good"+ext) // a regular file: CreateTemp fails
	s.Save("doomed", []byte("x"))
	if !s.WritesDisabled() {
		t.Fatal("failed Save did not disable writes")
	}
	s.Save("also-doomed", []byte("y"))
	s.dir = realDir
	s.Save("post-restore", []byte("z")) // still off: the run is poisoned

	if got := strings.Count(warnings.String(), "disabling cache writes"); got != 1 {
		t.Fatalf("warned %d times, want exactly once:\n%s", got, warnings.String())
	}
	if _, ok := s.Load("post-restore"); ok {
		t.Fatal("Save went through after writes were disabled")
	}
	// Reads are unaffected: the store degrades to read-only, not to dead.
	if got, ok := s.Load("good"); !ok || string(got) != "before the failure" {
		t.Fatalf("Load after write failure = %q, %v", got, ok)
	}
}

// TestFlushSyncsDirectory: Flush succeeds on a live store (fsyncing the
// directory so renamed capsules survive an OS crash) and reports an error
// once the directory is gone — the drain path logs it rather than masking a
// torn-down cache.
func TestFlushSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("k", []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush on a live store: %v", err)
	}
	if got, ok := s.Load("k"); !ok || string(got) != "v" {
		t.Fatalf("Load after Flush = %q, %v", got, ok)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush of a removed directory reported success")
	}
}
