package acache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func packPath(dir string) string { return filepath.Join(dir, PackFile) }

func readPack(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(packPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writePack(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(packPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantLoad(t *testing.T, s *Store, key, want string) {
	t.Helper()
	if got, ok := s.Load(key); !ok || string(got) != want {
		t.Fatalf("Load(%s) = %q, %v; want %q, true", key, got, ok, want)
	}
}

func wantMiss(t *testing.T, s *Store, key string) {
	t.Helper()
	if got, ok := s.Load(key); ok {
		t.Fatalf("Load(%s) = %q, want a miss", key, got)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("e0001", []byte("hello capsule world"))
	wantLoad(t, s, "e0001", "hello capsule world")
	wantMiss(t, s, "missing")
	// Overwrite under the same key: the last frame wins, in memory and
	// after a re-Open.
	s.Save("e0001", []byte("v2"))
	wantLoad(t, s, "e0001", "v2")
	// Empty payloads round-trip too.
	s.Save("empty", nil)
	wantLoad(t, s, "empty", "")
	s.Close()

	r := open(t, dir)
	wantLoad(t, r, "e0001", "v2")
	wantLoad(t, r, "empty", "")
	wantMiss(t, r, "missing")
}

// TestOpenRejectsByteCap: the store has no byte cap, so a caller asking
// for one is told rather than silently ignored.
func TestOpenRejectsByteCap(t *testing.T) {
	if _, err := Open(t.TempDir(), 1<<20); err == nil {
		t.Fatal("Open with a byte cap succeeded")
	}
}

// TestCorruptionIsAMiss bit-flips every byte position of a stored frame in
// turn and checks that no corruption is ever served as a hit, and that
// Open truncates the corrupt frame so the slot heals.
func TestCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("k", []byte("the payload under test"))
	s.Close()
	pristine := readPack(t, dir)
	for i := range pristine {
		bad := append([]byte(nil), pristine...)
		bad[i] ^= 0x40
		writePack(t, dir, bad)
		r := open(t, dir)
		wantMiss(t, r, "k")
		r.Close()
		if n := len(readPack(t, dir)); n != 0 {
			t.Fatalf("corrupt frame (flip at %d) not truncated: pack holds %d bytes", i, n)
		}
	}
}

func TestTruncationIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("k", []byte("a payload long enough to truncate meaningfully"))
	s.Close()
	pristine := readPack(t, dir)
	for _, n := range []int{0, 1, headerLen - 1, headerLen, len(pristine) - 1} {
		writePack(t, dir, pristine[:n])
		r := open(t, dir)
		wantMiss(t, r, "k")
		r.Close()
	}
	// Trailing garbage is a torn tail: the intact frame before it hits
	// and the garbage is truncated.
	writePack(t, dir, append(append([]byte(nil), pristine...), 'x'))
	r := open(t, dir)
	wantLoad(t, r, "k", "a payload long enough to truncate meaningfully")
	if got := readPack(t, dir); !bytes.Equal(got, pristine) {
		t.Fatalf("trailing garbage not truncated: pack holds %d bytes, want %d", len(got), len(pristine))
	}
}

func TestVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("k", []byte("payload"))
	s.Close()
	data := readPack(t, dir)
	data[4]++ // bump the version field
	writePack(t, dir, data)
	wantMiss(t, open(t, dir), "k")
}

// savePack writes n frames k0..k(n-1) with payloads p0..p(n-1) into a
// fresh store in dir and returns the end offset of each frame.
func savePack(t *testing.T, dir string, n int) []int64 {
	t.Helper()
	s := open(t, dir)
	for i := 0; i < n; i++ {
		s.Save(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("payload number %d", i)))
	}
	s.Close()
	ends, err := FrameEnds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != n {
		t.Fatalf("pack holds %d intact frames, want %d", len(ends), n)
	}
	return ends
}

// TestPackTruncatedLastFrame cuts the pack at every byte offset of its
// last frame: Open keeps every earlier frame and truncates the torn tail,
// and a later Save appends a frame the next Open reads back.
func TestPackTruncatedLastFrame(t *testing.T) {
	dir := t.TempDir()
	ends := savePack(t, dir, 3)
	pristine := readPack(t, dir)
	for cut := ends[1]; cut < ends[2]; cut++ {
		writePack(t, dir, pristine[:cut])
		s := open(t, dir)
		wantLoad(t, s, "k0", "payload number 0")
		wantLoad(t, s, "k1", "payload number 1")
		wantMiss(t, s, "k2")
		if n := int64(len(readPack(t, dir))); n != ends[1] {
			t.Fatalf("cut at %d: pack holds %d bytes after Open, want %d", cut, n, ends[1])
		}
		s.Save("k2", []byte("payload number 2"))
		s.Close()
		r := open(t, dir)
		for i := 0; i < 3; i++ {
			wantLoad(t, r, fmt.Sprintf("k%d", i), fmt.Sprintf("payload number %d", i))
		}
		r.Close()
		if !bytes.Equal(readPack(t, dir), pristine) {
			t.Fatalf("cut at %d: re-saved pack differs from the original", cut)
		}
	}
}

// TestPackCorruptMiddleFrame: a damaged frame ends the valid prefix, so
// Open keeps the frames before it and drops it and everything after.
func TestPackCorruptMiddleFrame(t *testing.T) {
	dir := t.TempDir()
	ends := savePack(t, dir, 5)
	data := readPack(t, dir)
	data[ends[1]+headerLen+3] ^= 0x01 // a key byte of frame 2
	writePack(t, dir, data)
	s := open(t, dir)
	wantLoad(t, s, "k0", "payload number 0")
	wantLoad(t, s, "k1", "payload number 1")
	for i := 2; i < 5; i++ {
		wantMiss(t, s, fmt.Sprintf("k%d", i))
	}
	if n := int64(len(readPack(t, dir))); n != ends[1] {
		t.Fatalf("pack holds %d bytes after Open, want %d", n, ends[1])
	}
}

// TestPackConcurrentStores: two stores on one directory append from
// several goroutines each, some keys in common; a third Open sees every
// key with a payload one of them saved, and no torn frame.
func TestPackConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	keyOf := func(w, i int) string {
		if i%4 == 0 {
			return fmt.Sprintf("shared-%d", i)
		}
		return fmt.Sprintf("w%d-%d", w, i)
	}
	payload := func(key string, w int) []byte {
		return bytes.Repeat([]byte(key+"/"+fmt.Sprint(w)+";"), 40)
	}
	var wg sync.WaitGroup
	for w, s := range []*Store{a, b, a, b} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := keyOf(w, i)
				s.Save(key, payload(key, w))
				s.Load(key)
			}
		}(w, s)
	}
	wg.Wait()
	if a.WritesDisabled() || b.WritesDisabled() {
		t.Fatal("a concurrent append failed")
	}
	ends, err := FrameEnds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 4*200 || ends[len(ends)-1] != int64(len(readPack(t, dir))) {
		t.Fatalf("pack holds %d intact frames ending at %d of %d bytes, want 800 covering it all",
			len(ends), ends[len(ends)-1], len(readPack(t, dir)))
	}
	c := open(t, dir)
	for w := 0; w < 4; w++ {
		for i := 0; i < 200; i++ {
			key := keyOf(w, i)
			got, ok := c.Load(key)
			if !ok {
				t.Fatalf("third store misses %s", key)
			}
			saved := false
			for writer := 0; writer < 4; writer++ {
				saved = saved || bytes.Equal(got, payload(key, writer))
			}
			if !saved {
				t.Fatalf("third store serves %s a payload no writer saved: %q", key, got)
			}
		}
	}
}

// TestStoreConcurrentRuns drives Load, Save and EndRun (compactions
// included) from several goroutines of one store; every hit returns the
// payload saved under its key.
func TestStoreConcurrentRuns(t *testing.T) {
	s := open(t, t.TempDir())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (i*7+w)%50)
				if got, ok := s.Load(key); ok && string(got) != "payload of "+key {
					t.Errorf("Load(%s) = %q", key, got)
					return
				} else if !ok {
					s.Save(key, []byte("payload of "+key))
				}
				if w == 0 && i%10 == 0 {
					s.EndRun()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.WritesDisabled() {
		t.Fatal("a write or compaction failed")
	}
}

// TestEndRunBoundsPack runs 200 serve-edit-shaped runs: each loads every
// entry's key and saves two entries under new keys, as a two-function
// edit does. After every run the pack is at most twice the live bytes
// plus one frame, the index holds at most the last two runs' keys, and a
// re-Open serves every live entry.
func TestEndRunBoundsPack(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	const entries = 100
	version := make([]int, entries)
	key := func(e int) string { return fmt.Sprintf("e%03d-v%d", e, version[e]) }
	payload := func(e int) []byte {
		return bytes.Repeat([]byte{byte(e), byte(version[e])}, 300+e*3)
	}
	maxFrame := int64(headerLen + len(key(entries-1)) + 10 + len(payload(entries-1)))
	compactions := 0
	var lastPack int64
	for run := 0; run < 200; run++ {
		if run > 0 {
			for _, e := range []int{(run * 17) % entries, (run*31 + 5) % entries} {
				version[e]++
			}
		}
		for e := 0; e < entries; e++ {
			if got, ok := s.Load(key(e)); !ok {
				s.Save(key(e), payload(e))
			} else if !bytes.Equal(got, payload(e)) {
				t.Fatalf("run %d: %s replays a wrong payload", run, key(e))
			}
		}
		if n, _, _ := s.Size(); n > entries+2 {
			t.Fatalf("run %d: index holds %d keys mid-run, want at most %d", run, n, entries+2)
		}
		s.EndRun()
		n, live, pack := s.Size()
		if n != entries {
			t.Fatalf("run %d: index holds %d keys after EndRun, want %d", run, n, entries)
		}
		if pack > 2*live+maxFrame {
			t.Fatalf("run %d: pack %d bytes for %d live", run, pack, live)
		}
		if disk := int64(len(readPack(t, dir))); disk != pack {
			t.Fatalf("run %d: pack file holds %d bytes, store counts %d", run, disk, pack)
		}
		if pack < lastPack {
			compactions++
		}
		lastPack = pack
	}
	if compactions == 0 {
		t.Fatal("200 runs never compacted the pack")
	}
	if s.WritesDisabled() {
		t.Fatal("a compaction failed")
	}
	s.Close()
	r := open(t, dir)
	for e := 0; e < entries; e++ {
		if got, ok := r.Load(key(e)); !ok || !bytes.Equal(got, payload(e)) {
			t.Fatalf("re-Open: Load(%s) = %v", key(e), ok)
		}
	}
}

// TestStrayTempRemoved: a compaction temp left by a crashed process is
// removed at Open, and the pack beside it is read as usual.
func TestStrayTempRemoved(t *testing.T) {
	dir := t.TempDir()
	savePack(t, dir, 2)
	stray := filepath.Join(dir, tmpPrefix+"pack-123")
	if err := os.WriteFile(stray, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp survived Open: %v", err)
	}
	wantLoad(t, s, "k1", "payload number 1")
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

// TestOpenUnwritableDirFails covers a directory that exists but rejects
// writes: the pack cannot be created. Permission bits don't constrain
// root, so the check is skipped there.
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
// keep hitting. The failure is injected by swapping the pack for a closed
// file, which no user can write.
func TestWriteFailureDisablesWritesOnce(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	var warnings strings.Builder
	s.WarnLog = &warnings
	s.Save("good", []byte("before the failure"))
	if s.WritesDisabled() {
		t.Fatal("writes disabled before any failure")
	}

	closed, err := os.Open(packPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	realPack := s.pack
	s.pack = closed
	s.Save("doomed", []byte("x"))
	if !s.WritesDisabled() {
		t.Fatal("failed Save did not disable writes")
	}
	s.Save("also-doomed", []byte("y"))
	s.pack = realPack
	s.Save("post-restore", []byte("z")) // still off: the run is poisoned

	if got := strings.Count(warnings.String(), "disabling cache writes"); got != 1 {
		t.Fatalf("warned %d times, want exactly once:\n%s", got, warnings.String())
	}
	if _, ok := s.Load("post-restore"); ok {
		t.Fatal("Save went through after writes were disabled")
	}
	if ends, err := FrameEnds(dir); err != nil || len(ends) != 1 {
		t.Fatalf("pack holds %d frames (%v), want only the one saved before the failure", len(ends), err)
	}
	// Reads are unaffected: the store degrades to read-only, not to dead.
	wantLoad(t, s, "good", "before the failure")
}

// TestFlushSyncsDirectory: Flush fsyncs the pack and the directory on a
// live store, and reports an error once either is gone — a closed pack, or
// a removed directory — so the drain path logs it rather than masking a
// torn-down cache.
func TestFlushSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("k", []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush on a live store: %v", err)
	}
	wantLoad(t, s, "k", "v")
	if ends, err := FrameEnds(dir); err != nil || len(ends) != 1 {
		t.Fatalf("flushed pack holds %d frames (%v), want 1", len(ends), err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush of a removed directory reported success")
	}

	live := open(t, t.TempDir())
	live.Close()
	if err := live.Flush(); err == nil {
		t.Fatal("Flush of a closed pack reported success")
	}
}

// FuzzOpenPack writes fuzzer bytes as a pack and opens it. Open must not
// fail or panic; the index must hold exactly the last payload of each key
// among the intact frames at the start of the bytes, as an independent
// reader finds them by re-encoding; the pack must be truncated to those
// frames; and a Save then re-Open must round-trip.
func FuzzOpenPack(f *testing.F) {
	two := append(encodeFrame("e1", []byte("first payload")), encodeFrame("e2", []byte("second"))...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(append([]byte(nil), two...), "trailing garbage"...))
	f.Add(append(encodeFrame("e1", []byte("old")), encodeFrame("e1", []byte("new"))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := map[string][]byte{}
		valid := 0
		for valid+headerLen <= len(data) {
			keyLen := int(binary.LittleEndian.Uint32(data[valid+8:]))
			end := valid + headerLen + keyLen + int(binary.LittleEndian.Uint32(data[valid+12:]))
			if end > len(data) {
				break
			}
			key := string(data[valid+headerLen : valid+headerLen+keyLen])
			payload := data[valid+headerLen+keyLen : end]
			if !bytes.Equal(encodeFrame(key, payload), data[valid:end]) {
				break
			}
			want[key] = payload
			valid = end
		}

		dir := t.TempDir()
		writePack(t, dir, data)
		s := open(t, dir)
		if n, _, pack := s.Size(); n != len(want) || pack != int64(valid) {
			t.Fatalf("Open indexed %d keys over %d bytes, want %d over %d", n, pack, len(want), valid)
		}
		for key, payload := range want {
			if got, ok := s.Load(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("Load(%q) = %q, %v; want %q", key, got, ok, payload)
			}
		}
		if n := len(readPack(t, dir)); n != valid {
			t.Fatalf("pack holds %d bytes after Open, want the %d-byte intact prefix", n, valid)
		}
		s.Save("fuzz-key", data)
		s.Close()
		r := open(t, dir)
		if got, ok := r.Load("fuzz-key"); !ok || !bytes.Equal(got, data) {
			t.Fatalf("Save then re-Open: Load = %v", ok)
		}
		for key, payload := range want {
			if key == "fuzz-key" {
				continue
			}
			if got, ok := r.Load(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("re-Open: Load(%q) = %q, %v; want %q", key, got, ok, payload)
			}
		}
	})
}

// TestFirstEndRunDropsPackFrames: the frames Open reads belong to earlier
// runs, so the first EndRun after Open drops every one its run did not
// touch, as a one-run CLI process needs.
func TestFirstEndRunDropsPackFrames(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("old", []byte("stale"))
	s.Save("kept", []byte("live"))
	s.Close()

	s = open(t, dir)
	if _, ok := s.Load("kept"); !ok {
		t.Fatal("reopened store lost a frame")
	}
	s.EndRun()
	if _, ok := s.Load("old"); ok {
		t.Error("the first EndRun kept a frame its run never touched")
	}
	if _, ok := s.Load("kept"); !ok {
		t.Error("the first EndRun dropped a frame its run loaded")
	}
}
