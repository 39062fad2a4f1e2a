package pata

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestUnusableCacheDirDegradesToUncached pins the graceful-degradation
// contract at the API level: an unusable CacheDir warns and runs uncached
// instead of failing the analysis.
func TestUnusableCacheDirDegradesToUncached(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{CacheDir: filepath.Join(blocker, "cache")}
	res, err := AnalyzeSources("demo", map[string]string{"demo.c": demoSrc}, cfg)
	if err != nil {
		t.Fatalf("unusable cache dir failed the run: %v", err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs = %d, want 1", len(res.Bugs))
	}
	if res.Stats.CacheEntriesHit != 0 && res.Stats.CacheEntriesMiss != 0 {
		t.Errorf("run was not uncached: %+v", res.Stats)
	}
}

// TestEntryTimeoutHealthyRunUnchanged: a generous per-entry deadline routes
// through the isolation machinery but must not change findings on healthy
// code.
func TestEntryTimeoutHealthyRunUnchanged(t *testing.T) {
	src := map[string]string{"demo.c": demoSrc}
	plain, err := AnalyzeSources("demo", src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := AnalyzeSources("demo", src, Config{EntryTimeout: time.Minute, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != guarded.String() {
		t.Errorf("EntryTimeout changed a healthy run:\n--- plain\n%s--- guarded\n%s", plain, guarded)
	}
	if len(guarded.Incomplete) != 0 {
		t.Errorf("healthy run reported incomplete entries: %+v", guarded.Incomplete)
	}
}

// TestCancelledContextYieldsPartialResult: a pre-cancelled context returns a
// well-formed Result whose entries are all reported as cancelled.
func TestCancelledContextYieldsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnalyzeSourcesCtx(ctx, "demo", map[string]string{"demo.c": demoSrc}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) != 1 || res.Incomplete[0].Reason != "cancelled" {
		t.Fatalf("incomplete = %+v, want one cancelled entry", res.Incomplete)
	}
	if res.Stats.EntryFunctions != 1 {
		t.Errorf("EntryFunctions = %d, want 1", res.Stats.EntryFunctions)
	}
	out := res.String()
	if !strings.Contains(out, "incomplete analysis (1 entries):") ||
		!strings.Contains(out, "probe(): cancelled") {
		t.Errorf("report missing incomplete section:\n%s", out)
	}
}

// panicSaveCache is an EntryCache whose Save panics.
type panicSaveCache struct{ core.EntryCache }

func (panicSaveCache) Save(string, []byte) { panic("save failed") }

// TestCachedAnalyzePanicReachesCaller: a panic in the cache's Save, which
// runs on the worker pool after Stage 2, is re-raised on the goroutine that
// called Analyze, where the caller's recover contains it, instead of
// killing the process from a pool goroutine.
func TestCachedAnalyzePanicReachesCaller(t *testing.T) {
	prog, err := Load("demo", map[string]string{"demo.c": demoSrc})
	if err != nil {
		t.Fatal(err)
	}
	ec := engineConfig(t, Config{})
	ec.Cache = panicSaveCache{openStore(t)}
	var got any
	func() {
		defer func() { got = recover() }()
		prog.Analyze(context.Background(), ec, 2, false)
	}()
	if got != "save failed" {
		t.Errorf("caller recovered %v, want the Save panic", got)
	}
}
