package pata

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/acache"
	"repro/internal/oscorpus"
)

// cachedRun analyzes sources as one CLI run with dir as its cache
// directory.
func cachedRun(t *testing.T, sources map[string]string, dir string) *Result {
	t.Helper()
	res, err := AnalyzeSources("cli", sources, Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// packBytes returns the size of dir's capsule pack.
func packBytes(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, acache.PackFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCLICachePackStaysBounded reuses one cache directory over an edit
// sequence that alternates a program with a new edit of it, run after run,
// and requires the pack to hold at most twice the bytes of the last run's
// own capsules after every run. A cold run into an empty directory writes
// exactly those capsules, so its pack is the live size.
func TestCLICachePackStaysBounded(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	dir := t.TempDir()
	for i := range 16 {
		src := c.Sources
		if i%2 == 1 {
			src, _ = oscorpus.Mutate(c.Sources, 8, int64(i))
		}
		cachedRun(t, src, dir)
		cold := t.TempDir()
		cachedRun(t, src, cold)
		live, pack := packBytes(t, cold), packBytes(t, dir)
		if pack > 2*live {
			t.Errorf("run %d: the pack holds %d bytes, more than twice the run's %d live bytes", i, pack, live)
		}
	}
}

// TestCLICacheWarmRerunHits: ending a run drops only the capsules that run
// did not touch, so a re-run of the same program hits every entry.
func TestCLICacheWarmRerunHits(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	dir := t.TempDir()
	edited, _ := oscorpus.Mutate(c.Sources, 4, 1)
	for _, src := range []map[string]string{c.Sources, edited, c.Sources} {
		cachedRun(t, src, dir)
	}
	warm := cachedRun(t, c.Sources, dir)
	if warm.Stats.CacheEntriesMiss != 0 || warm.Stats.CacheEntriesHit != int64(warm.Stats.EntryFunctions) {
		t.Errorf("warm re-run: %d entries hit, %d missed, of %d",
			warm.Stats.CacheEntriesHit, warm.Stats.CacheEntriesMiss, warm.Stats.EntryFunctions)
	}
}
