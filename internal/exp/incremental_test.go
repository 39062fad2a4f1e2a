package exp

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/acache"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/report"
)

// incRun lowers sources and analyzes them through the parallel scheduler,
// with or without a cache, returning the result, the lowered module (for
// call-graph queries), and the rendered bug report.
func incRun(name string, sources map[string]string, cache core.EntryCache) (*core.Result, *cir.Module, string, error) {
	mod, err := minicc.LowerAll(name, sources)
	if err != nil {
		return nil, nil, "", err
	}
	cfg := PATAConfig()
	cfg.Cache = cache
	res := core.RunParallelCtx(baseCtx, mod, cfg, 4)
	var sb strings.Builder
	report.WriteBugs(&sb, res.Bugs)
	return res, mod, sb.String(), nil
}

// expectedMisses counts the entry functions whose statically reachable set
// includes at least one mutated function — the invalidation frontier.
func expectedMisses(mod *cir.Module, mutated []string) int {
	cg := callgraph.Build(mod)
	n := 0
	for _, fn := range cg.EntryFunctions() {
		reach := cg.ReachableFrom(fn.Name)
		for _, m := range mutated {
			if reach[m] {
				n++
				break
			}
		}
	}
	return n
}

// skippedPct is the share of the run's accounted Stage-1 steps that were
// replayed from the cache rather than executed live. Replayed entries
// contribute their recorded counters to StepsExecuted (so warm stats mirror
// a cold run's), which is why the denominator is the total, not a sum.
func skippedPct(skipped, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(skipped) / float64(total)
}

// TestIncrementalEquivalence pins the tentpole contract on a real corpus:
// a warm re-run over unchanged sources serves every entry from the cache,
// renders a byte-identical report, and skips ≥90% of Stage-1 steps; after
// mutating one function, exactly the entries reaching it re-analyze and the
// report still matches a cacheless run over the mutated sources.
func TestIncrementalEquivalence(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	_, _, refRep, err := incRun(c.Spec.Name, c.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _, coldRep, err := incRun(c.Spec.Name, c.Sources, store)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep != refRep {
		t.Fatal("cold cached report differs from the uncached reference")
	}
	if coldRes.Stats.CacheEntriesHit != 0 {
		t.Fatalf("cold run hit %d entries in a fresh cache", coldRes.Stats.CacheEntriesHit)
	}

	warmRes, _, warmRep, err := incRun(c.Spec.Name, c.Sources, store)
	if err != nil {
		t.Fatal(err)
	}
	if warmRep != refRep {
		t.Fatal("warm report is not byte-identical to the cold run")
	}
	if warmRes.Stats.CacheEntriesMiss != 0 ||
		warmRes.Stats.CacheEntriesHit != int64(warmRes.Stats.EntryFunctions) {
		t.Fatalf("warm run: hit=%d miss=%d of %d entries",
			warmRes.Stats.CacheEntriesHit, warmRes.Stats.CacheEntriesMiss, warmRes.Stats.EntryFunctions)
	}
	if pct := skippedPct(warmRes.Stats.CacheStepsSkipped, warmRes.Stats.StepsExecuted); pct < 90 {
		t.Fatalf("warm run skipped only %.1f%% of Stage-1 steps, want >= 90%%", pct)
	}
	if warmRes.Stats.Constraints != coldRes.Stats.Constraints {
		t.Errorf("replayed Stage-2 constraint count %d != cold %d",
			warmRes.Stats.Constraints, coldRes.Stats.Constraints)
	}

	mutated, names := oscorpus.Mutate(c.Sources, 1, 7)
	if len(names) != 1 {
		t.Fatalf("mutated %v, want exactly one function", names)
	}
	_, _, mutRefRep, err := incRun(c.Spec.Name, mutated, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutRes, mutMod, mutRep, err := incRun(c.Spec.Name, mutated, store)
	if err != nil {
		t.Fatal(err)
	}
	if mutRep != mutRefRep {
		t.Fatal("post-mutation report differs from an uncached run over the mutated sources")
	}
	want := expectedMisses(mutMod, names)
	if int(mutRes.Stats.CacheEntriesMiss) != want {
		t.Errorf("mutation invalidated %d entries, want exactly the frontier %d",
			mutRes.Stats.CacheEntriesMiss, want)
	}
	if want < 1 || want >= mutRes.Stats.EntryFunctions {
		t.Errorf("degenerate frontier %d of %d entries; pick a better-connected mutation seed",
			want, mutRes.Stats.EntryFunctions)
	}
}

// TestIncrementalCorruptTolerance damages the capsule pack on disk between
// a cold and a warm run — its last frame truncated mid-frame, the frame
// before it overwritten with garbage — and checks the warm run, on a
// store re-opened over the damaged pack, degrades to re-analysis (misses)
// while still rendering the byte-identical report.
func TestIncrementalCorruptTolerance(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	dir := t.TempDir()
	store, err := acache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, coldRep, err := incRun(c.Spec.Name, c.Sources, store)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	ends, err := acache.FrameEnds(dir)
	if err != nil || len(ends) < 3 {
		t.Fatalf("want >= 3 capsule frames, got %d (%v)", len(ends), err)
	}
	pack := filepath.Join(dir, acache.PackFile)
	data, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	last, prev := ends[len(ends)-2], ends[len(ends)-3]
	data = data[:(last+ends[len(ends)-1])/2]
	copy(data[prev:last], "not a capsule frame at all")
	if err := os.WriteFile(pack, data, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err = acache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	warmRes, _, warmRep, err := incRun(c.Spec.Name, c.Sources, store)
	if err != nil {
		t.Fatal(err)
	}
	if warmRep != coldRep {
		t.Fatal("report changed after on-disk corruption; fallback must re-analyze, not misreport")
	}
	if warmRes.Stats.CacheEntriesMiss < 2 {
		t.Errorf("only %d misses after corrupting two capsules", warmRes.Stats.CacheEntriesMiss)
	}
	if warmRes.Stats.CacheEntriesHit == 0 {
		t.Error("no hits at all: corruption of two frames should not flush the whole cache")
	}
}

// countingCache is a core.EntryCache that counts its Saves.
type countingCache struct {
	core.EntryCache
	saves atomic.Int64
}

func (c *countingCache) Save(key string, data []byte) {
	c.saves.Add(1)
	c.EntryCache.Save(key, data)
}

// TestCacheOneFramePerEntry pins the store's shape: a cold fill appends
// one capsule frame per entry function and nothing else — each candidate's
// Stage-2 verdict rides in its entry's capsule — and a warm re-run of the
// same sources saves nothing and leaves the pack's size unchanged.
func TestCacheOneFramePerEntry(t *testing.T) {
	for _, spec := range []oscorpus.OSSpec{oscorpus.LinuxSpec(), oscorpus.ValidationHeavySpec()} {
		c := oscorpus.Generate(spec)
		dir := t.TempDir()
		store, err := acache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		cache := &countingCache{EntryCache: store}
		cold, _, _, err := incRun(c.Spec.Name, c.Sources, cache)
		if err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.Name() != acache.PackFile {
				t.Errorf("%s: unexpected file %s in the store", c.Spec.Name, f.Name())
			}
		}
		ends, err := acache.FrameEnds(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ends) != cold.Stats.EntryFunctions {
			t.Errorf("%s: cold fill appended %d frames for %d entries", c.Spec.Name, len(ends), cold.Stats.EntryFunctions)
		}
		info, err := os.Stat(filepath.Join(dir, acache.PackFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(ends) == 0 || ends[len(ends)-1] != info.Size() {
			t.Errorf("%s: intact frames end before the pack's %d bytes", c.Spec.Name, info.Size())
		}
		cache.saves.Store(0)
		if _, _, _, err := incRun(c.Spec.Name, c.Sources, cache); err != nil {
			t.Fatal(err)
		}
		if n := cache.saves.Load(); n != 0 {
			t.Errorf("%s: warm re-run saved %d capsules, want 0", c.Spec.Name, n)
		}
		if warm, err := os.Stat(filepath.Join(dir, acache.PackFile)); err != nil || warm.Size() != info.Size() {
			t.Errorf("%s: warm re-run changed the pack from %d bytes (%v)", c.Spec.Name, info.Size(), err)
		}
	}
}
