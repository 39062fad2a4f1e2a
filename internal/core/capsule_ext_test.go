package core_test

import (
	"sync"
	"testing"

	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// memCache is an in-memory core.EntryCache for tests.
type memCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemCache() *memCache { return &memCache{m: make(map[string][]byte)} }

func (c *memCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *memCache) Save(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), data...)
}

const roundTripSrc = `
int helper_deref(int *p) {
	if (!p)
		return *p;
	return 0;
}

static int entry_npd(int *q, int flag) {
	if (flag)
		return helper_deref(q);
	return 1;
}

static int entry_leak(int n) {
	char *buf = malloc(n);
	if (n > 4)
		return -1;
	free(buf);
	return 0;
}

static int entry_clean(int a) {
	int b = a + 1;
	return b * 2;
}
`

func lowerRoundTripSrc(t *testing.T) *cir.Module {
	t.Helper()
	mod, err := minicc.LowerAll("capsule", map[string]string{"capsule.c": roundTripSrc})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestCapsuleRoundTrip runs cold then warm over freshly lowered modules
// through an in-memory cache and checks the warm run replays everything:
// all entries hit, the bug set is structurally identical, and the replayed
// counters (including Stage-2 constraint counts) match the cold run.
func TestCapsuleRoundTrip(t *testing.T) {
	cache := newMemCache()
	cfg := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache}
	pathval.New().Install(&cfg)
	cold := core.RunParallel(lowerRoundTripSrc(t), cfg, 2)

	cfg2 := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache}
	pathval.New().Install(&cfg2)
	warm := core.RunParallel(lowerRoundTripSrc(t), cfg2, 2)

	if cold.Stats.CacheEntriesHit != 0 || cold.Stats.CacheEntriesMiss == 0 {
		t.Fatalf("cold run: hit=%d miss=%d", cold.Stats.CacheEntriesHit, cold.Stats.CacheEntriesMiss)
	}
	if warm.Stats.CacheEntriesMiss != 0 ||
		warm.Stats.CacheEntriesHit != int64(warm.Stats.EntryFunctions) {
		t.Fatalf("warm run: hit=%d miss=%d of %d entries",
			warm.Stats.CacheEntriesHit, warm.Stats.CacheEntriesMiss, warm.Stats.EntryFunctions)
	}
	if warm.Stats.CacheStepsSkipped != cold.Stats.StepsExecuted {
		t.Errorf("steps skipped %d != cold steps executed %d",
			warm.Stats.CacheStepsSkipped, cold.Stats.StepsExecuted)
	}
	if warm.Stats.PathsExplored != cold.Stats.PathsExplored ||
		warm.Stats.StepsExecuted != cold.Stats.StepsExecuted ||
		warm.Stats.Constraints != cold.Stats.Constraints ||
		warm.Stats.PossibleBugs != cold.Stats.PossibleBugs ||
		warm.Stats.FalseDropped != cold.Stats.FalseDropped {
		t.Errorf("replayed counters diverge:\ncold %+v\nwarm %+v", cold.Stats, warm.Stats)
	}

	cb, wb := core.SortedBugs(cold.Bugs), core.SortedBugs(warm.Bugs)
	if len(cb) == 0 {
		t.Fatal("test program produced no bugs; the round trip proves nothing")
	}
	if len(cb) != len(wb) {
		t.Fatalf("bug count: cold %d warm %d", len(cb), len(wb))
	}
	for i := range cb {
		c, w := cb[i], wb[i]
		if c.Type != w.Type || c.InFn != w.InFn || c.EntryFn != w.EntryFn ||
			c.Validated != w.Validated ||
			c.BugInstr.Position() != w.BugInstr.Position() ||
			len(c.Path) != len(w.Path) || len(c.AltPaths) != len(w.AltPaths) {
			t.Errorf("bug %d diverges: cold %v@%v warm %v@%v",
				i, c.Type, c.BugInstr.Position(), w.Type, w.BugInstr.Position())
		}
		if len(c.Trigger) != len(w.Trigger) {
			t.Errorf("bug %d trigger count: cold %v warm %v", i, c.Trigger, w.Trigger)
			continue
		}
		for j := range c.Trigger {
			if c.Trigger[j] != w.Trigger[j] {
				t.Errorf("bug %d trigger[%d]: cold %q warm %q", i, j, c.Trigger[j], w.Trigger[j])
			}
		}
		// The replayed origin must resolve to an instruction again.
		if (c.OriginGID == 0) != (w.OriginGID == 0) {
			t.Errorf("bug %d origin presence diverges", i)
		}
	}
}

// TestConfigChangeMissesCache pins end-to-end invalidation: a warm run
// under a different analysis configuration must not consume capsules
// written under the old one.
func TestConfigChangeMissesCache(t *testing.T) {
	cache := newMemCache()
	cfg := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache}
	pathval.New().Install(&cfg)
	core.RunParallel(lowerRoundTripSrc(t), cfg, 2)

	for _, variant := range []struct {
		name string
		mod  func(c *core.Config)
	}{
		{"LoopUnroll", func(c *core.Config) { c.LoopUnroll = 2 }},
		{"Checkers", func(c *core.Config) {
			c.Checkers = append(typestate.CoreCheckers(), typestate.NewDBZ())
		}},
		{"Intrinsics", func(c *core.Config) {
			c.Intrinsics = typestate.DefaultIntrinsics().Add(typestate.IntrAlloc, "my_alloc")
		}},
	} {
		cfg2 := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache}
		pathval.New().Install(&cfg2)
		variant.mod(&cfg2)
		warm := core.RunParallel(lowerRoundTripSrc(t), cfg2, 2)
		if warm.Stats.CacheEntriesHit != 0 {
			t.Errorf("%s change still hit %d cached entries", variant.name, warm.Stats.CacheEntriesHit)
		}
		if warm.Stats.CacheEntriesMiss != int64(warm.Stats.EntryFunctions) {
			t.Errorf("%s: expected all %d entries to miss, got %d",
				variant.name, warm.Stats.EntryFunctions, warm.Stats.CacheEntriesMiss)
		}
	}
}

// TestCachedRunStatsMatchUncached: on validate-heavy, whose candidates carry
// alternate witnesses, a cold run with a cache reports the same Stats as an
// uncached run — the cache only adds its own entry counters — and a warm
// run replays the same Stage-2 constraint counts from the stored verdicts.
func TestCachedRunStatsMatchUncached(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache core.EntryCache) core.Stats {
		cfg := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache}
		pathval.New().Install(&cfg)
		return core.RunParallel(mod, cfg, 2).Stats
	}
	strip := func(s core.Stats) core.Stats {
		s.CacheEntriesHit, s.CacheEntriesMiss, s.CacheStepsSkipped = 0, 0, 0
		s.AnalysisTime, s.ValidationTime, s.SolverNanos, s.WorkSteals = 0, 0, 0, 0
		return s
	}
	uncached := run(nil)
	cache := newMemCache()
	cold := run(cache)
	if strip(cold) != strip(uncached) {
		t.Errorf("cold cached Stats differ from uncached:\n--- uncached\n%+v\n--- cold\n%+v", strip(uncached), strip(cold))
	}
	warm := run(cache)
	if warm.CacheEntriesMiss != 0 {
		t.Fatalf("warm run missed %d entries", warm.CacheEntriesMiss)
	}
	if warm.Constraints != cold.Constraints || warm.ConstraintsUnaware != cold.ConstraintsUnaware {
		t.Errorf("warm replay constraints = %d/%d, cold = %d/%d",
			warm.Constraints, warm.ConstraintsUnaware, cold.Constraints, cold.ConstraintsUnaware)
	}
}
