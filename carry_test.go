package pata

import (
	"context"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/acache"
	"repro/internal/core"
	"repro/internal/oscorpus"
)

func engineConfig(t *testing.T, cfg Config) core.Config {
	t.Helper()
	ec, err := cfg.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	return ec
}

func openStore(t *testing.T) *acache.Store {
	t.Helper()
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// detStats returns s without the counters that measure time.
func detStats(s Stats) Stats {
	s.AnalysisTime, s.ValidationTime, s.SolverNanos = 0, 0, 0
	return s
}

// TestCarriedMatchesDecode walks an Update chain over the seed-1
// linux-like corpus ×4 (serve-edit's corpus) with crossEntrySources
// added: six Mutate steps; a neighbour edit, which changes alpha_entry
// and so re-lowers shared_get in the same file with the same fingerprint,
// re-keying beta_entry, whose candidate's path runs through shared_get,
// under the same key; a call-edge edit, after which
// beta_entry no longer calls shared_get, so alpha_entry's carried
// candidate, stored without a verdict, is validated and saved again with
// one; a revert of the last Mutate step, whose re-keyed entries hit their
// earlier capsules again; a revert of the call-edge edit; and an edit that
// adds a file, which Update answers with a Load and carries nothing
// across. After every step's cached Analyze:
//   - every entry the Program carries is exactly what a decode of its
//     capsule in the pack builds, pointer for pointer (core.Carry.Check);
//   - the run — report, bugs, incomplete entries and every counter but
//     the timing ones — equals the same step's on a shadow chain over a
//     pack of its own, whose Programs carry nothing, so every hit decodes.
//
// Last, one Program is analyzed under two checker sets in turn, which
// share no capsules and so must share no carried state.
func TestCarriedMatchesDecode(t *testing.T) {
	spec := oscorpus.Scaled(oscorpus.LinuxSpec(), 4)
	spec.Seed++
	sources := maps.Clone(oscorpus.Generate(spec).Sources)
	for name, src := range crossEntrySources {
		sources["cross_"+name] = src
	}
	ctx := context.Background()
	// Each chain has its own configurations, and so its own Stage-2
	// verdict cache, whose counters the stats compare.
	core3, all := engineConfig(t, Config{}), engineConfig(t, Config{Checkers: []string{"all"}})
	shadowConfig := map[*core.Config]core.Config{
		&core3: engineConfig(t, Config{}),
		&all:   engineConfig(t, Config{Checkers: []string{"all"}}),
	}
	store := &savingCache{Store: openStore(t)}
	shadowStore := openStore(t)

	prog, err := Load("carry", sources)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := Load("carry", sources)
	if err != nil {
		t.Fatal(err)
	}
	// analyze runs one step's cached analyses and checks them; it returns
	// the number of hits whose capsule the run saved again.
	analyze := func(step string, cfg *core.Config) int {
		t.Helper()
		store.reset()
		ec := *cfg
		ec.Cache = store
		got := prog.Analyze(ctx, ec, 2, true)
		if _, err := prog.carry.Load().Check(prog.graph(), ec); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		resaved := len(store.reset()) - int(got.Stats.CacheEntriesMiss)
		shadow.carry.Store(nil)
		sec := shadowConfig[cfg]
		sec.Cache = shadowStore
		want := shadow.Analyze(ctx, sec, 2, true)
		if got.Report() != want.Report() {
			t.Errorf("%s: report differs from the decoding chain's:\n--- carried\n%s--- decoded\n%s",
				step, got.Report(), want.Report())
		}
		if !reflect.DeepEqual(got.Bugs, want.Bugs) || !reflect.DeepEqual(got.Incomplete, want.Incomplete) {
			t.Errorf("%s: bugs or incomplete entries differ from the decoding chain's", step)
		}
		if g, w := detStats(got.Stats), detStats(want.Stats); g != w {
			t.Errorf("%s: stats differ from the decoding chain's:\n carried %+v\n decoded %+v", step, g, w)
		}
		return resaved
	}
	// update applies one edit to both chains, checks the state Update
	// carried, and reports whether Update took its Relower path and how
	// many hits it carried.
	var frontier []string
	update := func(step string, set map[string]string, remove []string) (bool, int) {
		t.Helper()
		next, _, f, err := prog.Update(set, remove)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		nextShadow, _, _, err := shadow.Update(set, remove)
		if err != nil {
			t.Fatalf("%s (decoding chain): %v", step, err)
		}
		ec := core3
		ec.Cache = store
		carried, err := next.carry.Load().Check(next.graph(), ec)
		if err != nil {
			t.Fatalf("%s: state carried by Update: %v", step, err)
		}
		derived := next.derivedFrom(prog)
		prog, shadow, frontier = next, nextShadow, f
		return derived, carried
	}
	changedFiles := func(from, to map[string]string) map[string]string {
		set := make(map[string]string)
		for name, src := range to {
			if from[name] != src {
				set[name] = src
			}
		}
		return set
	}

	analyze("cold", &core3)
	var prev map[string]string
	for step := int64(1); step <= 6; step++ {
		edited, _ := oscorpus.Mutate(sources, 2, step)
		derived, carried := update("mutate", changedFiles(sources, edited), nil)
		if !derived || carried == 0 {
			t.Fatalf("mutate %d: Update took its Relower path %v and carried %d hits", step, derived, carried)
		}
		analyze("mutate", &core3)
		prev, sources = sources, edited
	}

	a := sources["cross_a.c"]
	neighbour := strings.Replace(a, "shared_get(d, 1)", "shared_get(d, 2)", 1)
	if neighbour == a {
		t.Fatal("cross_a.c lacks alpha_entry's call")
	}
	update("neighbour", map[string]string{"cross_a.c": neighbour}, nil)
	if len(frontier) != 1 || frontier[0] != "alpha_entry" {
		t.Fatalf("neighbour: frontier %v, want [alpha_entry]: beta_entry must keep its key", frontier)
	}
	analyze("neighbour", &core3)

	b := sources["cross_b.c"]
	unreached := strings.Replace(b, "return shared_get(d, n);", "return n;", 1)
	if unreached == b {
		t.Fatal("cross_b.c lacks beta_entry's call")
	}
	update("call edge", map[string]string{"cross_b.c": unreached}, nil)
	if resaved := analyze("call edge", &core3); resaved == 0 {
		t.Error("call edge: no hit was saved again with a fresh verdict")
	}
	update("revert mutate", changedFiles(sources, prev), nil)
	analyze("revert mutate", &core3)
	update("revert call edge", map[string]string{"cross_b.c": b}, nil)
	analyze("revert call edge", &core3)

	if derived, _ := update("add file", map[string]string{"cross_c.c": "int gamma_entry(int n) { return n; }\n"}, nil); derived {
		t.Fatal("add file: Update did not fall back to Load")
	}
	if prog.carry.Load() != nil {
		t.Fatal("add file: Update's Load fallback carried state")
	}
	analyze("add file", &core3)

	// Two checker sets, then the first again: its hits must decode, not
	// replay what the other set's run left.
	analyze("all checkers", &all)
	analyze("core checkers again", &core3)
}

// gateCache holds its first n Loads until all n have arrived, so the
// analyzes that make them probe the cache, and run everything after, at
// once; later Loads pass straight through.
type gateCache struct {
	core.EntryCache
	mu      sync.Mutex
	waiting int
	open    chan struct{}
}

func (c *gateCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	if c.waiting > 0 {
		if c.waiting--; c.waiting == 0 {
			close(c.open)
		}
	}
	c.mu.Unlock()
	<-c.open
	return c.EntryCache.Load(key)
}

// TestConcurrentAnalyzesShareCarried: concurrent cached analyzes of one
// Program replay the same carried candidates, and Stage 2 writes none of
// them. The Program carries alpha_entry's candidate without a stored
// verdict: its capsule was saved while beta_entry's sighting was merged
// into it. After beta_entry stops reaching shared_get, every analyze
// validates that candidate itself and records the verdict beside it. A
// gate starts the analyzes' probes together, so their Stage 2s overlap.
// Run it under -race.
func TestConcurrentAnalyzesShareCarried(t *testing.T) {
	ctx := context.Background()
	cold := engineConfig(t, Config{})
	store := openStore(t)
	cached := cold
	cached.Cache = store
	prog, err := Load("cross", crossEntrySources)
	if err != nil {
		t.Fatal(err)
	}
	prog.Analyze(ctx, cached, 2, false)
	edited := strings.Replace(crossEntrySources["b.c"], "return shared_get(d, n);", "return n;", 1)
	next, _, _, err := prog.Update(map[string]string{"b.c": edited}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := next.carry.Load().Check(next.graph(), cached); err != nil || n != 1 {
		t.Fatalf("Update carried %d hits (%v), want alpha_entry's", n, err)
	}
	fresh, err := Load("cross", next.sources)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Analyze(ctx, cold, 2, true).Report()

	// Each analyze loads its first entry's key, then waits at the gate.
	const n = 4
	cached.Cache = &gateCache{EntryCache: store, waiting: n, open: make(chan struct{})}
	reports := make([]string, n)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = next.Analyze(ctx, cached, 2, true).Report()
		}(i)
	}
	wg.Wait()
	for i, got := range reports {
		if got != want {
			t.Errorf("analyze %d: report differs from a cacheless one:\n--- cached\n%s--- cacheless\n%s", i, got, want)
		}
	}
	if _, err := next.carry.Load().Check(next.graph(), cached); err != nil {
		t.Fatal(err)
	}
}
