package pata

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/acache"
	"repro/internal/core"
	"repro/internal/oscorpus"
)

// TestProgramUpdateEquivalence walks an oscorpus.Mutate edit sequence over
// the seed-1 linux-like corpus (the bench's scan-linux corpus at scale 1).
// At every step the Program Update returns, analyzed through a warm cache,
// renders byte-for-byte what a fresh Load of the edited sources renders
// without one, and Update's frontier is exactly the set of entries the
// cached Analyze re-ran: its CacheEntriesMiss set.
func TestProgramUpdateEquivalence(t *testing.T) {
	spec := oscorpus.LinuxSpec()
	spec.Seed++
	c := oscorpus.Generate(spec)
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Config{}.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Entries that reach Stage 1 are exactly the cache misses; the fault
	// hook sees each of them and injects nothing.
	var mu sync.Mutex
	ran := make(map[string]bool)
	cached := cold
	cached.Cache = store
	cached.FaultHook = func(entry string, rung int) *core.FaultSpec {
		mu.Lock()
		ran[entry] = true
		mu.Unlock()
		return nil
	}
	ctx := context.Background()

	prog, err := Load(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	prog.Analyze(ctx, cached, 0, false) // fills the store
	sources := c.Sources
	steps := 4
	if testing.Short() {
		steps = 2
	}
	for step := 1; step <= steps; step++ {
		edited, mutated := oscorpus.Mutate(sources, 2, int64(step))
		set := make(map[string]string)
		for name, src := range edited {
			if src != sources[name] {
				set[name] = src
			}
		}
		next, changed, frontier, err := prog.Update(set, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !slices.Equal(changed, mutated) {
			t.Errorf("step %d: changed = %v, want the mutated functions %v", step, changed, mutated)
		}
		if len(frontier) == 0 {
			t.Fatalf("step %d: empty frontier for mutations of %v", step, mutated)
		}

		clear(ran)
		got := next.Analyze(ctx, cached, 0, true)
		fresh, err := Load(c.Spec.Name, edited)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Analyze(ctx, cold, 0, true)
		if got.Report() != want.Report() {
			t.Errorf("step %d: Update+Analyze report differs from a fresh Load:\n--- update\n%s--- fresh\n%s",
				step, got.Report(), want.Report())
		}
		if !reflect.DeepEqual(got.Bugs, want.Bugs) {
			t.Errorf("step %d: Update+Analyze bugs (witnesses included) differ from a fresh Load", step)
		}
		var misses []string
		for name := range ran {
			misses = append(misses, name)
		}
		if slices.Sort(misses); !slices.Equal(frontier, misses) {
			t.Errorf("step %d: frontier %v != entries the cached analyze missed %v", step, frontier, misses)
		}
		if int64(len(frontier)) != got.Stats.CacheEntriesMiss {
			t.Errorf("step %d: frontier of %d entries, CacheEntriesMiss %d",
				step, len(frontier), got.Stats.CacheEntriesMiss)
		}
		prog, sources = next, edited
	}
}
