package pata

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/acache"
)

// savingCache is an EntryCache over an acache.Store that records the keys
// saved since the last reset.
type savingCache struct {
	*acache.Store
	mu    sync.Mutex
	saved []string
}

func (c *savingCache) Save(key string, data []byte) {
	c.mu.Lock()
	c.saved = append(c.saved, key)
	c.mu.Unlock()
	c.Store.Save(key, data)
}

func (c *savingCache) reset() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	saved := c.saved
	c.saved = nil
	return saved
}

// crossEntrySources has two entries that reach one NPD candidate — the
// same checker, origin and bug, all in shared_get — on paths of their own.
// alpha_entry sorts first, so the merge keeps its candidate and appends
// beta_entry's path to it; alpha's path (k = 1) is infeasible, so the bug
// is real only through beta's. Edits touch b.c alone, which leaves
// alpha_entry's entry key, and so its capsule, valid.
var crossEntrySources = map[string]string{
	"a.c": `struct dev { int flags; };
int shared_get(struct dev *d, int k) {
	if (!d) {
		if (k > 5)
			return d->flags;
	}
	return 0;
}
int alpha_entry(struct dev *d) { return shared_get(d, 1); }
`,
	"b.c": `struct dev { int flags; };
int shared_get(struct dev *d, int k);
int beta_entry(struct dev *d, int n) { return shared_get(d, n); }
`,
}

// TestCrossEntryVerdictNotReplayed: a candidate's stored verdict covers
// its own entry's paths only, so it must not decide a candidate to which
// the merge appended another entry's. Through a chain of edits to the
// second entry alone, every cached Analyze renders what a cacheless
// analysis of the same sources does:
//   - cold, then warm: the bug, found through beta's path;
//   - beta's path made infeasible: no bug, though alpha's capsule hits
//     (a verdict stored for the merged candidate would keep it);
//   - beta no longer reaching shared_get: no bug, and alpha's capsule,
//     which lacked a verdict, is saved again with one;
//   - beta's path restored: the bug again, though alpha's capsule now
//     stores "infeasible" (replaying it for the merged candidate would
//     drop the bug).
func TestCrossEntryVerdictNotReplayed(t *testing.T) {
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Config{}.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	cache := &savingCache{Store: store}
	cached := cold
	cached.Cache = cache
	ctx := context.Background()

	prog, err := Load("cross", crossEntrySources)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, p *Program, wantBugs int, wantHits int64) *Result {
		t.Helper()
		got := p.Analyze(ctx, cached, 2, true)
		fresh, err := Load("cross", p.sources)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Analyze(ctx, cold, 2, true)
		if got.Report() != want.Report() {
			t.Errorf("%s: cached report differs from a cacheless one:\n--- cached\n%s--- cacheless\n%s",
				step, got.Report(), want.Report())
		}
		if len(got.Bugs) != wantBugs {
			t.Errorf("%s: %d bugs, want %d", step, len(got.Bugs), wantBugs)
		}
		if got.Stats.CacheEntriesHit != wantHits {
			t.Errorf("%s: %d entries hit, want %d", step, got.Stats.CacheEntriesHit, wantHits)
		}
		return got
	}
	edit := func(step, old, new string) {
		t.Helper()
		src := crossEntrySources["b.c"]
		if !strings.Contains(src, old) {
			t.Fatalf("b.c lacks %q", old)
		}
		next, _, frontier, err := prog.Update(map[string]string{"b.c": strings.Replace(src, old, new, 1)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(frontier) != 1 || frontier[0] != "beta_entry" {
			t.Fatalf("%s: frontier %v, want [beta_entry]", step, frontier)
		}
		prog = next
	}

	coldRes := check("cold", prog, 1, 0)
	if coldRes.Stats.RepeatedDropped != 1 {
		t.Fatalf("cold: %d repeated drops, want 1: the merge must fire", coldRes.Stats.RepeatedDropped)
	}
	cache.reset()
	if warm := check("warm", prog, 1, 2); warm.Report() != coldRes.Report() {
		t.Errorf("warm report differs from cold:\n--- cold\n%s--- warm\n%s", coldRes.Report(), warm.Report())
	}
	if saved := cache.reset(); len(saved) != 0 {
		t.Errorf("warm: %d capsules saved, want 0", len(saved))
	}

	edit("infeasible", "shared_get(d, n)", "shared_get(d, 2)")
	check("infeasible", prog, 0, 1)

	edit("unreached", "return shared_get(d, n);", "return n;")
	cache.reset()
	check("unreached", prog, 0, 1)
	if saved := cache.reset(); len(saved) != 2 {
		t.Errorf("unreached: %d capsules saved, want 2 (beta's, and alpha's again with its verdict)", len(saved))
	}

	prog, err = Load("cross", crossEntrySources)
	if err != nil {
		t.Fatal(err)
	}
	if again := check("restored", prog, 1, 2); again.Report() != coldRes.Report() {
		t.Errorf("restored report differs from cold:\n--- cold\n%s--- restored\n%s", coldRes.Report(), again.Report())
	}
}
