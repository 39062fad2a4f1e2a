package pathval

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/smt"
)

// shardFormula builds the i-th distinct test formula in ctx. The build is
// deterministic per context, so the same i from two goroutines (each with its
// own context) produces the same structural key — that is what makes cross-
// goroutine hits and singleflight observable.
func shardFormula(ctx *smt.Context, i int) smt.Formula {
	x := ctx.Var(fmt.Sprintf("x%d", i))
	return smt.And(smt.Ge(x, smt.Int(int64(i))), smt.Le(x, smt.Int(int64(i)+10)))
}

// TestShardTableShape pins the shard-table sizing rules: 0 selects the
// default, any other request rounds up to a power of two, and 1 keeps the
// single-shard global-mutex layout.
func TestShardTableShape(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{0, defaultCacheShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		v := New()
		v.cacheShards = tc.req
		if got := len(v.shardsOf()); got != tc.want {
			t.Errorf("cacheShards=%d: %d shards, want %d", tc.req, got, tc.want)
		}
	}
	// Per-shard bounds divide the validator-wide bounds, rounding up so a
	// tiny bound still admits one entry per shard.
	v := New()
	v.cacheShards = 8
	v.MaxCacheEntries = 20
	v.MaxCacheBytes = 100
	maxE, maxB := v.shardBounds()
	if maxE != 3 || maxB != 13 {
		t.Errorf("shardBounds() = (%d, %d), want (3, 13)", maxE, maxB)
	}
}

// TestShardedCacheConcurrentChurn hammers one validator from many goroutines
// with overlapping formula sets under a bound tight enough to force constant
// LRU eviction, then checks the counters stayed exact: every solveCached call
// is either a hit or a miss, never both, never neither, and the eviction
// total equals the sum of the per-call deltas. Run under -race this is also
// the data-race check for the sharded map/LRU/byte-budget mutation paths.
func TestShardedCacheConcurrentChurn(t *testing.T) {
	v := New()
	v.MaxCacheEntries = 8 // 16 shards × ceil(8/16)=1 entry each: heavy churn
	const (
		workers  = 8
		perG     = 300
		distinct = 40
	)
	var calls, hits, misses, evictions int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			ctx := smt.NewContext()
			fs := make([]smt.Formula, distinct)
			for i := range fs {
				fs[i] = shardFormula(ctx, i)
			}
			for i := 0; i < perG; i++ {
				_, _, hit, interrupted, ev, _ := v.solveCached(ctx, fs[(seed+i)%distinct], time.Time{}, nil)
				if interrupted {
					t.Error("no deadline was set, yet a solve reported interrupted")
					return
				}
				atomic.AddInt64(&calls, 1)
				atomic.AddInt64(&evictions, ev)
				if hit {
					atomic.AddInt64(&hits, 1)
				} else {
					atomic.AddInt64(&misses, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits != v.CacheHits || misses != v.CacheMisses {
		t.Errorf("counter drift: returned %d hits / %d misses, counters say %d / %d",
			hits, misses, v.CacheHits, v.CacheMisses)
	}
	if v.CacheHits+v.CacheMisses != calls {
		t.Errorf("hits(%d) + misses(%d) != calls(%d): an outcome was lost or double-counted",
			v.CacheHits, v.CacheMisses, calls)
	}
	if v.CacheEvictions != evictions {
		t.Errorf("eviction total %d != sum of per-call deltas %d", v.CacheEvictions, evictions)
	}
	if v.CacheEvictions == 0 {
		t.Error("bound of 8 entries with 40 distinct formulas never evicted — churn path untested")
	}
	// Bound holds per shard: ceil(8/16) = 1 entry each, 16 shards.
	if n := v.cacheEntries(); n > 16 {
		t.Errorf("%d live entries exceed the sharded bound of 16", n)
	}
}

// blockingBackend parks every Solve on release, counting entries. It lets a
// test hold many goroutines inside the same in-flight verdict.
type blockingBackend struct {
	solves  int64
	release chan struct{}
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Solve(ctx *smt.Context, f smt.Formula, deadline time.Time, done <-chan struct{}) (smt.Result, smt.Model, bool, bool) {
	atomic.AddInt64(&b.solves, 1)
	<-b.release
	return smt.Sat, nil, false, false
}

// TestShardedCacheSingleflight checks the property sharding must not break:
// structurally identical formulas in flight at the same time produce exactly
// ONE backend solve; everyone else waits on the same verdict and counts a
// hit. The backend blocks until all goroutines have entered solveCached, so
// the waiters really are concurrent with the solve, not after it.
func TestShardedCacheSingleflight(t *testing.T) {
	be := &blockingBackend{release: make(chan struct{})}
	v := New()
	v.Backend = be
	const waiters = 12
	results := make(chan bool, waiters)
	var entered sync.WaitGroup
	entered.Add(waiters)
	for g := 0; g < waiters; g++ {
		go func() {
			ctx := smt.NewContext()
			f := shardFormula(ctx, 7)
			entered.Done()
			_, _, hit, _, _, _ := v.solveCached(ctx, f, time.Time{}, nil)
			results <- hit
		}()
	}
	entered.Wait()
	// All goroutines are at or past the cache probe; let the one solver run.
	close(be.release)
	nhit := 0
	for g := 0; g < waiters; g++ {
		if <-results {
			nhit++
		}
	}
	if got := atomic.LoadInt64(&be.solves); got != 1 {
		t.Errorf("identical in-flight formulas solved %d times, want exactly 1", got)
	}
	if nhit != waiters-1 {
		t.Errorf("%d of %d calls were hits, want %d (all but the solver)", nhit, waiters, waiters-1)
	}
	if v.CacheHits != waiters-1 || v.CacheMisses != 1 {
		t.Errorf("counters %d hits / %d misses, want %d / 1", v.CacheHits, v.CacheMisses, waiters-1)
	}
}

// TestShardedCacheInFlightNeverEvicted pins the eviction guard: an entry
// whose solve is still running must survive any amount of LRU pressure in
// its shard, because waiters hold a pointer to that exact verdict.
func TestShardedCacheInFlightNeverEvicted(t *testing.T) {
	be := &blockingBackend{release: make(chan struct{})}
	v := New()
	v.Backend = be
	v.cacheShards = 1 // one shard: every formula lands on the in-flight entry's LRU
	v.MaxCacheEntries = 1

	done := make(chan bool)
	go func() {
		ctx := smt.NewContext()
		f := shardFormula(ctx, 0)
		_, _, hit, _, _, _ := v.solveCached(ctx, f, time.Time{}, nil)
		done <- hit
	}()
	// Solve is entered only after the entry is inserted, so once the counter
	// ticks, formula 0 is both cached and in flight.
	waitSolves := func(n int64) {
		for atomic.LoadInt64(&be.solves) < n {
			runtime.Gosched()
		}
	}
	waitSolves(1)

	// Churn the shard far past its 1-entry bound while formula 0 is in
	// flight: 20 distinct formulas, each insertion running an eviction pass
	// against the in-flight entry before its own solve parks on release.
	for i := 1; i <= 20; i++ {
		go func(i int) {
			ctx := smt.NewContext()
			v.solveCached(ctx, shardFormula(ctx, i), time.Time{}, nil)
		}(i)
	}
	waitSolves(21) // all 20 churn entries inserted, eviction pressure applied

	// The in-flight entry for formula 0 must still be present: a new caller
	// of the same formula must join it, not start a second solve.
	ctx := smt.NewContext()
	joined := make(chan bool)
	go func() {
		_, _, hit, _, _, _ := v.solveCached(ctx, shardFormula(ctx, 0), time.Time{}, nil)
		joined <- hit
	}()

	close(be.release)
	if hit := <-done; hit {
		t.Error("the original solver reported a hit")
	}
	if hit := <-joined; !hit {
		t.Error("a caller of an in-flight formula missed: the entry was evicted mid-solve")
	}
	if got := atomic.LoadInt64(&be.solves); got != 21 {
		t.Errorf("%d solves, want 21 (1 original + 20 churn + 0 for the joiner)", got)
	}
}

// TestShardLayoutReportIdentity runs the validation-heavy corpus through
// RunParallel at 1 and 4 workers under both verdict-cache layouts — the
// sharded default and the single global-mutex shard — and requires the same
// bugs, in the same order, with the same trigger values every time: the
// shard layout only changes lock contention, never answers.
func TestShardLayoutReportIdentity(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	render := func(shards, workers int) string {
		v := New()
		v.cacheShards = shards
		var cfg core.Config
		v.Install(&cfg)
		var sb strings.Builder
		for _, b := range core.SortedBugs(core.RunParallel(mod, cfg, workers).Bugs) {
			pos := b.BugInstr.Position()
			fmt.Fprintf(&sb, "%s %s:%d %s\n", b.Type, pos.File, pos.Line, strings.Join(b.Trigger, ", "))
		}
		return sb.String()
	}
	want := render(0, 1)
	if want == "" {
		t.Fatal("no bugs reported; the corpus no longer exercises validation")
	}
	for _, tc := range []struct{ shards, workers int }{{1, 1}, {0, 4}, {1, 4}} {
		if got := render(tc.shards, tc.workers); got != want {
			t.Errorf("cacheShards=%d workers=%d: report differs from the sharded single-worker run", tc.shards, tc.workers)
		}
	}
}
