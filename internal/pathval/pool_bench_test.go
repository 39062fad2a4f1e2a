package pathval

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
)

// poolCandidate lowers infeasibleSrc and returns the line-10 candidate, the
// one every replay-path test targets.
func poolCandidate(tb testing.TB) *core.PossibleBug {
	tb.Helper()
	mod, err := minicc.LowerAll("m", map[string]string{"t.c": infeasibleSrc})
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	res := core.RunParallel(mod, core.Config{Mode: core.ModePATA}, 1)
	for _, pb := range res.Possible {
		if pb.BugInstr.Position().Line == 10 {
			return pb
		}
	}
	tb.Fatal("stage 1 did not produce the line-10 candidate")
	return nil
}

// TestPooledReplayerDeterminism revalidates one candidate many times through
// one validator — every validation after the first reuses a pooled, reset
// replayer — and requires the outcome to stay identical to the first
// (modulo the hit/miss flip the verdict cache causes by design). A reset
// that leaked any state (a stale alias edge, an unrewound variable ID) would
// change the constraint count, the verdict, or the trigger values.
func TestPooledReplayerDeterminism(t *testing.T) {
	bug := poolCandidate(t)
	v := New()
	first := v.Validate(bug, core.ModePATA)
	if first.Feasible {
		t.Fatal("the infeasible candidate validated as feasible")
	}
	for i := 0; i < 50; i++ {
		out := v.Validate(bug, core.ModePATA)
		out.CacheHits, out.CacheMisses = first.CacheHits, first.CacheMisses
		if !reflect.DeepEqual(out, first) {
			t.Fatalf("iteration %d: pooled revalidation diverged:\n got %+v\nwant %+v", i, out, first)
		}
	}
}

// TestPooledReplayerAllocBudget is the alloc-budget guard for the Stage-2
// hot loop: once the pool is warm and the verdict is cached, one validation
// must stay under the budget below. The replay itself still allocates (every
// smt.Var and atom is a fresh node by design — the term context hands out
// pointer-identity vars), so the budget is not zero; what it guards against
// is the pre-pooling behavior of rebuilding the replayer — graph, context,
// four maps, every slice — per candidate, and alias-graph nodes that are
// allocated afresh instead of recycled from the reset graph. Measured steady
// state is 22 allocs/op (0.4KB) pooled vs 100 (16KB) fresh. Race-detector
// builds drop one in four sync.Pool puts at random, so there the average is
// ~44 (43–47 over 15 runs of 1000); the budget of 50 holds for both builds
// while still failing on a regression to per-candidate construction or
// per-replay node allocation.
func TestPooledReplayerAllocBudget(t *testing.T) {
	bug := poolCandidate(t)
	v := New()
	v.Validate(bug, core.ModePATA) // warm pool and verdict cache
	const budget = 50
	if avg := testing.AllocsPerRun(1000, func() { v.Validate(bug, core.ModePATA) }); avg > budget {
		t.Errorf("pooled validation allocates %.1f/op in steady state, budget %d", avg, budget)
	}
}

// BenchmarkValidateReplayer compares the pooled per-validation path against
// a fresh replayer per candidate (the pre-pooling behavior, reconstructed
// inline). Both run against a warm verdict cache so the delta is replayer
// construction and reset, not solver time.
func BenchmarkValidateReplayer(b *testing.B) {
	bug := poolCandidate(b)
	ctx := context.Background()
	b.Run("pooled", func(b *testing.B) {
		v := New()
		v.Validate(bug, core.ModePATA)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Validate(bug, core.ModePATA)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		v := New()
		v.Validate(bug, core.ModePATA)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := newReplayer(core.ModePATA)
			r.replay(bug, bug.Path)
			v.solveReplayed(ctx, r)
		}
	})
}
