package pathval

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fanSrc has three NPD candidates behind one contradictory shared prefix
// (n > 100 && n < 50): the batch screen can refute the whole fan from two
// cursor pushes without replaying a single arm.
const fanSrc = `
void func(char *p, int n, int m) {
	if (n > 100) {
		if (n < 50) {
			if (m == 1) {
				if (!p)
					use(*p);
			}
			if (m == 2) {
				if (!p)
					use(*p);
			}
			if (m == 3) {
				if (!p)
					use(*p);
			}
		}
	}
}`

// mixedSrc has two feasible candidates on a shared feasible prefix plus one
// candidate behind a contradictory guard pair, so a batch contains both
// screened and fallback leaves.
const mixedSrc = `
void func(char *p, int n, int m) {
	if (n > 0) {
		if (m == 1) {
			if (!p)
				use(*p);
		}
		if (m == 2) {
			if (!p)
				use(*p);
		}
	}
	if (n > 10) {
		if (n < 5) {
			if (!p)
				use(*p);
		}
	}
}`

// perCandidateOutcomes validates each candidate through a fresh validator's
// unbatched path, giving the reference verdicts batching must reproduce.
func perCandidateOutcomes(cands []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
	outs := make([]core.ValidationOutcome, len(cands))
	for i, pb := range cands {
		outs[i] = New().Validate(pb, mode)
	}
	return outs
}

func TestBatchMatchesPerCandidate(t *testing.T) {
	for _, src := range []string{fanSrc, mixedSrc, infeasibleSrc} {
		cands, v := analyze(t, src, core.ModePATA)
		if len(cands) < 2 {
			t.Fatalf("want a batchable group, got %d candidates", len(cands))
		}
		want := perCandidateOutcomes(cands, core.ModePATA)
		got := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
		for i := range cands {
			if got[i].Feasible != want[i].Feasible {
				t.Errorf("candidate %d at %s: batched feasible=%v, per-candidate %v",
					i, cands[i].BugInstr.Position(), got[i].Feasible, want[i].Feasible)
			}
			if !reflect.DeepEqual(got[i].Trigger, want[i].Trigger) {
				t.Errorf("candidate %d: batched trigger %v, per-candidate %v",
					i, got[i].Trigger, want[i].Trigger)
			}
			if got[i].TimedOut {
				t.Errorf("candidate %d: spurious TimedOut without a deadline", i)
			}
		}
	}
}

func TestBatchScreensSharedDeadPrefix(t *testing.T) {
	cands, v := analyze(t, fanSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 fan candidates, got %d", len(cands))
	}
	outs := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
	var screened, fallbacks, shared int64
	for _, out := range outs {
		if out.Feasible {
			t.Error("fan candidate under contradictory prefix must be infeasible")
		}
		screened += out.BatchedSolves
		fallbacks += out.BatchFallbacks
		shared += out.PrefixAtomsShared
	}
	if screened == 0 {
		t.Error("expected the cursor screen to refute the shared dead prefix")
	}
	if shared == 0 {
		t.Error("expected shared prefix atoms to be counted")
	}
	// Screened leaves never touch the full solver or its cache.
	if hits, misses := v.CacheHits, v.CacheMisses; hits+misses >= int64(len(cands)) {
		t.Errorf("screened batch should skip most solves: %d hits + %d misses for %d candidates (fallbacks %d)",
			hits, misses, len(cands), fallbacks)
	}
}

func TestBatchCancelledMidScreenStaysConservative(t *testing.T) {
	cands, v := analyze(t, fanSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 fan candidates, got %d", len(cands))
	}
	want := perCandidateOutcomes(cands, core.ModePATA)

	ctx, cancel := context.WithCancel(context.Background())
	v.screenHook = func(pushes int) {
		if pushes >= 1 {
			cancel()
		}
	}
	outs := v.ValidateBatchCtx(ctx, cands, core.ModePATA)
	for i, out := range outs {
		// A cancelled batch may only err on the side of keeping bugs: every
		// verdict is either the true one or a conservative kept-Unknown
		// marked TimedOut. It must never invent an Unsat.
		if out.Feasible != want[i].Feasible && !(out.Feasible && out.TimedOut) {
			t.Errorf("candidate %d: cancelled batch returned feasible=%v timedOut=%v, want %v or conservative keep",
				i, out.Feasible, out.TimedOut, want[i].Feasible)
		}
	}

	// Interrupted answers must not be memoized: the same validator, given a
	// clean context, must now produce the true verdicts.
	v.screenHook = nil
	clean := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
	for i := range cands {
		if clean[i].Feasible != want[i].Feasible {
			t.Errorf("candidate %d: verdict after interruption feasible=%v, want %v (poisoned cache?)",
				i, clean[i].Feasible, want[i].Feasible)
		}
		if clean[i].TimedOut {
			t.Errorf("candidate %d: TimedOut persisted past the interrupted run", i)
		}
	}
}

func TestVerdictCacheLRUBound(t *testing.T) {
	cands, v := analyze(t, mixedSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 candidates, got %d", len(cands))
	}
	// Single shard: with one global stripe the per-shard bound equals the
	// validator bound, so the test pins the exact pre-sharding LRU behavior.
	v.cacheShards = 1
	v.MaxCacheEntries = 1
	want := perCandidateOutcomes(cands, core.ModePATA)
	for round := 0; round < 2; round++ {
		for i, pb := range cands {
			out := v.Validate(pb, core.ModePATA)
			if out.Feasible != want[i].Feasible {
				t.Errorf("round %d candidate %d: feasible=%v under eviction, want %v",
					round, i, out.Feasible, want[i].Feasible)
			}
		}
	}
	if v.CacheEvictions == 0 {
		t.Error("MaxCacheEntries=1 over distinct systems should evict")
	}
	if n := v.cacheEntries(); n > 1 {
		t.Errorf("cache holds %d entries, bound is 1", n)
	}
}

func TestVerdictCacheHitRateUnaffectedByBound(t *testing.T) {
	// With a bound comfortably above the working set, re-validating the same
	// candidates must hit the cache exactly as an unbounded cache would.
	cands, v := analyze(t, mixedSrc, core.ModePATA)
	for _, pb := range cands {
		v.Validate(pb, core.ModePATA)
	}
	missesAfterWarmup := v.CacheMisses
	for _, pb := range cands {
		v.Validate(pb, core.ModePATA)
	}
	if v.CacheMisses != missesAfterWarmup {
		t.Errorf("bounded cache missed %d times on re-validation, want 0",
			v.CacheMisses-missesAfterWarmup)
	}
	if v.CacheHits == 0 {
		t.Error("expected cache hits on re-validation")
	}
	if v.CacheEvictions != 0 {
		t.Errorf("default bounds should not evict on this workload, got %d", v.CacheEvictions)
	}
}
