package core_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/report"
	"repro/internal/typestate"
)

// TestCancelDuringValidation cancels the run context while Stage-2
// validation is in flight and asserts a clean shutdown: RunParallelCtx
// returns a well-formed partial result, validators observe the
// cancellation, and no scheduler goroutine outlives the call.
func TestCancelDuringValidation(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()

	// The validation hook parks every candidate until the context dies, so
	// cancellation is guaranteed to strike mid-Stage-2.
	validating := make(chan struct{}, 1)
	cfg := core.Config{
		Checkers: typestate.CoreCheckers(),
		ValidatePath: func(ctx context.Context, bug *core.PossibleBug, mode core.Mode) core.ValidationOutcome {
			select {
			case validating <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return core.ValidationOutcome{Feasible: true, TimedOut: true}
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *core.Result, 1)
	go func() { done <- core.RunParallelCtx(ctx, mod, cfg, 2) }()

	select {
	case <-validating:
	case <-time.After(30 * time.Second):
		t.Fatal("no candidate reached Stage-2 validation")
	}
	cancel()

	var res *core.Result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunParallelCtx did not return after cancellation")
	}

	// Well-formed partial report: every entry is accounted for, the bugs
	// that were validated render, and the blocked validations surfaced as
	// conservative keeps (TimedOut counts a deadline trip each).
	if res.Stats.EntryFunctions == 0 {
		t.Fatal("no entries accounted for")
	}
	if len(res.Bugs) == 0 {
		t.Error("conservative keeps missing: cancelled validation must not drop bugs")
	}
	if res.Stats.DeadlineTrips < int64(len(res.Bugs)) {
		t.Errorf("DeadlineTrips = %d, want >= %d (every parked validation was interrupted)",
			res.Stats.DeadlineTrips, len(res.Bugs))
	}
	var sb strings.Builder
	report.WriteBugs(&sb, res.Bugs)
	report.WriteIncomplete(&sb, res.Incomplete)
	report.WriteStats(&sb, res.Stats)
	if sb.Len() == 0 {
		t.Error("empty rendered report")
	}

	// No goroutine leaks: the cache probe, the Stage-1 workers and the
	// Stage-2 workers must all have exited. Poll briefly — goroutine teardown is
	// asynchronous after the result is delivered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 || time.Now().After(deadline) {
			if n > before+1 {
				t.Errorf("goroutines leaked: %d before, %d after", before, n)
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCancelMidStage1 cancels while Stage-1 exploration is still running
// and asserts the drained entries are reported as cancelled.
func TestCancelMidStage1(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Checkers: typestate.CoreCheckers()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work: every entry drains
	res := core.RunParallelCtx(ctx, mod, cfg, 2)
	if len(res.Incomplete) != res.Stats.EntryFunctions {
		t.Fatalf("incomplete = %d records, want one per entry (%d)",
			len(res.Incomplete), res.Stats.EntryFunctions)
	}
	for _, e := range res.Incomplete {
		if e.Reason != core.ReasonCancelled || e.Rung != -1 {
			t.Errorf("drained entry record = %+v, want cancelled/-1", e)
		}
	}
	if res.Stats.EntriesDegraded != 0 {
		t.Errorf("EntriesDegraded = %d; cancellation is not degradation", res.Stats.EntriesDegraded)
	}
}
