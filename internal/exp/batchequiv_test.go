package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/oscorpus"
)

// perCandidate wraps a Stage-2 hook so that it validates every candidate
// of a group as a batch of one.
func perCandidate(hook func(context.Context, []*core.PossibleBug, core.Mode) []core.ValidationOutcome) func(context.Context, []*core.PossibleBug, core.Mode) []core.ValidationOutcome {
	return func(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
		outs := make([]core.ValidationOutcome, len(bugs))
		for i := range bugs {
			outs[i] = hook(ctx, bugs[i:i+1], mode)[0]
		}
		return outs
	}
}

// TestBatchedValidationEquivalence is the repo's report-identity gate for
// batched Stage-2 validation and for the scheduler: on every corpus (the four
// paper OSes plus the validation-heavy and helper-heavy workloads), the
// batched default must produce byte-identical bug reports to per-candidate
// solving (the hook called on batches of one, see perCandidate), and the
// run at workers=4 must match the one at workers=1.
func TestBatchedValidationEquivalence(t *testing.T) {
	corpora := append(Corpora(),
		oscorpus.Generate(oscorpus.ValidationHeavySpec()),
		oscorpus.Generate(oscorpus.HelperHeavySpec()))
	for _, c := range corpora {
		var seq interface{}
		for _, workers := range []int{1, 4} {
			var reports [2]interface{}
			for vi, variant := range []string{"batched", "per-candidate"} {
				cfg := PATAConfig()
				if variant == "per-candidate" {
					cfg.ValidateBatch = perCandidate(cfg.ValidateBatch)
				}
				// One tool name for every run: it is embedded in every
				// report, and the comparisons below are byte-exact.
				r, err := RunPATA(c, cfg, "equiv", workers)
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", c.Spec.Name, workers, variant, err)
				}
				if len(r.Reports) == 0 {
					t.Fatalf("%s workers=%d %s: no bug reports — corpus not exercising validation", c.Spec.Name, workers, variant)
				}
				reports[vi] = r.Reports
				if variant == "batched" && workers == 1 && c.Spec.Name == "validate-heavy" && r.Stats.BatchedSolves == 0 {
					t.Error("validate-heavy produced no screened solves; the batch planner is not engaging")
				}
			}
			if !reflect.DeepEqual(reports[0], reports[1]) {
				t.Errorf("%s workers=%d: batched and per-candidate bug reports differ", c.Spec.Name, workers)
			}
			if workers == 1 {
				seq = reports[0]
			} else if !reflect.DeepEqual(seq, reports[0]) {
				t.Errorf("%s: workers=4 bug reports differ from workers=1", c.Spec.Name)
			}
		}
	}
}

// TestBatchedValidationRaceStress drives RunParallel's Stage-2 workers with
// batching on; its assertions are weak on purpose — the test's value is
// under `go test -race`, where it exercises the group dispatch, the shared
// verdict cache, and the stats merge concurrently.
func TestBatchedValidationRaceStress(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		cfg := PATAConfig()
		r, err := RunPATA(c, cfg, "race-stress", 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Reports) == 0 {
			t.Fatal("no reports from stress run")
		}
	}
}
