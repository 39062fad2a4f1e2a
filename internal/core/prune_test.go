package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/report"
	"repro/internal/typestate"
)

// bugReport renders the full post-validation bug report of one run.
func bugReport(res *core.Result) string {
	var sb strings.Builder
	report.WriteBugs(&sb, res.Bugs)
	return sb.String()
}

// TestPruningEquivalence locks in the on-the-fly pruning contract: across
// every corpus and checker set, the engine with incremental feasibility
// pruning forced on must produce a byte-identical post-validation bug report
// to the engine with pruning disabled — pruning may only discard work that
// Stage-2 validation would reject — while actually doing less Stage-1 work.
func TestPruningEquivalence(t *testing.T) {
	checkerSets := []struct {
		name string
		mk   func() []typestate.Checker
	}{
		{"core", typestate.CoreCheckers},
		{"all", typestate.AllCheckers},
	}
	var pathsOn, pathsOff, pruned int64
	for _, spec := range oscorpus.AllSpecs() {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range checkerSets {
			t.Run(spec.Name+"/"+cs.name, func(t *testing.T) {
				mk := func(disable bool) core.Config {
					cfg := core.Config{Checkers: cs.mk(), NoPrune: disable, NoAdaptive: true}
					pathval.New().Install(&cfg)
					return cfg
				}
				on := core.NewEngine(mod, mk(false)).Run()
				off := core.NewEngine(mod, mk(true)).Run()
				if got, want := bugReport(on), bugReport(off); got != want {
					t.Errorf("bug reports differ:\n--- pruning on\n%s\n--- pruning off\n%s", got, want)
				}
				if on.Stats.PathsExplored > off.Stats.PathsExplored {
					t.Errorf("pruning explored more paths: %d > %d",
						on.Stats.PathsExplored, off.Stats.PathsExplored)
				}
				if off.Stats.PrunedBranches != 0 {
					t.Errorf("disabled run has pruning counters: %+v", off.Stats)
				}
				pathsOn += on.Stats.PathsExplored
				pathsOff += off.Stats.PathsExplored
				pruned += on.Stats.PrunedBranches
			})
		}
	}
	if pruned == 0 {
		t.Errorf("no branches pruned across the corpora")
	}
	if pathsOn >= pathsOff {
		t.Errorf("pruning did not reduce explored paths: %d vs %d", pathsOn, pathsOff)
	} else {
		t.Logf("paths explored: %d with pruning, %d without (%.0f%% reduction; %d pruned branches)",
			pathsOn, pathsOff, 100*float64(pathsOff-pathsOn)/float64(pathsOff), pruned)
	}
}

// TestPruningEquivalenceParallel repeats the equivalence check through the
// pipelined scheduler, which must agree with the sequential engine under
// pruning exactly as it does without it. NoAdaptive forces pruning on: the
// size gate would otherwise turn it off on every zephyr-like entry.
func TestPruningEquivalenceParallel(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		cfg := core.Config{Checkers: typestate.AllCheckers(), ValidateWorkers: 2, NoAdaptive: true}
		pathval.New().Install(&cfg)
		return cfg
	}
	seq := core.NewEngine(mod, mk()).Run()
	par := core.RunParallel(mod, mk(), 4)
	if got, want := bugReport(par), bugReport(seq); got != want {
		t.Errorf("parallel report differs under pruning:\n--- sequential\n%s\n--- parallel\n%s", got, want)
	}
	if seq.Stats.PrunedBranches == 0 {
		t.Errorf("forced pruning never pruned: %+v", seq.Stats)
	}
	if par.Stats.PrunedBranches != seq.Stats.PrunedBranches {
		t.Errorf("pruning counters differ: sequential %+v vs parallel %+v", seq.Stats, par.Stats)
	}
}

// TestBudgetNegativeUnlimited locks in the budget semantics: 0 selects the
// documented default and any negative value means unlimited.
func TestBudgetNegativeUnlimited(t *testing.T) {
	// 12 branches explode to 2^12 = 4096 paths: past the small positive
	// cap below but within the default step budget, so the unlimited-path
	// run completes without tripping anything.
	var sb strings.Builder
	sb.WriteString("int f(int a, int b) {\n\tint s = 0;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "\tif (a > %d)\n\t\ts = s + 1;\n", i)
	}
	sb.WriteString("\treturn s;\n}\n")
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	// Pruning would collapse the correlated branches; this test is about
	// the raw budget arithmetic.
	base := core.Config{NoPrune: true, NoAdaptive: true}

	capped := base
	capped.MaxPathsPerEntry = 64
	cres := core.NewEngine(mod, capped).Run()
	if cres.Stats.Budgeted != 1 {
		t.Errorf("capped run not budgeted: %+v", cres.Stats)
	}

	unlimited := base
	unlimited.MaxPathsPerEntry = -1
	ures := core.NewEngine(mod, unlimited).Run()
	if ures.Stats.Budgeted != 0 {
		t.Errorf("unlimited run hit a budget: %+v", ures.Stats)
	}
	if ures.Stats.PathsExplored <= cres.Stats.PathsExplored {
		t.Errorf("unlimited run explored %d paths, capped run %d",
			ures.Stats.PathsExplored, cres.Stats.PathsExplored)
	}

	unlimitedSteps := base
	unlimitedSteps.MaxStepsPerEntry = -1
	unlimitedSteps.MaxPathsPerEntry = 1 << 20
	if res := core.NewEngine(mod, unlimitedSteps).Run(); res.Stats.Budgeted != 0 {
		t.Errorf("negative step budget not treated as unlimited: %+v", res.Stats)
	}
}
