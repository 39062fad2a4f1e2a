package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/report"
	"repro/internal/typestate"
)

// signature renders a run's findings into a comparable string.
func signature(res *core.Result) string {
	out := ""
	for _, b := range core.SortedBugs(res.Bugs) {
		pos := b.BugInstr.Position()
		out += fmt.Sprintf("%s %s:%d origin=%d;", b.Type, pos.File, pos.Line, b.OriginGID)
	}
	return out
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	var sigs []string
	var stats []core.Stats
	for i := 0; i < 3; i++ {
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Checkers: typestate.CoreCheckers()}
		pathval.New().Install(&cfg)
		res := core.RunParallel(mod, cfg, 1)
		sigs = append(sigs, signature(res))
		stats = append(stats, res.Stats)
	}
	if sigs[0] != sigs[1] || sigs[1] != sigs[2] {
		t.Error("findings differ across identical runs")
	}
	if stats[0].Typestates != stats[1].Typestates ||
		stats[0].PathsExplored != stats[1].PathsExplored ||
		stats[0].Constraints != stats[1].Constraints {
		t.Errorf("stats differ: %+v vs %+v", stats[0], stats[1])
	}
}

func TestAliasSetInReport(t *testing.T) {
	mod, err := minicc.LowerAll("m", map[string]string{"cfg.c": `
struct srv { int frnd; };
struct model { void *user_data; };
static void status(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	use(cfg->frnd);
}
static void entry_fn(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	if (!cfg)
		status(m);
}`})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&cfg)
	res := core.RunParallel(mod, cfg, 1)
	if len(res.Bugs) == 0 {
		t.Fatal("no bugs")
	}
	b := res.Bugs[0]
	if len(b.AliasSet) < 2 {
		t.Errorf("alias set should show the aliased access paths, got %v", b.AliasSet)
	}
	// The alias set must mention the user_data field chain.
	found := false
	for _, p := range b.AliasSet {
		if contains(p, "user_data") || contains(p, "cfg") {
			found = true
		}
	}
	if !found {
		t.Errorf("alias set misses the field chain: %v", b.AliasSet)
	}
}

// fullOutput renders every deterministic artifact of a run: the complete
// rendered bug report (positions, alias sets, triggers, path lengths), the
// ordered candidate list with its witness-path shapes, and the counters.
// Wall-clock and steal counts are zeroed — those are the only fields allowed
// to differ between worker counts.
func fullOutput(res *core.Result) string {
	var sb strings.Builder
	report.WriteBugs(&sb, res.Bugs)
	for i, pb := range res.Possible {
		fmt.Fprintf(&sb, "possible[%d] %s origin=%d bug=%d entry=%s path=%d alts=[",
			i, pb.Type, pb.OriginGID, pb.BugInstr.GID(), pb.EntryFn, len(pb.Path))
		for j, alt := range pb.AltPaths {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%d", len(alt))
		}
		sb.WriteString("]\n")
	}
	st := res.Stats
	st.AnalysisTime, st.ValidationTime, st.WorkSteals = 0, 0, 0
	// Solver self-time is a wall-clock measurement, nondeterministic by
	// nature; exclude it like the phase timers above.
	st.SolverNanos = 0
	fmt.Fprintf(&sb, "stats: %+v\n", st)
	return sb.String()
}

// TestRunParallelByteIdentical locks in the scheduler's contract: for every
// corpus, mode, checker set, and worker count, RunParallel must reproduce
// the recorded output in testdata/byteidentical byte for byte — same bugs
// in the same order, same candidate list, same AltPaths, same triggers, and
// the same counters, Stage-2 constraint, verdict-cache and batching
// counters included. The core and all files were recorded from the retired
// sequential engine. validate-heavy is the corpus whose candidates carry
// alternate witnesses; helper-heavy the one with deep Stage-1 entries. The
// ext set (use-after-free plus the API-pairing rules, on the linux corpus
// seeded with those bugs) and the unaware set (the thread-unaware UVA
// variant) cover the checkers the core and all sets leave out.
func TestRunParallelByteIdentical(t *testing.T) {
	lower := func(spec oscorpus.OSSpec) *cir.Module {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	zephyr := lower(oscorpus.ZephyrSpec())
	paper := []*cir.Module{zephyr, lower(oscorpus.ValidationHeavySpec()), lower(oscorpus.HelperHeavySpec())}
	checkerSets := []struct {
		name string
		mk   func() []typestate.Checker
		mods []*cir.Module
	}{
		{"core", typestate.CoreCheckers, paper},
		{"all", typestate.AllCheckers, paper},
		{"ext", func() []typestate.Checker {
			cs := []typestate.Checker{typestate.NewUAF()}
			for _, r := range typestate.CommonPairRules() {
				cs = append(cs, typestate.NewPair(r))
			}
			return cs
		}, []*cir.Module{lower(oscorpus.WithRepoExtensions(oscorpus.LinuxSpec()))}},
		{"unaware", func() []typestate.Checker {
			return []typestate.Checker{typestate.NewNPD(), typestate.NewUVAThreadUnaware(), typestate.NewML()}
		}, []*cir.Module{zephyr}},
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"pata", core.ModePATA},
		{"noalias", core.ModeNoAlias},
	}
	for _, cs := range checkerSets {
		for _, m := range modes {
			t.Run(cs.name+"/"+m.name, func(t *testing.T) {
				mk := func() core.Config {
					cfg := core.Config{Checkers: cs.mk(), Mode: m.mode}
					pathval.New().Install(&cfg)
					return cfg
				}
				for _, mod := range cs.mods {
					t.Run(mod.Name, func(t *testing.T) {
						golden := filepath.Join("testdata", "byteidentical", cs.name+"-"+m.name+"-"+mod.Name+".golden")
						want, err := os.ReadFile(golden)
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 2, 4} {
							if got := fullOutput(core.RunParallel(mod, mk(), workers)); got != string(want) {
								t.Errorf("workers=%d output differs from %s:\n--- recorded\n%s\n--- got\n%s",
									workers, golden, want, got)
							}
						}
					})
				}
			})
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
