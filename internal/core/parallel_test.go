package core_test

import (
	"context"
	"runtime"
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

// TestRunParallelMatchesSequential: one worker and four find the same bugs
// with the same exploration counters on the linux-like corpus.
func TestRunParallelMatchesSequential(t *testing.T) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	seqCfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&seqCfg)
	seq := core.RunParallel(mod, seqCfg, 1)

	parCfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&parCfg)
	par := core.RunParallel(mod, parCfg, 4)

	if signature(seq) != signature(par) {
		t.Errorf("findings at 4 workers differ from 1 worker:\none: %s\nfour: %s",
			signature(seq), signature(par))
	}
	if seq.Stats.Typestates != par.Stats.Typestates {
		t.Errorf("typestate counters differ: %d vs %d",
			seq.Stats.Typestates, par.Stats.Typestates)
	}
	if seq.Stats.PathsExplored != par.Stats.PathsExplored {
		t.Errorf("path counters differ: %d vs %d",
			seq.Stats.PathsExplored, par.Stats.PathsExplored)
	}
}

// TestRunParallelSingleEntry: with one entry function the worker count
// clamps to one and the scheduler still reports the bug.
func TestRunParallelSingleEntry(t *testing.T) {
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": `
struct s { int f; };
int f(struct s *p) {
	if (!p)
		return p->f;
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&cfg)
	res := core.RunParallel(mod, cfg, 8)
	if len(res.Bugs) != 1 {
		t.Errorf("bugs = %d", len(res.Bugs))
	}
}

// boomChecker wraps a checker and panics when shown a call to boom.
type boomChecker struct{ typestate.Checker }

func (c boomChecker) OnInstr(in cir.Instr, ctx typestate.Ctx, out []typestate.Emission) []typestate.Emission {
	if call, ok := in.(*cir.Call); ok && call.Callee == "boom" {
		panic("boomChecker: call boom")
	}
	return c.Checker.OnInstr(in, ctx, out)
}

// TestRunParallelContextParity: a library caller's context must not change
// the result. The entry f panics after its NPD emission, so the run walks
// the degrade ladder; whether the context can be cancelled, and whether the
// worker count is explicit or GOMAXPROCS, the Result is the same. GOMAXPROCS
// is pinned to 1 so that both worker counts resolve to a single worker, the
// setting most tempting to shortcut past the scheduler.
func TestRunParallelContextParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": `
struct s { int f; };
int f(struct s *p) {
	int x = 0;
	if (!p) {
		x = p->f;
		boom();
	}
	return x;
}`})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		cfg := core.Config{Checkers: []typestate.Checker{boomChecker{typestate.NewNPD()}}}
		pathval.New().Install(&cfg)
		return cfg
	}
	render := func(res *core.Result) string {
		var sb strings.Builder
		sb.WriteString(fullOutput(res))
		report.WriteIncomplete(&sb, res.Incomplete)
		return sb.String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 0} {
		background := core.RunParallelCtx(context.Background(), mod, mk(), workers)
		if background.Stats.PanicsContained == 0 {
			t.Fatalf("workers=%d: no panic contained; the test would prove nothing", workers)
		}
		want := render(background)
		if got := render(core.RunParallelCtx(ctx, mod, mk(), workers)); got != want {
			t.Errorf("workers=%d: cancellable context changes the result:\n--- background\n%s\n--- cancellable\n%s",
				workers, want, got)
		}
	}
}

// TestRunParallelCrossEntryDedup: two entries reach the same NPD inside a
// shared helper. The merge keeps the first entry's candidate, counts the
// second sighting as a repeated drop and appends its path as an alternate
// witness, whichever worker finished first.
func TestRunParallelCrossEntryDedup(t *testing.T) {
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": `
struct s { int f; };
static int helper(struct s *p) {
	if (!p)
		return p->f;
	return 0;
}
int entry1(struct s *a) { return helper(a); }
int entry2(struct s *b) { return helper(b); }
`})
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, workers := range []int{1, 2} {
		res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, workers)
		if len(res.Possible) != 1 {
			t.Fatalf("workers=%d: %d candidates, want 1", workers, len(res.Possible))
		}
		pb := res.Possible[0]
		if pb.EntryFn != "entry1" || len(pb.AltPaths) != 1 || res.Stats.RepeatedDropped != 1 {
			t.Errorf("workers=%d: entry=%s alts=%d repeated=%d, want entry1, 1, 1",
				workers, pb.EntryFn, len(pb.AltPaths), res.Stats.RepeatedDropped)
		}
		if got := fullOutput(res); want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
