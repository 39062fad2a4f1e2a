package oscorpus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ZephyrSpec())
	b := Generate(ZephyrSpec())
	if a.Lines != b.Lines || len(a.Truth) != len(b.Truth) {
		t.Fatal("generation is not deterministic")
	}
	for name, src := range a.Sources {
		if b.Sources[name] != src {
			t.Fatalf("file %s differs between runs", name)
		}
	}
}

func TestSpecsProduceDeclaredCounts(t *testing.T) {
	for _, spec := range AllSpecs() {
		c := Generate(spec)
		want := 0
		for _, cat := range spec.Cats {
			for _, n := range cat.Bugs {
				want += n
			}
		}
		if len(c.Truth) != want {
			t.Errorf("%s: truth = %d, want %d", spec.Name, len(c.Truth), want)
		}
		wantTraps := 0
		for _, cat := range spec.Cats {
			for _, n := range cat.Traps {
				wantTraps += n
			}
		}
		if len(c.Traps) != wantTraps {
			t.Errorf("%s: traps = %d, want %d", spec.Name, len(c.Traps), wantTraps)
		}
		if c.Files() == 0 || c.Lines == 0 {
			t.Errorf("%s: empty corpus", spec.Name)
		}
	}
}

func TestAllCorporaLowerCleanly(t *testing.T) {
	for _, spec := range AllSpecs() {
		c := Generate(spec)
		mod, err := minicc.LowerAll(spec.Name, c.Sources)
		if err != nil {
			t.Fatalf("%s: lower: %v", spec.Name, err)
		}
		if mod.NumInstrs() == 0 {
			t.Errorf("%s: empty module", spec.Name)
		}
	}
}

func TestTruthLinesPointAtCode(t *testing.T) {
	c := Generate(LinuxSpec())
	for _, g := range c.Truth {
		src, ok := c.Sources[g.File]
		if !ok {
			t.Fatalf("truth %s references unknown file %s", g.ID, g.File)
		}
		lines := strings.Split(src, "\n")
		if g.Line <= 0 || g.Line > len(lines) {
			t.Fatalf("truth %s line %d out of range", g.ID, g.Line)
		}
		if strings.TrimSpace(lines[g.Line-1]) == "" {
			t.Errorf("truth %s points at a blank line", g.ID)
		}
	}
}

// analyzeCorpus runs full PATA over a corpus and converts bugs to reports.
func analyzeCorpus(t *testing.T, c *Corpus, mode core.Mode) []Report {
	t.Helper()
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	cfg := core.Config{Mode: mode, Checkers: typestate.CoreCheckers()}
	v := pathval.New()
	v.Install(&cfg)
	res := core.RunParallel(mod, cfg, 1)
	var out []Report
	for _, b := range res.Bugs {
		pos := b.BugInstr.Position()
		out = append(out, Report{Tool: "pata", Type: b.Type, File: pos.File, Line: pos.Line})
	}
	return out
}

func TestPATAOnZephyrCorpus(t *testing.T) {
	c := Generate(ZephyrSpec())
	score := Evaluate(c, analyzeCorpus(t, c, core.ModePATA))
	if score.Real != len(c.Truth) {
		t.Errorf("real = %d, want all %d seeded bugs; missed: %v",
			score.Real, len(c.Truth), score.Missed)
	}
	// FP rate must be bounded: only the nonlinear/array traps may fire.
	if score.FPRate() > 50 {
		t.Errorf("FP rate %.0f%% too high: %+v", score.FPRate(), score.FPByMechanism)
	}
	// Guarded and fig9 traps must NOT fire for PATA.
	if score.FPByMechanism["guarded"] > 0 || score.FPByMechanism["fig9-alias"] > 0 {
		t.Errorf("PATA fired on guarded/fig9 traps: %+v", score.FPByMechanism)
	}
}

func TestPATAOnTencentCorpus(t *testing.T) {
	c := Generate(TencentSpec())
	score := Evaluate(c, analyzeCorpus(t, c, core.ModePATA))
	if score.Real < len(c.Truth)-1 {
		t.Errorf("real = %d of %d; missed: %v", score.Real, len(c.Truth), score.Missed)
	}
}

func TestNAMissesAliasBugs(t *testing.T) {
	c := Generate(ZephyrSpec())
	pata := Evaluate(c, analyzeCorpus(t, c, core.ModePATA))
	na := Evaluate(c, analyzeCorpus(t, c, core.ModeNoAlias))
	if na.Real >= pata.Real {
		t.Errorf("NA real (%d) should be below PATA real (%d)", na.Real, pata.Real)
	}
}

func TestEvaluateScoring(t *testing.T) {
	c := Generate(ZephyrSpec())
	g := c.Truth[0]
	reports := []Report{
		{Tool: "x", Type: g.Type, File: g.File, Line: g.Line},      // real
		{Tool: "x", Type: g.Type, File: g.File, Line: g.Line},      // duplicate
		{Tool: "x", Type: g.Type, File: g.File, Line: g.Line + 50}, // FP
	}
	s := Evaluate(c, reports)
	if s.Found != 2 || s.Real != 1 || s.FalsePos != 1 {
		t.Errorf("score = %+v", s)
	}
	if len(s.Missed) != len(c.Truth)-1 {
		t.Errorf("missed = %d", len(s.Missed))
	}
	if s.RealByCategory[g.Category] != 1 {
		t.Errorf("category attribution: %+v", s.RealByCategory)
	}
}

func truthKey(file string, line int, bt typestate.BugType) string {
	return fmt.Sprintf("%s:%d:%s", file, line, bt)
}

func TestPaperCasesDetected(t *testing.T) {
	for _, cs := range PaperCases() {
		mod, err := minicc.LowerAll(cs.Name, cs.Sources)
		if err != nil {
			t.Fatalf("%s: lower: %v", cs.Name, err)
		}
		cfg := core.Config{}
		v := pathval.New()
		v.Install(&cfg)
		res := core.RunParallel(mod, cfg, 1)
		got := map[string]bool{}
		for _, b := range res.Bugs {
			pos := b.BugInstr.Position()
			got[truthKey(pos.File, pos.Line, b.Type)] = true
		}
		for _, exp := range cs.Expected {
			hit := false
			for d := -1; d <= 1; d++ {
				if got[truthKey(exp.File, exp.Line+d, exp.Type)] {
					hit = true
				}
			}
			if !hit {
				t.Errorf("%s (%s): expected %s at %s:%d not detected; got %v",
					cs.Name, cs.Figure, exp.Type, exp.File, exp.Line, got)
			}
		}
		if cs.Expected == nil && len(res.Bugs) > 0 {
			t.Errorf("%s (%s): expected no bugs, got %d", cs.Name, cs.Figure, len(res.Bugs))
		}
	}
}

func TestWithExtensions(t *testing.T) {
	spec := WithExtensions(LinuxSpec())
	c := Generate(spec)
	byType := map[typestate.BugType]int{}
	for _, g := range c.Truth {
		byType[g.Type]++
	}
	if byType[typestate.DL] != 4 || byType[typestate.AIU] != 5 || byType[typestate.DBZ] != 1 {
		t.Errorf("extension bug counts: %v", byType)
	}
}

func TestFigure11Proportions(t *testing.T) {
	// Seeded linux bugs should be ~75% in drivers; IoT bugs ~68% in
	// third-party — by construction, but guard the specs against drift.
	c := Generate(LinuxSpec())
	perCat := map[string]int{}
	for _, g := range c.Truth {
		perCat[g.Category]++
	}
	total := len(c.Truth)
	drivers := float64(perCat["drivers"]) / float64(total)
	if drivers < 0.65 || drivers > 0.85 {
		t.Errorf("drivers share = %.2f, want ~0.75", drivers)
	}

	iotTotal, iotThird := 0, 0
	for _, spec := range []OSSpec{ZephyrSpec(), RIOTSpec(), TencentSpec()} {
		ci := Generate(spec)
		for _, g := range ci.Truth {
			iotTotal++
			if g.Category == "thirdparty" {
				iotThird++
			}
		}
	}
	third := float64(iotThird) / float64(iotTotal)
	if third < 0.55 || third > 0.8 {
		t.Errorf("third-party share = %.2f, want ~0.68", third)
	}
}

func TestScaled(t *testing.T) {
	base := Generate(ZephyrSpec())
	big := Generate(Scaled(ZephyrSpec(), 4))
	if big.Lines < 3*base.Lines {
		t.Errorf("scaled corpus too small: %d vs %d", big.Lines, base.Lines)
	}
	if len(big.Truth) != 4*len(base.Truth) {
		t.Errorf("scaled truth = %d, want %d", len(big.Truth), 4*len(base.Truth))
	}
	if Scaled(ZephyrSpec(), 1).Seed != ZephyrSpec().Seed {
		t.Error("factor 1 must be identity")
	}
}

func TestBraceInitSuppressesUVA(t *testing.T) {
	// A zero-initialized struct local is not a UVA even field-sensitively.
	mod, err := minicc.LowerAll("m", map[string]string{"t.c": `
struct ctl { int a; int b; };
int f(void) {
	struct ctl c = {0};
	return c.a + c.b;
}`})
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	if len(res.Possible) != 0 {
		t.Errorf("brace-initialized struct flagged: %d candidates", len(res.Possible))
	}
}

func TestBugInstrIsLastPathStep(t *testing.T) {
	// Invariant: a candidate's bug instruction is the final step of its
	// witness path (the path is snapshotted at the transition).
	c := Generate(LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	if len(res.Possible) == 0 {
		t.Fatal("no candidates")
	}
	for _, pb := range res.Possible {
		if len(pb.Path) == 0 {
			t.Fatalf("empty path for %s", pb.Type)
		}
		last := pb.Path[len(pb.Path)-1].Instr
		if last.GID() != pb.BugInstr.GID() {
			t.Errorf("%s: last step %s != bug instr %s", pb.Type, last, pb.BugInstr)
		}
	}
}
