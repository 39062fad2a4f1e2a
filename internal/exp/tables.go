package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/baselines/lint"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/report"
	"repro/internal/typestate"
)

// Corpora generates the four OS corpora of Table 4.
func Corpora() []*oscorpus.Corpus {
	var out []*oscorpus.Corpus
	for _, spec := range oscorpus.AllSpecs() {
		out = append(out, oscorpus.Generate(spec))
	}
	return out
}

// Table4Row is one checked-OS info row.
type Table4Row struct {
	OS      string
	Version string
	Files   int
	Lines   int
}

// Table4 reproduces "Information about the four checked OSes".
func Table4(w io.Writer) []Table4Row {
	var rows []Table4Row
	t := &report.Table{Header: []string{"OS", "Version", "Source files (*.c)", "LOC"}}
	for _, c := range Corpora() {
		r := Table4Row{OS: c.Spec.Name, Version: c.Spec.Version, Files: c.Files(), Lines: c.Lines}
		rows = append(rows, r)
		t.AddRow(r.OS, r.Version, fmt.Sprintf("%d", r.Files), fmt.Sprintf("%d", r.Lines))
	}
	fmt.Fprintln(w, "Table 4: Information about the four checked OSes (synthetic, scaled)")
	t.Write(w)
	return rows
}

// Table5Row is one OS column of Table 5.
type Table5Row struct {
	OS    string
	Run   *ToolRun
	Lines int
	Files int
}

// Table5 reproduces "Analysis results of the four OSes": code-analysis cost
// counters (typestates and SMT constraints, alias-aware vs unaware),
// bug-filtering counters (dropped repeated/false bugs) and found/real bugs
// per type. The runs go through the pipelined parallel scheduler, so the
// time-usage row reflects the overlapped two-stage pipeline. On-the-fly
// pruning is disabled for this table: the paper's tool filters infeasible
// candidates only in Stage 2, and the "dropped false bugs" row counts
// exactly those Stage-2 drops (the default pruning would intercept most of
// them during Stage 1 — PruningTable reports that effect).
func Table5(w io.Writer) ([]Table5Row, error) {
	var rows []Table5Row
	for _, c := range Corpora() {
		cfg := PATAConfig()
		cfg.NoPrune = true
		cfg.NoMemo = true
		run, err := RunPATAPipelined(c, cfg, "pata", 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{OS: c.Spec.Name, Run: run, Lines: c.Lines, Files: c.Files()})
	}
	fmt.Fprintln(w, "Table 5: Analysis results of the four OSes")
	t := &report.Table{Header: []string{"Description"}}
	for _, r := range rows {
		t.Header = append(t.Header, r.OS)
	}
	t.Header = append(t.Header, "Total")

	addRow := func(name string, get func(r Table5Row) string, total func() string) {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, get(r))
		}
		cells = append(cells, total())
		t.AddRow(cells...)
	}
	sumI := func(get func(r Table5Row) int64) int64 {
		var s int64
		for _, r := range rows {
			s += get(r)
		}
		return s
	}
	addRow("Source files",
		func(r Table5Row) string { return fmt.Sprintf("%d", r.Files) },
		func() string { return fmt.Sprintf("%d", sumI(func(r Table5Row) int64 { return int64(r.Files) })) })
	addRow("Source code lines",
		func(r Table5Row) string { return fmt.Sprintf("%d", r.Lines) },
		func() string { return fmt.Sprintf("%d", sumI(func(r Table5Row) int64 { return int64(r.Lines) })) })
	addRow("Typestates (aware/unaware)",
		func(r Table5Row) string {
			return fmt.Sprintf("%d/%d", r.Run.Stats.Typestates, r.Run.Stats.TypestatesUnaware)
		},
		func() string {
			return fmt.Sprintf("%d/%d",
				sumI(func(r Table5Row) int64 { return r.Run.Stats.Typestates }),
				sumI(func(r Table5Row) int64 { return r.Run.Stats.TypestatesUnaware }))
		})
	addRow("SMT constraints (aware/unaware)",
		func(r Table5Row) string {
			return fmt.Sprintf("%d/%d", r.Run.Stats.Constraints, r.Run.Stats.ConstraintsUnaware)
		},
		func() string {
			return fmt.Sprintf("%d/%d",
				sumI(func(r Table5Row) int64 { return r.Run.Stats.Constraints }),
				sumI(func(r Table5Row) int64 { return r.Run.Stats.ConstraintsUnaware }))
		})
	addRow("Dropped repeated bugs",
		func(r Table5Row) string { return fmt.Sprintf("%d", r.Run.Stats.RepeatedDropped) },
		func() string {
			return fmt.Sprintf("%d", sumI(func(r Table5Row) int64 { return r.Run.Stats.RepeatedDropped }))
		})
	addRow("Dropped false bugs",
		func(r Table5Row) string { return fmt.Sprintf("%d", r.Run.Stats.FalseDropped) },
		func() string {
			return fmt.Sprintf("%d", sumI(func(r Table5Row) int64 { return r.Run.Stats.FalseDropped }))
		})
	addRow("Verdict cache (hits/misses)",
		func(r Table5Row) string {
			return fmt.Sprintf("%d/%d", r.Run.Stats.ValidationCacheHits, r.Run.Stats.ValidationCacheMisses)
		},
		func() string {
			return fmt.Sprintf("%d/%d",
				sumI(func(r Table5Row) int64 { return r.Run.Stats.ValidationCacheHits }),
				sumI(func(r Table5Row) int64 { return r.Run.Stats.ValidationCacheMisses }))
		})
	addRow("Found bugs (NPD/UVA/ML)",
		func(r Table5Row) string { return counts(r.Run.Score, true) },
		func() string { return "" })
	addRow("Real bugs (NPD/UVA/ML)",
		func(r Table5Row) string { return counts(r.Run.Score, false) },
		func() string { return "" })
	addRow("Time usage",
		func(r Table5Row) string { return fmtDuration(r.Run.Elapsed) },
		func() string { return "" })
	addRow("Stage wall-clock (S1/S2 tail)",
		func(r Table5Row) string {
			return fmt.Sprintf("%s/%s", fmtDuration(r.Run.Stats.AnalysisTime), fmtDuration(r.Run.Stats.ValidationTime))
		},
		func() string { return "" })
	t.Write(w)

	var found, real int
	for _, r := range rows {
		found += r.Run.Score.Found
		real += r.Run.Score.Real
	}
	if found > 0 {
		fmt.Fprintf(w, "Overall: %d found, %d real, false positive rate %.0f%% (paper: 797 found, 574 real, 28%%)\n",
			found, real, 100*float64(found-real)/float64(found))
	}
	return rows, nil
}

// PruningRow compares one corpus analyzed with and without the Stage-1
// on-the-fly pruning and memoization.
type PruningRow struct {
	OS  string
	On  *ToolRun // defaults: incremental feasibility pruning + memoization
	Off *ToolRun // -no-prune -no-memo
}

// PruningTable quantifies the on-the-fly path pruning: for each corpus it
// runs the default engine (incremental feasibility cursor + (block, state)
// memoization) and the disabled variant, and reports the explored
// paths/steps, the pruned-branch and memo-hit counters, and the found bugs
// — which must match exactly, since pruning only discards work Stage-2
// validation would reject.
func PruningTable(w io.Writer) ([]PruningRow, error) {
	var rows []PruningRow
	for _, c := range Corpora() {
		on, err := RunPATA(c, PATAConfig(), "pata")
		if err != nil {
			return nil, err
		}
		cfg := PATAConfig()
		cfg.NoPrune = true
		cfg.NoMemo = true
		off, err := RunPATA(c, cfg, "pata-noprune")
		if err != nil {
			return nil, err
		}
		rows = append(rows, PruningRow{OS: c.Spec.Name, On: on, Off: off})
	}
	fmt.Fprintln(w, "On-the-fly pruning effect (defaults vs -no-prune -no-memo)")
	t := &report.Table{Header: []string{
		"OS", "Paths (on/off)", "Steps (on/off)", "Pruned branches",
		"Memo hits (paths skipped)", "Found bugs (on/off)", "Time (on/off)",
	}}
	var pOn, pOff int64
	for _, r := range rows {
		pOn += r.On.Stats.PathsExplored
		pOff += r.Off.Stats.PathsExplored
		t.AddRow(r.OS,
			fmt.Sprintf("%d/%d", r.On.Stats.PathsExplored, r.Off.Stats.PathsExplored),
			fmt.Sprintf("%d/%d", r.On.Stats.StepsExecuted, r.Off.Stats.StepsExecuted),
			fmt.Sprintf("%d", r.On.Stats.PrunedBranches),
			fmt.Sprintf("%d (%d)", r.On.Stats.MemoHits, r.On.Stats.MemoPathsSkipped),
			fmt.Sprintf("%d/%d", r.On.Score.Found, r.Off.Score.Found),
			fmt.Sprintf("%s/%s", fmtDuration(r.On.Elapsed), fmtDuration(r.Off.Elapsed)))
	}
	t.Write(w)
	if pOff > 0 {
		fmt.Fprintf(w, "Overall: %d paths with pruning, %d without (%.0f%% reduction)\n",
			pOn, pOff, 100*float64(pOff-pOn)/float64(pOff))
	}
	return rows, nil
}

// Fig11Bucket is one slice of the Figure 11 pie.
type Fig11Bucket struct {
	Group    string
	Category string
	Real     int
	Share    float64
}

// Fig11 reproduces "Distribution of the found bugs": real bugs per OS part
// for (a) the Linux-like corpus and (b) the three IoT corpora combined.
func Fig11(w io.Writer) ([]Fig11Bucket, error) {
	var out []Fig11Bucket
	collect := func(group string, corpora []*oscorpus.Corpus) error {
		perCat := map[string]int{}
		total := 0
		for _, c := range corpora {
			run, err := RunPATA(c, PATAConfig(), "pata")
			if err != nil {
				return err
			}
			for cat, n := range run.Score.RealByCategory {
				perCat[cat] += n
				total += n
			}
		}
		cats := make([]string, 0, len(perCat))
		for cat := range perCat {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			share := 0.0
			if total > 0 {
				share = 100 * float64(perCat[cat]) / float64(total)
			}
			out = append(out, Fig11Bucket{Group: group, Category: cat, Real: perCat[cat], Share: share})
		}
		return nil
	}
	all := Corpora()
	if err := collect("linux", all[:1]); err != nil {
		return nil, err
	}
	if err := collect("iot", all[1:]); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 11: Distribution of the found real bugs")
	t := &report.Table{Header: []string{"Group", "Category", "Real bugs", "Share"}}
	for _, b := range out {
		t.AddRow(b.Group, b.Category, fmt.Sprintf("%d", b.Real), fmt.Sprintf("%.0f%%", b.Share))
	}
	t.Write(w)
	fmt.Fprintln(w, "(paper: Linux drivers 75%; IoT third-party 68%)")
	return out, nil
}

// Table6Row is one column of the sensitivity study.
type Table6Row struct {
	Variant string
	Run     *ToolRun
}

// Table6 reproduces the PATA vs PATA-NA sensitivity analysis on the
// Linux-like corpus. Both variants run through the pipelined scheduler.
func Table6(w io.Writer) ([]Table6Row, error) {
	c := Corpora()[0]
	na, err := RunPATAPipelined(c, NAConfig(), "pata-na", 0)
	if err != nil {
		return nil, err
	}
	full, err := RunPATAPipelined(c, PATAConfig(), "pata", 0)
	if err != nil {
		return nil, err
	}
	rows := []Table6Row{{Variant: "PATA-NA", Run: na}, {Variant: "PATA", Run: full}}
	fmt.Fprintln(w, "Table 6: Sensitivity analysis results in Linux(-like)")
	t := &report.Table{Header: []string{"Description", "PATA-NA", "PATA"}}
	t.AddRow("Found bugs (NPD/UVA/ML)", counts(na.Score, true), counts(full.Score, true))
	t.AddRow("Real bugs (NPD/UVA/ML)", counts(na.Score, false), counts(full.Score, false))
	t.AddRow("False positive rate",
		fmt.Sprintf("%.0f%%", na.Score.FPRate()), fmt.Sprintf("%.0f%%", full.Score.FPRate()))
	t.AddRow("Verdict cache (hits/misses)",
		fmt.Sprintf("%d/%d", na.Stats.ValidationCacheHits, na.Stats.ValidationCacheMisses),
		fmt.Sprintf("%d/%d", full.Stats.ValidationCacheHits, full.Stats.ValidationCacheMisses))
	t.AddRow("Time usage", fmtDuration(na.Elapsed), fmtDuration(full.Elapsed))
	t.Write(w)
	fmt.Fprintln(w, "(paper: PATA-NA 620 found/194 real/69% FP; PATA 627/454/28%)")
	return rows, nil
}

// Table7Row is one extension-checker row.
type Table7Row struct {
	BugType typestate.BugType
	Found   int
	Real    int
}

// Table7 reproduces the three additional checkers (double lock/unlock,
// array index underflow, division by zero) on the Linux-like corpus.
func Table7(w io.Writer) ([]Table7Row, error) {
	spec := oscorpus.WithExtensions(oscorpus.LinuxSpec())
	c := oscorpus.Generate(spec)
	cfg := core.Config{Checkers: []typestate.Checker{
		typestate.NewDL(), typestate.NewAIU(), typestate.NewDBZ(),
	}}
	pv := PATAConfig()
	cfg.ValidatePath = pv.ValidatePath
	cfg.Validate = true
	run, err := RunPATA(c, cfg, "pata-ext")
	if err != nil {
		return nil, err
	}
	var rows []Table7Row
	for _, bt := range []typestate.BugType{typestate.DL, typestate.AIU, typestate.DBZ} {
		tc := run.Score.ByType[bt]
		if tc == nil {
			tc = &oscorpus.TypeCounts{}
		}
		rows = append(rows, Table7Row{BugType: bt, Found: tc.Found, Real: tc.Real})
	}
	fmt.Fprintln(w, "Table 7: Bugs found by three additional checkers in Linux(-like)")
	t := &report.Table{Header: []string{"Bug type", "Found bugs", "Real bugs"}}
	totalF, totalR := 0, 0
	for _, r := range rows {
		t.AddRow(string(r.BugType), fmt.Sprintf("%d", r.Found), fmt.Sprintf("%d", r.Real))
		totalF += r.Found
		totalR += r.Real
	}
	t.AddRow("Total", fmt.Sprintf("%d", totalF), fmt.Sprintf("%d", totalR))
	t.Write(w)
	fmt.Fprintln(w, "(paper: 52 found, 43 real — 18 DL / 20 AIU / 5 DBZ)")
	return rows, nil
}

// Table8Cell is one (tool, OS) outcome.
type Table8Cell struct {
	OS   string
	Tool string
	Run  *ToolRun
}

// Table8 reproduces the comparison against the seven baseline approaches on
// all four corpora.
func Table8(w io.Writer) ([]Table8Cell, error) {
	var cells []Table8Cell
	for _, c := range Corpora() {
		type namedRun struct {
			name string
			run  func() (*ToolRun, error)
		}
		runs := []namedRun{
			{"cppcheck", func() (*ToolRun, error) { return RunLintTool(c, lint.Cppcheck{}) }},
			{"coccinelle", func() (*ToolRun, error) { return RunLintTool(c, lint.Coccinelle{}) }},
			{"smatch", func() (*ToolRun, error) { return RunLintTool(c, lint.Smatch{}) }},
			{"csa-like", func() (*ToolRun, error) { return RunPATA(c, CSALikeConfig(), "csa-like") }},
			{"infer-like", func() (*ToolRun, error) { return RunPATA(c, InferLikeConfig(), "infer-like") }},
			{"saber-like", RunSaberLikeFor(c)},
			{"svf-null", RunSVFNullFor(c)},
			{"pata", func() (*ToolRun, error) { return RunPATA(c, PATAConfig(), "pata") }},
		}
		for _, nr := range runs {
			run, err := nr.run()
			if err != nil {
				return nil, err
			}
			cells = append(cells, Table8Cell{OS: c.Spec.Name, Tool: nr.name, Run: run})
		}
	}
	fmt.Fprintln(w, "Table 8: Comparison results of the four OSes")
	t := &report.Table{Header: []string{"OS", "Tool", "Found", "Real", "FP rate", "Time"}}
	for _, cell := range cells {
		t.AddRow(cell.OS, cell.Tool,
			counts(cell.Run.Score, true), counts(cell.Run.Score, false),
			fmt.Sprintf("%.0f%%", cell.Run.Score.FPRate()), fmtDuration(cell.Run.Elapsed))
	}
	t.Write(w)
	return cells, nil
}

// RunSaberLikeFor adapts RunSaberLike to the Table 8 runner shape.
func RunSaberLikeFor(c *oscorpus.Corpus) func() (*ToolRun, error) {
	return func() (*ToolRun, error) { return RunSaberLike(c) }
}

// RunSVFNullFor adapts RunSVFNull to the Table 8 runner shape.
func RunSVFNullFor(c *oscorpus.Corpus) func() (*ToolRun, error) {
	return func() (*ToolRun, error) { return RunSVFNull(c) }
}

// FPAuditRow classifies one FP cause.
type FPAuditRow struct {
	Variant   string
	Mechanism string
	Count     int
}

// FPAudit reproduces the §5.2 false-positive cause analysis for PATA across
// all corpora, in two configurations: the default (conservative about
// opaque callees) shows causes 1 and 2 (array insensitivity, complex
// conditions); the paper-faithful thread-unaware variant adds cause 3
// (concurrency). Guarded/fig9 traps must NOT appear in either.
func FPAudit(w io.Writer) ([]FPAuditRow, error) {
	variants := []struct {
		name string
		cfg  func() core.Config
	}{
		{"default", PATAConfig},
		{"thread-unaware", ThreadUnawareConfig},
	}
	var rows []FPAuditRow
	fmt.Fprintln(w, "False-positive audit (§5.2): PATA FPs by cause")
	t := &report.Table{Header: []string{"Variant", "Cause", "FPs"}}
	for _, v := range variants {
		totals := map[string]int{}
		for _, c := range Corpora() {
			run, err := RunPATA(c, v.cfg(), "pata")
			if err != nil {
				return nil, err
			}
			for m, n := range run.Score.FPByMechanism {
				totals[m] += n
			}
		}
		mechs := make([]string, 0, len(totals))
		for m := range totals {
			mechs = append(mechs, m)
		}
		sort.Strings(mechs)
		for _, m := range mechs {
			rows = append(rows, FPAuditRow{Variant: v.name, Mechanism: m, Count: totals[m]})
			t.AddRow(v.name, m, fmt.Sprintf("%d", totals[m]))
		}
	}
	t.Write(w)
	fmt.Fprintln(w, "(paper causes: array insensitivity, complex conditions, concurrency)")
	return rows, nil
}

// CaseResult is one paper case-study outcome.
type CaseResult struct {
	Name     string
	Figure   string
	Expected int
	Detected int
	Spurious int
}

// Cases runs the curated Figure 1/3/9/12 snippets end to end.
func Cases(w io.Writer) ([]CaseResult, error) {
	var rows []CaseResult
	fmt.Fprintln(w, "Case studies (Figures 1, 3, 9, 12a-d)")
	t := &report.Table{Header: []string{"Case", "Figure", "Expected", "Detected", "Spurious"}}
	for _, cs := range oscorpus.PaperCases() {
		mod, err := minicc.LowerAll(cs.Name, cs.Sources)
		if err != nil {
			return nil, err
		}
		res := core.NewEngine(mod, PATAConfig()).RunCtx(baseCtx)
		detected, spurious := 0, 0
		for _, b := range res.Bugs {
			pos := b.BugInstr.Position()
			hit := false
			for _, exp := range cs.Expected {
				if exp.File == pos.File && exp.Type == b.Type && absInt(exp.Line-pos.Line) <= 1 {
					hit = true
				}
			}
			if hit {
				detected++
			} else {
				spurious++
			}
		}
		// Count distinct expected hits.
		distinct := 0
		for _, exp := range cs.Expected {
			for _, b := range res.Bugs {
				pos := b.BugInstr.Position()
				if exp.File == pos.File && exp.Type == b.Type && absInt(exp.Line-pos.Line) <= 1 {
					distinct++
					break
				}
			}
		}
		rows = append(rows, CaseResult{
			Name: cs.Name, Figure: cs.Figure,
			Expected: len(cs.Expected), Detected: distinct, Spurious: spurious,
		})
		t.AddRow(cs.Name, cs.Figure, fmt.Sprintf("%d", len(cs.Expected)),
			fmt.Sprintf("%d", distinct), fmt.Sprintf("%d", spurious))
	}
	t.Write(w)
	return rows, nil
}

// FSMs prints the Table 2 state machines.
func FSMs(w io.Writer) {
	fmt.Fprintln(w, "Table 2: FSMs of the six checkers")
	for _, c := range typestate.AllCheckers() {
		fsm := c.FSM()
		fmt.Fprintf(w, "%s (%s): initial=%s bug=%s\n", fsm.Name, c.Name(), fsm.Initial, fsm.Bug)
		states := make([]string, 0, len(fsm.Transitions))
		for s := range fsm.Transitions {
			states = append(states, string(s))
		}
		sort.Strings(states)
		for _, s := range states {
			evs := fsm.Transitions[typestate.State(s)]
			names := make([]string, 0, len(evs))
			for e := range evs {
				names = append(names, string(e))
			}
			sort.Strings(names)
			for _, e := range names {
				fmt.Fprintf(w, "  %s --%s--> %s\n", s, e, evs[typestate.Event(e)])
			}
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ExtensionsRow is one row of the repo-extension experiment.
type ExtensionsRow struct {
	BugType typestate.BugType
	Found   int
	Real    int
}

// Extensions runs this repository's extension checkers — use-after-free and
// the configurable API-pairing rules — on a linux-like corpus seeded with
// their bug patterns. No paper counterpart; it demonstrates the framework
// generality claim beyond the §5.5 set.
func Extensions(w io.Writer) ([]ExtensionsRow, error) {
	spec := oscorpus.WithRepoExtensions(oscorpus.LinuxSpec())
	c := oscorpus.Generate(spec)
	var checkers []typestate.Checker
	checkers = append(checkers, typestate.NewUAF())
	for _, r := range typestate.CommonPairRules() {
		checkers = append(checkers, typestate.NewPair(r))
	}
	cfg := core.Config{Checkers: checkers}
	base := PATAConfig()
	cfg.ValidatePath = base.ValidatePath
	cfg.Validate = true
	run, err := RunPATA(c, cfg, "pata-repo-ext")
	if err != nil {
		return nil, err
	}
	var rows []ExtensionsRow
	fmt.Fprintln(w, "Extension checkers (beyond the paper): UAF and API pairing on Linux(-like)")
	t := &report.Table{Header: []string{"Bug type", "Found", "Real", "Seeded"}}
	seeded := map[typestate.BugType]int{}
	for _, g := range c.Truth {
		seeded[g.Type]++
	}
	for _, bt := range []typestate.BugType{typestate.UAF, typestate.API} {
		tc := run.Score.ByType[bt]
		if tc == nil {
			tc = &oscorpus.TypeCounts{}
		}
		rows = append(rows, ExtensionsRow{BugType: bt, Found: tc.Found, Real: tc.Real})
		t.AddRow(string(bt), fmt.Sprintf("%d", tc.Found), fmt.Sprintf("%d", tc.Real),
			fmt.Sprintf("%d", seeded[bt]))
	}
	t.Write(w)
	return rows, nil
}
