// Package exp implements the paper's experiments: each Table*/Fig* function
// regenerates one table or figure of the evaluation (§5–§6) on the
// synthetic corpora, printing the same rows the paper reports and returning
// the structured numbers for tests and benchmarks. cmd/patabench is a thin
// CLI over this package; bench_test.go wraps each experiment in a
// testing.B benchmark.
package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines/lint"
	"repro/internal/baselines/pointsto"
	"repro/internal/baselines/vfg"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// baseCtx is the context every experiment's engine runs under. It defaults
// to Background; cmd/patabench installs its signal context so Ctrl-C
// cancels the current experiment through the engine's cancellation path
// instead of requiring a hard kill mid-table.
var baseCtx = context.Background()

// SetBaseContext installs the context experiments run their engines under.
// Call before running experiments; not safe concurrently with them.
func SetBaseContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	baseCtx = ctx
}

// ToolRun is one tool's outcome on one corpus.
type ToolRun struct {
	Tool    string
	Reports []oscorpus.Report
	Score   oscorpus.Score
	Elapsed time.Duration
	// Stats is populated for engine-based tools.
	Stats core.Stats
}

// lowerCorpus parses and lowers a corpus once.
func lowerCorpus(c *oscorpus.Corpus) (*cir.Module, error) {
	return minicc.LowerAll(c.Spec.Name, c.Sources)
}

func bugReports(tool string, bugs []*core.Bug) []oscorpus.Report {
	var out []oscorpus.Report
	for _, b := range bugs {
		pos := b.BugInstr.Position()
		out = append(out, oscorpus.Report{Tool: tool, Type: b.Type, File: pos.File, Line: pos.Line})
	}
	return out
}

// RunPATA runs the full framework (or a configured variant) on a corpus
// through core.RunParallelCtx: Stage-1 workers taking entries from one
// shared cursor, then Stage-2 validation on the same workers. Findings and
// counters do not depend on the worker count — only the timers do.
// workers <= 0 selects GOMAXPROCS.
func RunPATA(c *oscorpus.Corpus, cfg core.Config, toolName string, workers int) (*ToolRun, error) {
	mod, err := lowerCorpus(c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := core.RunParallelCtx(baseCtx, mod, cfg, workers)
	tr := &ToolRun{
		Tool:    toolName,
		Reports: bugReports(toolName, res.Bugs),
		Elapsed: time.Since(start),
		Stats:   res.Stats,
	}
	tr.Score = oscorpus.Evaluate(c, tr.Reports)
	return tr, nil
}

// PATAConfig is the paper's main configuration (path-based alias analysis,
// NPD+UVA+ML, SMT validation).
func PATAConfig() core.Config {
	cfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&cfg)
	return cfg
}

// ThreadUnawareConfig is the paper-faithful variant whose UVA checker does
// not assume opaque callees initialize their arguments, reproducing the
// §5.2 concurrency false positives.
func ThreadUnawareConfig() core.Config {
	cfg := core.Config{Checkers: []typestate.Checker{
		typestate.NewNPD(), typestate.NewUVAThreadUnaware(), typestate.NewML(),
	}}
	pathval.New().Install(&cfg)
	return cfg
}

// NAConfig is PATA-NA (§5.4): same engine without alias relationships.
func NAConfig() core.Config {
	cfg := core.Config{Checkers: typestate.CoreCheckers(), Mode: core.ModeNoAlias}
	pathval.New().Install(&cfg)
	return cfg
}

// CSALikeConfig approximates the Clang Static Analyzer: path-sensitive with
// shallow inlining, per-variable (non-alias) tracking, and feasibility
// pruning — it drops constant-infeasible paths but keeps alias-dependent
// false positives and misses alias-chain bugs (§6 point 2).
func CSALikeConfig() core.Config {
	cfg := core.Config{
		Checkers:     typestate.CoreCheckers(),
		Mode:         core.ModeNoAlias,
		MaxCallDepth: 2,
	}
	pathval.New().Install(&cfg)
	return cfg
}

// InferLikeConfig approximates Facebook Infer: deeper interprocedural
// summaries but no per-path feasibility validation and no alias graph, so
// it reports the infeasible-path candidates CSA drops (§6: "Infer ... fails
// to handle some complex path conditions").
func InferLikeConfig() core.Config {
	return core.Config{
		Checkers:     typestate.CoreCheckers(),
		Mode:         core.ModeNoAlias,
		MaxCallDepth: 4,
	}
}

// RunLintTool runs one of the Cppcheck/Coccinelle/Smatch stand-ins.
func RunLintTool(c *oscorpus.Corpus, tool lint.Tool) (*ToolRun, error) {
	mod, err := lowerCorpus(c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	findings := lint.Run(tool, mod)
	tr := &ToolRun{Tool: tool.Name(), Elapsed: time.Since(start)}
	for _, f := range findings {
		pos := f.Instr.Position()
		tr.Reports = append(tr.Reports, oscorpus.Report{
			Tool: tool.Name(), Type: f.Type, File: pos.File, Line: pos.Line,
		})
	}
	tr.Score = oscorpus.Evaluate(c, tr.Reports)
	return tr, nil
}

// RunSVFNull runs the points-to-based NPD detector (§6's SVF-Null).
func RunSVFNull(c *oscorpus.Corpus) (*ToolRun, error) {
	mod, err := lowerCorpus(c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	analysis := pointsto.Run(mod)
	findings := pointsto.SVFNull(analysis)
	tr := &ToolRun{Tool: "svf-null", Elapsed: time.Since(start)}
	for _, f := range findings {
		pos := f.Instr.Position()
		tr.Reports = append(tr.Reports, oscorpus.Report{
			Tool: "svf-null", Type: typestate.NPD, File: pos.File, Line: pos.Line,
		})
	}
	tr.Score = oscorpus.Evaluate(c, tr.Reports)
	return tr, nil
}

// RunSaberLike runs the value-flow leak detector (§6's Saber).
func RunSaberLike(c *oscorpus.Corpus) (*ToolRun, error) {
	mod, err := lowerCorpus(c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	findings := vfg.Run(mod)
	tr := &ToolRun{Tool: "saber-like", Elapsed: time.Since(start)}
	for _, f := range findings {
		pos := f.Exit.Position()
		tr.Reports = append(tr.Reports, oscorpus.Report{
			Tool: "saber-like", Type: typestate.ML, File: pos.File, Line: pos.Line,
		})
	}
	tr.Score = oscorpus.Evaluate(c, tr.Reports)
	return tr, nil
}

// fmtDuration renders a duration like the paper's "33h01m" cells, at our
// scale "12ms".
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// counts renders the paper's "N (a/b/c)" cell for NPD/UVA/ML.
func counts(s oscorpus.Score, found bool) string {
	get := func(bt typestate.BugType) int {
		tc := s.ByType[bt]
		if tc == nil {
			return 0
		}
		if found {
			return tc.Found
		}
		return tc.Real
	}
	total := s.Real
	if found {
		total = s.Found
	}
	return fmt.Sprintf("%d (%d/%d/%d)", total,
		get(typestate.NPD), get(typestate.UVA), get(typestate.ML))
}
