// Package pata is a path-sensitive and alias-aware typestate analysis
// framework for detecting OS bugs, reproducing the ASPLOS '22 paper
// "Path-Sensitive and Alias-Aware Typestate Analysis for Detecting OS Bugs"
// (Li, Bai, Sui, Hu).
//
// The analysis runs in two stages. Stage 1 walks every control-flow path of
// every entry function (functions without explicit callers, such as driver
// interface functions), maintaining a per-path alias graph and running
// typestate checkers where all variables of one alias set share a single
// state. Stage 2 deduplicates candidate bugs and validates each candidate's
// path with an SMT solver, mapping each alias set to one SMT symbol.
//
// Quick start:
//
//	res, err := pata.AnalyzeSources("demo", map[string]string{"demo.c": src}, pata.Config{})
//	for _, b := range res.Bugs {
//		fmt.Printf("%s %s:%d in %s\n", b.Type, b.File, b.Line, b.Function)
//	}
//
// Input programs are written in mini-C, a C subset covering the OS-code
// patterns the analysis targets (structs, pointers, goto-based error
// handling, direct calls); see internal/minicc for the exact surface.
package pata

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/acache"
	"repro/internal/core"
	"repro/internal/pathval"
	"repro/internal/report"
	"repro/internal/typestate"
)

// Config selects checkers and analysis behaviour. The zero value runs the
// paper's main configuration: NPD+UVA+ML checkers, path-based aliasing, and
// SMT path validation.
type Config struct {
	// Checkers: any of "npd", "uva", "ml", "dl", "aiu", "dbz", "uaf"; nil
	// selects the paper's core trio (npd, uva, ml). "all" selects all
	// seven.
	Checkers []string
	// NoAlias switches to the paper's PATA-NA sensitivity variant (§5.4).
	NoAlias bool
	// SkipValidation disables Stage 2 (possible bugs are reported
	// unfiltered).
	SkipValidation bool
	// MaxCallDepth bounds interprocedural inlining (default 8).
	MaxCallDepth int
	// MaxPathsPerEntry bounds path enumeration per entry function
	// (default 4096).
	MaxPathsPerEntry int
	// MaxContinuationsPerCall is the P2 path-explosion mitigation
	// (default 2; -1 for unlimited).
	MaxContinuationsPerCall int
	// LoopUnroll is how many times loops/recursion are unrolled per path
	// (default 1, the paper's rule; higher values trade time for coverage
	// of multi-iteration bugs, §7).
	LoopUnroll int
	// Workers sets the analysis concurrency: N > 1 analyzes entry functions
	// with N concurrent engines and then validates the candidates with N
	// concurrent Stage-2 workers, 1 uses a single worker for both stages,
	// and 0 or negative (the default) selects GOMAXPROCS. Findings do not
	// depend on the worker count; only wall-clock changes. The same
	// convention holds everywhere a worker count appears (cmd flags,
	// core.RunParallel): <= 0 means GOMAXPROCS, 1 means one worker.
	Workers int
	// WitnessPaths renders each bug's witness path (source lines with
	// branch directions) into Bug.Witness.
	WitnessPaths bool
	// CacheDir, when non-empty, enables content-addressed incremental
	// analysis: per-entry results, Stage-2 verdicts included, persist in
	// this directory, one frame per entry in one append-only pack, keyed
	// by the fingerprints of every function the entry can reach plus the
	// analysis configuration. A warm re-run over unchanged sources
	// replays from the cache — the findings are byte-identical to a cold
	// run — and after an edit only entries that can reach a changed
	// function re-analyze. The directory is created if missing; corrupted
	// or stale frames silently fall back to cold analysis.
	CacheDir string
	// EntryTimeout bounds the wall-clock spent on a single entry function:
	// each Stage-1 exploration attempt, and the Stage-2 validation of the
	// entry's candidates as one group, under one deadline. An entry whose
	// exploration exceeds it is retried down the degrade ladder with
	// tighter budgets and, if still failing, reported in Result.Incomplete
	// instead of aborting the run; a Stage-2 group that exceeds it keeps
	// its undecided candidates. 0 means no per-entry deadline.
	EntryTimeout time.Duration
	// RunTimeout bounds the whole analysis; when it expires, entries not
	// yet finished are reported as cancelled in Result.Incomplete and the
	// findings so far are returned. 0 means no overall deadline.
	RunTimeout time.Duration
	// MaxRetries is how many degrade-ladder rungs a timed-out or panicking
	// entry is retried on (each rung shrinks the path/step budgets 8×,
	// deeper rungs also halve the inlining depth). 0 means the default of
	// one retry; negative disables retries.
	MaxRetries int
}

// Bug is one validated finding.
type Bug struct {
	// Type is "NPD", "UVA", "ML", "DL", "AIU" or "DBZ".
	Type string
	File string
	Line int
	// Function contains the buggy instruction; EntryFunction is the
	// analysis root whose path triggers it.
	Function      string
	EntryFunction string
	// Category is the OS part when the source carries one (corpus runs).
	Category string
	// PathSteps is the length of the witness path.
	PathSteps int
	// Validated is true when Stage-2 SMT validation confirmed feasibility.
	Validated bool
	// Trigger holds concrete input values driving the witness path (from
	// the Stage-2 solver model), e.g. "n = 6".
	Trigger []string
	// AliasSet holds the access paths of the affected alias class.
	AliasSet []string
	// Witness holds the rendered witness path when Config.WitnessPaths is
	// set.
	Witness []string
}

// Stats re-exports the engine counters (Table 5's metrics).
type Stats = core.Stats

// IncompleteEntry re-exports the engine's record of one entry function
// whose analysis stopped early (timeout, contained panic, budget trip, or
// cancellation).
type IncompleteEntry = core.IncompleteEntry

// Result of one analysis.
type Result struct {
	Bugs  []Bug
	Stats Stats
	// Incomplete lists entry functions whose analysis is partial. Findings
	// in Bugs are exact for every entry NOT listed here; for listed entries
	// the analysis is a lower bound (bugs may have been missed).
	Incomplete []IncompleteEntry
}

// CheckerNames lists the valid Config.Checkers values besides "all".
func CheckerNames() []string { return typestate.CheckerNames() }

func checkersFor(names []string) ([]typestate.Checker, error) {
	if len(names) == 0 {
		return typestate.CoreCheckers(), nil
	}
	if len(names) == 1 && names[0] == "all" {
		return typestate.AllCheckers(), nil
	}
	var out []typestate.Checker
	for _, n := range names {
		c, ok := typestate.ByName(n)
		if !ok {
			return nil, fmt.Errorf("pata: unknown checker %q (valid: %s, or \"all\")",
				n, strings.Join(CheckerNames(), ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// EngineConfig resolves the public configuration into the engine-level
// core.Config the scheduler consumes, for hosts that drive
// Program.Analyze or core.RunParallelCtx themselves (the patad daemon, the
// bench harness). It has no side effects: CacheDir is left for the caller
// to open, so a resident host owns its store's lifecycle.
func (c Config) EngineConfig() (core.Config, error) {
	checkers, err := checkersFor(c.Checkers)
	if err != nil {
		return core.Config{}, err
	}
	ec := core.Config{
		Checkers:                checkers,
		MaxCallDepth:            c.MaxCallDepth,
		MaxPathsPerEntry:        c.MaxPathsPerEntry,
		MaxContinuationsPerCall: c.MaxContinuationsPerCall,
		LoopUnroll:              c.LoopUnroll,
		EntryTimeout:            c.EntryTimeout,
		RunTimeout:              c.RunTimeout,
		MaxRetries:              c.MaxRetries,
	}
	if c.NoAlias {
		ec.Mode = core.ModeNoAlias
	}
	if !c.SkipValidation {
		pathval.New().Install(&ec)
	}
	return ec, nil
}

// AnalyzeSources analyzes a set of mini-C sources (file name → content) as
// one program.
func AnalyzeSources(name string, sources map[string]string, cfg Config) (*Result, error) {
	return AnalyzeSourcesCtx(context.Background(), name, sources, cfg)
}

// AnalyzeSourcesCtx is AnalyzeSources with a caller context: cancelling it
// (or its deadline expiring) stops the analysis at the next bounded unit of
// work and returns the partial result, with unfinished entries listed in
// Result.Incomplete as cancelled.
func AnalyzeSourcesCtx(ctx context.Context, name string, sources map[string]string, cfg Config) (*Result, error) {
	p, err := Load(name, sources)
	if err != nil {
		return nil, err
	}
	ec, err := cfg.EngineConfig()
	if err != nil {
		return nil, err
	}
	if store := cfg.OpenCache(os.Stderr); store != nil {
		defer store.Close() // appends need no flush: the next run reads the page cache
		ec.Cache = store
	}
	return p.Analyze(ctx, ec, cfg.Workers, cfg.WitnessPaths), nil
}

// OpenCache opens CacheDir as the capsule store. It returns nil when
// CacheDir is empty or unusable, warning on w in the latter case: the
// cache is a pure accelerator, and refusing to analyze because a disk
// path is read-only would be the wrong trade for a bug finder.
func (c Config) OpenCache(w io.Writer) *acache.Store {
	if c.CacheDir == "" {
		return nil
	}
	store, err := acache.Open(c.CacheDir, 0)
	if err != nil {
		fmt.Fprintf(w, "pata: cache disabled: %v\n", err)
		return nil
	}
	return store
}

// AnalyzeFilesCtx reads and analyzes the given mini-C files as one program;
// cancellation semantics are those of AnalyzeSourcesCtx.
func AnalyzeFilesCtx(ctx context.Context, paths []string, cfg Config) (*Result, error) {
	sources, err := ReadSources(paths)
	if err != nil {
		return nil, err
	}
	return AnalyzeSourcesCtx(ctx, "program", sources, cfg)
}

// AnalyzeDirCtx analyzes every .c file under dir (recursively) as one
// program; cancellation semantics are those of AnalyzeSourcesCtx.
func AnalyzeDirCtx(ctx context.Context, dir string, cfg Config) (*Result, error) {
	paths, err := SourcePaths(dir)
	if err != nil {
		return nil, err
	}
	return AnalyzeFilesCtx(ctx, paths, cfg)
}

// SourcePaths lists every .c file under dir (recursively), sorted — the
// file set AnalyzeDirCtx analyzes, exposed so long-lived callers (the patad
// daemon) can load the same corpus a CLI run would.
func SourcePaths(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".c") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pata: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("pata: no .c files under %s", dir)
	}
	sort.Strings(paths)
	return paths, nil
}

// ReadSources reads the given files into the source map AnalyzeSources
// consumes, keyed by path exactly as AnalyzeFilesCtx would (so reports from
// either entry point print identical file names).
func ReadSources(paths []string) (map[string]string, error) {
	sources := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("pata: %w", err)
		}
		sources[p] = string(data)
	}
	return sources, nil
}

// ConvertResult converts an engine-level result into the public Result,
// rendering witness paths when witness is set. Program.Analyze applies it,
// so hosts that run the engine directly render reports byte-identical to
// the library's.
func ConvertResult(res *core.Result, witness bool) *Result {
	out := &Result{Stats: res.Stats, Incomplete: res.Incomplete}
	for _, b := range core.SortedBugs(res.Bugs) {
		pos := b.BugInstr.Position()
		pb := Bug{
			Type:          string(b.Type),
			File:          pos.File,
			Line:          pos.Line,
			Function:      b.InFn,
			EntryFunction: b.EntryFn,
			Category:      b.Category,
			PathSteps:     len(b.Path),
			Validated:     b.Validated,
			Trigger:       b.Trigger,
			AliasSet:      b.AliasSet,
		}
		if witness {
			var sb strings.Builder
			report.WritePath(&sb, b)
			for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
				pb.Witness = append(pb.Witness, strings.TrimSpace(line))
			}
		}
		out.Bugs = append(out.Bugs, pb)
	}
	return out
}

// String renders a compact report.
func (r *Result) String() string {
	var b strings.Builder
	for i, bug := range r.Bugs {
		fmt.Fprintf(&b, "[%d] %s at %s:%d in %s() (entry %s, %d path steps",
			i+1, bug.Type, bug.File, bug.Line, bug.Function, bug.EntryFunction, bug.PathSteps)
		if bug.Validated {
			b.WriteString(", validated")
		}
		b.WriteString(")\n")
	}
	report.WriteIncomplete(&b, r.Incomplete)
	fmt.Fprintf(&b, "%d bugs; %d entries, %d paths, %d typestates, %d repeated dropped, %d false dropped\n",
		len(r.Bugs), r.Stats.EntryFunctions, r.Stats.PathsExplored,
		r.Stats.Typestates, r.Stats.RepeatedDropped, r.Stats.FalseDropped)
	return b.String()
}

// Report renders the text report cmd/pata prints and a patad analyze
// response carries (without the CLI's -witness and -stats trailers):
// String's listing, or, when there are no bugs, "no bugs found" followed
// by any incomplete-analysis section.
func (r *Result) Report() string {
	if len(r.Bugs) > 0 {
		return r.String()
	}
	var b strings.Builder
	b.WriteString("no bugs found\n")
	report.WriteIncomplete(&b, r.Incomplete)
	return b.String()
}

// AnalyzeSourcesWithPairs analyzes sources with the configurable
// API-pairing checkers (typestate.CommonPairRules) instead of the default
// trio — the §7 "API-rule checking" application.
func AnalyzeSourcesWithPairs(name string, sources map[string]string) (*Result, error) {
	p, err := Load(name, sources)
	if err != nil {
		return nil, err
	}
	var checkers []typestate.Checker
	for _, r := range typestate.CommonPairRules() {
		checkers = append(checkers, typestate.NewPair(r))
	}
	ec := core.Config{Checkers: checkers}
	pathval.New().Install(&ec)
	return p.Analyze(context.Background(), ec, 1, false), nil
}
