// Package core implements PATA's analysis engine: the path-based DFS of
// Figure 6 that simultaneously maintains the alias graph (path-based alias
// analysis, §3.1) and runs the alias-aware typestate checkers (§3.2), the
// Stage-2 bug filter (repeated-bug deduplication plus alias-aware path
// validation, §3.3/§4), and the PATA-NA alias-unaware variant used by the
// paper's sensitivity study (§5.4).
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/aliasgraph"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/hmix"
	"repro/internal/smt"
	"repro/internal/typestate"
)

// Mode selects the alias treatment.
type Mode int

// Analysis modes.
const (
	// ModePATA runs the full path-based alias analysis.
	ModePATA Mode = iota
	// ModeNoAlias is the paper's PATA-NA: aliasing is tracked only through
	// direct register moves and direct local-slot load/store pairs; flows
	// through fields and pointer-typed memory are invisible, and path
	// validation maps every variable to its own symbol.
	ModeNoAlias
)

// Config tunes the engine.
type Config struct {
	// Checkers to run; defaults to typestate.CoreCheckers (NPD, UVA, ML).
	Checkers []typestate.Checker
	// Intrinsics classifies allocators/locks; defaults to
	// typestate.DefaultIntrinsics.
	Intrinsics *typestate.Intrinsics
	// Mode selects PATA or PATA-NA.
	Mode Mode
	// MaxCallDepth bounds inlining depth (default 8).
	MaxCallDepth int
	// MaxPathsPerEntry bounds complete paths per entry function.
	// 0 selects the default (4096); any negative value means unlimited.
	MaxPathsPerEntry int
	// MaxStepsPerEntry bounds executed instructions per entry function.
	// 0 selects the default (1,000,000); any negative value means
	// unlimited.
	MaxStepsPerEntry int
	// MaxContinuationsPerCall bounds how many callee paths continue into
	// the caller per call-site activation — the paper's P2 "combine the
	// information of its code paths [at return] to mitigate path
	// explosion". 0 selects the default (2); any negative value means
	// unlimited.
	MaxContinuationsPerCall int
	// LoopUnroll is how many times an instruction may appear on one path
	// (default 1, the paper's unroll-each-loop-once rule, §3.1). A value K
	// lets a path complete K-1 loop iterations and still evaluate the exit
	// condition. Raising it implements the §7 future-work direction:
	// bugs whose trigger needs several iterations become reachable, at a
	// path-count cost.
	LoopUnroll int
	// NoPrune disables the on-the-fly feasibility pruning: by default the
	// Stage-1 DFS carries an incremental constraint cursor and skips a
	// branch subtree as soon as the accumulated path condition becomes
	// provably unsatisfiable. Pruning only discards paths Stage-2
	// validation would reject, so the post-validation bug set is
	// unaffected. Active only in ModePATA and when Trace is nil.
	NoPrune bool
	// NoMemo disables the (block, state) memoization: by default the DFS
	// fingerprints the alias graph, the typestate tracker, the pending
	// path constraints, and the call stack at every basic-block entry,
	// and skips subtrees whose configuration repeats an already fully
	// explored, emission-free one. Active only in ModePATA and when
	// Trace is nil.
	NoMemo bool
	// NoAdaptive disables the per-entry adaptive size gate: by default the
	// engine sizes up each entry's call-graph closure before exploring it
	// and runs small entries with pruning and memoization off, since their
	// full exploration is cheaper than the layers' bookkeeping. The gate
	// reads only static closure sizes, and each layer is individually
	// report-preserving, so the report is byte-identical with the gate on
	// or off, sequentially and in parallel. Active only in ModePATA and when
	// Trace is nil.
	NoAdaptive bool
	// Validate enables Stage-2 path validation (default true). The
	// ValidatePath hook is installed by the pathval package (or a custom
	// validator); when nil, validation is skipped.
	Validate bool
	// ValidatePath decides a candidate bug's path feasibility; it returns
	// false when the path is proven infeasible (the bug is dropped). The
	// counts it returns feed the Table 5 constraint statistics. The
	// context carries the run's cancellation and, when EntryTimeout is
	// set, a per-candidate deadline; an implementation that cannot finish
	// in time must return a conservative verdict (Feasible) with TimedOut
	// set rather than block.
	ValidatePath func(ctx context.Context, bug *PossibleBug, mode Mode) ValidationOutcome
	// ValidateBatch, when set, validates a group of candidates from ONE
	// entry function in a single call (installed by pathval alongside
	// ValidatePath). The engine hands it contiguous same-entry candidate
	// runs so a batched validator can share path-condition prefixes across
	// the group; outcomes are positionally parallel to the input. The
	// verdicts must be identical to calling ValidatePath per candidate —
	// batching is a scheduling optimization, not a semantics change.
	ValidateBatch func(ctx context.Context, bugs []*PossibleBug, mode Mode) []ValidationOutcome
	// NoBatchValidate forces per-candidate validation even when a batch
	// hook is installed. Scheduling-only knob: the validated bug set is
	// identical either way (excluded from the incremental-cache salt).
	NoBatchValidate bool
	// ValidateBackend names the Stage-2 decision backend the installed
	// validator uses ("" or "builtin" = in-process solver). The engine does
	// not interpret it, but it IS part of the analysis semantics — an
	// external solver may refute more paths — so it is salted into the
	// incremental cache key.
	ValidateBackend string
	// ValidateWorkers sets how many concurrent Stage-2 validation workers
	// RunParallel's pipelined scheduler uses (<= 0 selects GOMAXPROCS).
	// With more than one worker the ValidatePath hook is called
	// concurrently and must be safe for concurrent use (pathval's
	// Validator is). The sequential Engine.Run ignores this field.
	ValidateWorkers int
	// Cache, when set, enables content-addressed incremental analysis:
	// RunParallel keys each entry function by the fingerprints of every
	// reachable function plus the analysis-relevant configuration (see
	// analysisSalt), replays cached per-entry results on key hits, and
	// stores freshly computed ones on misses. Stage-2 verdicts are cached
	// the same way. The sequential Engine.Run ignores this field;
	// AnalyzeSources routes to RunParallel whenever a cache is configured.
	Cache EntryCache
	// EntryTimeout bounds the wall-clock of one entry function's Stage-1
	// DFS attempt and of each candidate's Stage-2 validation (<= 0 means
	// no deadline). The DFS polls the deadline at a bounded step cadence;
	// an entry that trips it is retried down the degrade ladder (see
	// MaxRetries; RunParallel only) and recorded in Result.Incomplete.
	EntryTimeout time.Duration
	// RunTimeout bounds the whole run's wall-clock (<= 0 means none). On
	// expiry, in-flight entries stop at their next poll and entries not
	// yet started are recorded as incomplete with reason "cancelled".
	RunTimeout time.Duration
	// MaxRetries is how many degrade-ladder rungs a timed-out or panicked
	// entry is retried on before its incomplete record goes out with no
	// completed attempt: rung r shrinks the path/step budgets 8× per rung,
	// and from rung 2 on also halves MaxCallDepth (see Config.degradeRung).
	// 0 selects the default (1 retry); negative disables retries. Only
	// RunParallel walks the ladder — retries need a pristine engine per
	// attempt — but the sequential engine still contains panics and
	// honors deadlines.
	MaxRetries int
	// FaultHook, when set, injects a test-only fault for an (entry, rung)
	// attempt; returning nil means no fault. It exists to make every
	// failure path deterministically testable and must never be set in
	// production configs (its presence is salted into the incremental
	// cache key, so test runs cannot pollute real caches).
	FaultHook func(entry string, rung int) *FaultSpec
	// Trace, when set, observes every executed instruction with the alias
	// graph as updated for it (Figure 6 line 30). For debugging and for
	// tests that assert the paper's worked examples (Figure 7).
	Trace func(in cir.Instr, g *aliasgraph.Graph)
}

// ValidationOutcome reports one path validation.
type ValidationOutcome struct {
	Feasible           bool
	Constraints        int64 // alias-aware constraint count
	ConstraintsUnaware int64 // per-variable encoding count (Figure 9b)
	// Trigger holds candidate concrete values ("q = 0") that drive the
	// feasible witness path, extracted from the solver model.
	Trigger []string
	// CacheHits/CacheMisses count verdict-cache lookups this validation
	// performed (zero when the validator has no cache); CacheEvictions
	// counts verdict-cache entries its inserts pushed out of the LRU bound.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// Batching counters. BatchedSolves is set when the verdict came from a
	// shared incremental batch session (no per-candidate solve ran);
	// BatchFallbacks when the batch screen could not refute the candidate
	// and it fell back to a per-candidate solve. PrefixAtomsShared counts
	// path-condition atoms this batch pushed once instead of per candidate
	// (reported on the batch's first outcome). Disagreements counts
	// definite-verdict conflicts between the configured backend and its
	// cross-check solver.
	BatchedSolves     int64
	BatchFallbacks    int64
	PrefixAtomsShared int64
	Disagreements     int64
	// TimedOut reports that a deadline or cancellation interrupted
	// solving: the verdict is conservative (the bug is kept) and must not
	// be persisted or memoized. Panicked reports the validator panicked
	// and was contained; the bug is kept but not marked Validated.
	TimedOut bool
	Panicked bool
}

// PruneInfeasible reports whether on-the-fly feasibility pruning is
// requested (on unless NoPrune is set).
func (c Config) PruneInfeasible() bool { return !c.NoPrune }

// MemoStates reports whether (block, state) memoization is requested (on
// unless NoMemo is set).
func (c Config) MemoStates() bool { return !c.NoMemo }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Checkers == nil {
		c.Checkers = typestate.CoreCheckers()
	}
	if c.Intrinsics == nil {
		c.Intrinsics = typestate.DefaultIntrinsics()
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = 8
	}
	if c.MaxPathsPerEntry == 0 {
		c.MaxPathsPerEntry = 4096
	}
	if c.MaxStepsPerEntry == 0 {
		c.MaxStepsPerEntry = 1_000_000
	}
	if c.MaxContinuationsPerCall == 0 {
		c.MaxContinuationsPerCall = 2
	}
	if c.LoopUnroll == 0 {
		c.LoopUnroll = 1
	}
	return c
}

// PathStep is one instruction executed on a path; for conditional branches
// it records the direction taken.
type PathStep struct {
	Instr cir.Instr
	Taken bool
}

// PossibleBug is a Stage-1 candidate (typestate reached the FSM bug state on
// some path, feasibility unchecked).
type PossibleBug struct {
	Checker   typestate.Checker
	Type      typestate.BugType
	BugInstr  cir.Instr
	OriginGID int
	Path      []PathStep
	// AltPaths holds up to maxAltPaths additional witness paths for the
	// same (origin, bug) pair. Stage 2 tries them in turn: the bug is
	// feasible if ANY witness path is; validating only the first-found
	// path would wrongly drop bugs whose first witness is infeasible.
	AltPaths [][]PathStep
	Extra    *typestate.ExtraConstraint
	EntryFn  string
	InFn     string
	Category string
	// AliasSet holds the access paths of the affected object's alias class
	// at the bug point (Example 1 of the paper), for readable reports.
	AliasSet []string
}

// maxAltPaths bounds the extra witness paths kept per candidate.
const maxAltPaths = 4

// Bug is a validated report.
type Bug struct {
	*PossibleBug
	Validated bool // true when Stage 2 ran and kept it
	// Trigger holds candidate concrete input values for the witness path
	// (from the Stage-2 solver model), e.g. "q = 0".
	Trigger []string
}

// Stats mirrors the Table 5 "code analysis" and "bug detection" counters.
type Stats struct {
	EntryFunctions    int
	PathsExplored     int64
	StepsExecuted     int64
	Budgeted          int // entries that hit a path/step budget
	Typestates        int64
	TypestatesUnaware int64
	// PrunedBranches counts branch directions skipped because the
	// incremental cursor proved the accumulated path condition
	// unsatisfiable; each one cuts a whole subtree.
	PrunedBranches int64
	// MemoHits counts basic-block entries skipped because their
	// (block, state) fingerprint repeated an already fully explored,
	// emission-free configuration. MemoPathsSkipped/MemoStepsSkipped
	// accumulate the recorded full-exploration cost those hits avoided
	// (the skipped cost still counts against the entry budgets so a
	// memoized run degrades no earlier than an unmemoized one).
	MemoHits         int64
	MemoPathsSkipped int64
	MemoStepsSkipped int64
	// SummaryHits counted callee-summary replays.
	//
	// Deprecated: always 0. The callee-summary cache was removed; the field
	// stays for readers of the JSON stats.
	SummaryHits        int64
	PossibleBugs       int64
	RepeatedDropped    int64
	FalseDropped       int64
	Constraints        int64
	ConstraintsUnaware int64
	// ValidationCacheHits/Misses count Stage-2 verdict-cache outcomes:
	// hits are constraint systems whose sat/unsat verdict (and model) was
	// reused instead of re-solved. ValidationCacheEvictions counts entries
	// the cache's LRU bound pushed out.
	ValidationCacheHits      int64
	ValidationCacheMisses    int64
	ValidationCacheEvictions int64
	// Stage-2 batching counters. BatchedSolves counts candidate verdicts
	// answered by a shared incremental batch session (the per-candidate
	// solver and verdict cache never ran for them); BatchFallbacks counts
	// batch leaves that fell back to a per-candidate solve;
	// PrefixAtomsShared counts path-condition atoms pushed once per batch
	// instead of once per candidate. BackendDisagreements counts
	// definite-verdict conflicts between the configured validation backend
	// and its cross-check solver (both answers discarded for a conservative
	// Unknown).
	BatchedSolves        int64
	BatchFallbacks       int64
	PrefixAtomsShared    int64
	BackendDisagreements int64
	// CacheEntriesHit/CacheEntriesMiss count incremental-cache outcomes per
	// entry function: a hit replays the entry's stored Stage-1 result (and
	// its recorded exploration counters) without re-running the DFS;
	// CacheStepsSkipped accumulates the StepsExecuted those hits avoided.
	// All three are zero when Config.Cache is nil.
	CacheEntriesHit   int64
	CacheEntriesMiss  int64
	CacheStepsSkipped int64
	// WorkSteals counts Stage-1 tasks a worker claimed from another
	// worker's queue (RunParallel's work-stealing scheduler; zero for
	// sequential runs).
	WorkSteals int64
	// Fault-isolation counters. DeadlineTrips counts per-entry deadline
	// expiries observed by the Stage-1 DFS and by Stage-2 validations;
	// PanicsContained counts recovered panics (both stages);
	// EntriesRetried counts degrade-ladder retry attempts; and
	// EntriesDegraded counts entries whose reported result is
	// lower-fidelity than a full run — they timed out or panicked,
	// whether or not a ladder retry later completed. Budget-tripped and
	// cancelled entries appear in Result.Incomplete but are not counted
	// as degraded: a budget trip is deterministic analysis policy, and a
	// cancelled entry reflects no attempt at all.
	DeadlineTrips   int64
	PanicsContained int
	EntriesRetried  int
	EntriesDegraded int
	// AdaptiveEntriesLight counts entries the pre-flight size gate ran with
	// pruning and memoization off. Deterministic: the gate reads only
	// static closure sizes, never wall clock.
	AdaptiveEntriesLight int64
	// Per-layer self-time, in nanoseconds: CanonNanos covers memo key
	// computation (canonical digests), CursorNanos the
	// incremental feasibility cursor's branch/replay consults, SolverNanos
	// the Stage-2 validation calls. Wall-clock measurements: nondeterministic
	// across runs, excluded from every equivalence comparison.
	CanonNanos     int64
	CursorNanos    int64
	SolverNanos    int64
	AnalysisTime   time.Duration
	ValidationTime time.Duration
}

// addValidation folds one validation outcome's counters into the stats.
func (s *Stats) addValidation(out ValidationOutcome) {
	s.Constraints += out.Constraints
	s.ConstraintsUnaware += out.ConstraintsUnaware
	s.ValidationCacheHits += out.CacheHits
	s.ValidationCacheMisses += out.CacheMisses
	s.ValidationCacheEvictions += out.CacheEvictions
	s.BatchedSolves += out.BatchedSolves
	s.BatchFallbacks += out.BatchFallbacks
	s.PrefixAtomsShared += out.PrefixAtomsShared
	s.BackendDisagreements += out.Disagreements
	if out.TimedOut {
		s.DeadlineTrips++
	}
	if out.Panicked {
		s.PanicsContained++
	}
}

// Result of a full run.
type Result struct {
	Bugs     []*Bug
	Possible []*PossibleBug // deduplicated Stage-1 candidates
	// Incomplete lists entry functions whose analysis stopped early
	// (deadline, contained panic, budget trip, cancellation), in entry
	// order — the report's "incomplete analysis" section. A reader must
	// treat listed entries as unanalyzed or partially analyzed: absence
	// of a report under them proves nothing.
	Incomplete []IncompleteEntry
	Stats      Stats
}

// Engine analyzes one module.
type Engine struct {
	Mod *cir.Module
	CG  *callgraph.Graph
	Cfg Config

	g       *aliasgraph.Graph
	tracker *typestate.Tracker

	path   []PathStep
	onPath map[int]int
	frames []*frame

	// Per-entry pruning/memoization state (nil when the feature is off
	// for this entry). reach restricts the memo key's loop-counter digest
	// to instructions the subtree can still visit; recStack holds one
	// in-progress recording per block entry on the DFS stack, capturing
	// the subtree's candidate emissions for replay on later hits;
	// pathsCharged/stepsCharged accumulate the recorded cost of
	// memo-skipped subtrees, which budgetExceeded adds back so
	// memoization never stretches an entry's budget beyond what full
	// exploration would have allowed.
	pruner       *pruner
	memo         map[uint64]memoRec
	reach        *reachSets
	reachScratch []*blockInfo
	recStack     []recFrame
	pathsCharged int64
	stepsCharged int64

	// canonSeen/canonVarW are canonDigests' seed-assembly scratch: memo keys
	// union the reach sets of the block and every stacked call site, and a
	// variable in two sets must seed the canonicalization exactly once.
	canonSeen map[cir.Value]bool
	canonVarW []cir.Value
	// fnLocal memoizes per-function size counts for the adaptive size gate.
	fnLocal map[*cir.Function]fnCounts

	paths int64
	steps int64
	over  bool

	// Fault-isolation state. runCtx and entryDeadline are polled by
	// budgetExceeded every pollEvery steps (every step while an injected
	// slowdown makes single steps expensive); timedOut/cancelled record
	// why the current entry stopped early; fault is the injected fault
	// for the current entry, rung the degrade-ladder rung the current
	// attempt runs on (0 = full budgets). trkBase accumulates typestate
	// counters orphaned when a contained panic forces the tracker to be
	// rebuilt mid-run (sequential path only).
	runCtx        context.Context
	entryDeadline time.Time
	pollTick      int
	timedOut      bool
	cancelled     bool
	fault         *FaultSpec
	rung          int
	incomplete    []IncompleteEntry
	trkBase       typestate.Stats

	dedup    map[dedupKey]*PossibleBug
	possible []*PossibleBug
	stats    Stats

	// suffixArena bump-allocates the short path-suffix copies captured by
	// emitCandidate into open memo recordings. The suffixes die with the
	// per-entry memo table, so the arena resets at each analyzeEntry; pooling
	// them keeps the candidate-emission hot path from hammering the
	// allocator with tiny slices.
	suffixArena stepArena

	stackAddrMemo map[*cir.Register]bool
}

type frame struct {
	fn   *cir.Function
	call *cir.Call // nil for the entry frame
	// fid identifies the activation: it is the frame's depth (1 for the
	// entry frame). Depth-based ids are reproducible across sibling DFS
	// subtrees, which the (block, state) memoization requires — a
	// monotonic counter would make otherwise-identical configurations
	// hash differently. Reuse across successive same-depth activations
	// is safe: the ownership props keyed on fids (ML, Pair) are always
	// consulted through a live-state guard, and OnReturn clears or
	// transfers every live ownership of the popping frame.
	fid   int
	conts int
}

type dedupKey struct {
	checker int
	origin  int
	bug     int
}

// NewEngine prepares an engine for mod.
func NewEngine(mod *cir.Module, cfg Config) *Engine {
	return newEngineWithCG(mod, cfg, callgraph.Build(mod))
}

// newEngineWithCG prepares an engine reusing an already-built call graph
// (the graph is read-only after Build, so RunParallel shares one across its
// per-entry worker engines).
func newEngineWithCG(mod *cir.Module, cfg Config, cg *callgraph.Graph) *Engine {
	return &Engine{
		Mod:           mod,
		CG:            cg,
		Cfg:           cfg.withDefaults(),
		dedup:         make(map[dedupKey]*PossibleBug),
		stackAddrMemo: make(map[*cir.Register]bool),
	}
}

// Run executes Stage 1 (path-sensitive alias + typestate analysis over all
// entry functions) and Stage 2 (dedup already folded into Stage 1's sink,
// then path validation).
func (e *Engine) Run() *Result { return e.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation and the per-entry fault
// barrier: each entry runs under a recover() fence and, when EntryTimeout
// is set, a wall-clock deadline, and entries that stop early are recorded
// in Result.Incomplete. The sequential engine does not walk the degrade
// ladder — a retry needs a pristine engine per attempt, which is
// RunParallel's per-worker machinery — so a timed-out or panicked entry is
// recorded with Rung -1 here. Unlike RunParallel's workers, a contained
// panic on the sequential path keeps the candidates emitted before the
// panic (they were already deduplicated into the shared sink).
func (e *Engine) RunCtx(ctx context.Context) *Result {
	if e.Cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Cfg.RunTimeout)
		defer cancel()
	}
	e.runCtx = ctx
	start := time.Now()
	entries := e.CG.EntryFunctions()
	e.stats.EntryFunctions = len(entries)
	for _, fn := range entries {
		e.runEntryGuarded(fn)
	}
	e.stats.PossibleBugs = int64(len(e.possible)) + e.stats.RepeatedDropped
	trk := e.tracker0Stats()
	e.stats.Typestates = e.trkBase.Transitions + trk.Transitions
	e.stats.TypestatesUnaware = e.trkBase.TransitionsUnaware + trk.TransitionsUnaware
	e.stats.AnalysisTime = time.Since(start)

	res := &Result{Possible: e.possible, Incomplete: e.incomplete, Stats: e.stats}
	vstart := time.Now()
	if e.Cfg.Validate && e.Cfg.ValidatePath != nil {
		// Validate contiguous same-entry candidate runs as one group:
		// candidates append per entry in entry order, so each run is exactly
		// one entry's candidates, and the batch validator can share their
		// path-condition prefixes. With batching off every group degenerates
		// to per-candidate calls.
		for start := 0; start < len(e.possible); {
			end := start + 1
			for end < len(e.possible) && e.possible[end].EntryFn == e.possible[start].EntryFn {
				end++
			}
			group := e.possible[start:end]
			outs := validateBatchGuarded(ctx, e.Cfg, group, &res.Stats.SolverNanos)
			for i, pb := range group {
				out := outs[i]
				res.Stats.addValidation(out)
				if !out.Feasible {
					res.Stats.FalseDropped++
					continue
				}
				res.Bugs = append(res.Bugs, &Bug{PossibleBug: pb, Validated: !out.Panicked, Trigger: out.Trigger})
			}
			start = end
		}
	} else {
		for _, pb := range e.possible {
			res.Bugs = append(res.Bugs, &Bug{PossibleBug: pb})
		}
	}
	res.Stats.ValidationTime = time.Since(vstart)
	e.stats = res.Stats
	return res
}

// runEntryGuarded wraps analyzeEntry in the per-entry fault barrier and
// records incomplete outcomes. A contained panic unwinds past the entry's
// rollback points, so the alias graph and tracker are discarded and
// rebuilt for the next entry with their counters folded into trkBase.
func (e *Engine) runEntryGuarded(fn *cir.Function) {
	prevBudgeted := e.stats.Budgeted
	panicked := false
	detail := ""
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				detail = fmt.Sprint(p)
				e.stats.PanicsContained++
				if e.tracker != nil {
					e.trkBase.Transitions += e.tracker.Stats.Transitions
					e.trkBase.TransitionsUnaware += e.tracker.Stats.TransitionsUnaware
				}
				e.g, e.tracker = nil, nil
				e.frames = e.frames[:0]
			}
		}()
		e.analyzeEntry(fn)
	}()
	switch {
	case panicked:
		e.stats.EntriesDegraded++
		e.incomplete = append(e.incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonPanic, Rung: -1, Detail: detail})
	case e.cancelled:
		e.incomplete = append(e.incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonCancelled, Rung: -1})
	case e.timedOut:
		e.stats.EntriesDegraded++
		e.incomplete = append(e.incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonTimeout, Rung: -1})
	case e.stats.Budgeted > prevBudgeted:
		e.incomplete = append(e.incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonBudget, Rung: 0})
	}
}

func (e *Engine) tracker0Stats() typestate.Stats {
	if e.tracker == nil {
		return typestate.Stats{}
	}
	return e.tracker.Stats
}

// analyzeEntry runs the Figure 6 DFS from one entry function. The alias
// graph and tracker persist across entries so the Stats counters accumulate;
// per-entry state (path, frames) is reset.
func (e *Engine) analyzeEntry(fn *cir.Function) {
	// Per-entry fault-isolation setup: resolve the injected fault (if a
	// hook is installed), arm the wall-clock deadline, and observe an
	// already-cancelled run before doing any work. The injected panic
	// fires before the checkpoints below on purpose — a real panic can
	// strike anywhere, and the containment path must cope with an engine
	// whose rollback never ran.
	e.timedOut = false
	e.cancelled = false
	e.pollTick = 0
	e.fault = nil
	e.entryDeadline = time.Time{}
	if e.Cfg.FaultHook != nil {
		e.fault = e.Cfg.FaultHook(fn.Name, e.rung)
	}
	if e.Cfg.EntryTimeout > 0 {
		e.entryDeadline = time.Now().Add(e.Cfg.EntryTimeout)
	}
	if e.runCtx != nil && e.runCtx.Err() != nil {
		e.cancelled = true
	}
	if e.fault != nil && e.fault.Panic {
		panic(fmt.Sprintf("injected fault: entry %s, rung %d", fn.Name, e.rung))
	}
	if e.g == nil {
		e.g = aliasgraph.New()
	}
	if e.tracker == nil {
		e.tracker = typestate.NewTracker(e.Cfg.Checkers, e.bugSink)
	}
	gm := e.g.Checkpoint()
	tm := e.tracker.Checkpoint()

	e.path = e.path[:0]
	e.onPath = make(map[int]int)
	e.frames = e.frames[:0]
	e.paths = 0
	e.steps = 0
	e.over = false

	// Pruning and memoization are per-entry: the cursor context and the
	// memo table restart fresh so symbol numbering and fingerprints
	// depend only on this entry's exploration (RunParallel's per-worker
	// engines then behave identically to the sequential engine). Both
	// features mirror the Stage-2 replayer's ModePATA translation and
	// are disabled under Trace, which observes every executed
	// instruction.
	e.pruner = nil
	e.memo = nil
	e.recStack = e.recStack[:0]
	e.pathsCharged = 0
	e.stepsCharged = 0
	e.suffixArena.reset()
	// Small entry: full exploration is cheaper than prune/memo setup, so
	// those layers stay nil. The report is unaffected either way because
	// each layer is individually report-preserving.
	light := e.Cfg.adaptiveOn() && e.adaptSmall(fn)
	if light {
		e.stats.AdaptiveEntriesLight++
	}
	if e.Cfg.Mode == ModePATA && e.Cfg.Trace == nil && !light {
		if e.Cfg.PruneInfeasible() {
			e.pruner = newPruner()
		}
		if e.Cfg.MemoStates() {
			e.memo = make(map[uint64]memoRec)
			if e.reach == nil {
				e.reach = newReachSets(e.Mod)
			}
		}
	}

	e.frames = append(e.frames, &frame{fn: fn, fid: 1})
	entryBlk := fn.Entry()
	if entryBlk != nil && len(entryBlk.Instrs) > 0 {
		e.exec(entryBlk.Instrs[0])
	}
	e.frames = e.frames[:0]
	if e.over {
		e.stats.Budgeted++
	}
	e.stats.PathsExplored += e.paths
	e.stats.StepsExecuted += e.steps

	// Different entries are independent: reset alias and typestate context.
	e.g.Rollback(gm)
	e.tracker.Rollback(tm)
}

// pollEvery is the step cadence of the wall-clock/cancellation poll in
// budgetExceeded: cheap enough to be invisible next to instruction
// execution, frequent enough that a deadline overshoots by at most a few
// dozen steps.
const pollEvery = 64

// stopped reports whether the current entry's exploration has ended early
// for any reason — budget, deadline, or cancellation. Memo recordings
// consult it: a subtree cut short must never be recorded as fully explored.
func (e *Engine) stopped() bool { return e.over || e.timedOut || e.cancelled }

func (e *Engine) budgetExceeded() bool {
	if e.over || e.timedOut || e.cancelled {
		return true
	}
	if e.fault != nil && e.fault.TripBudget {
		e.over = true
		return true
	}
	// Wall-clock and cancellation polls are amortized over pollEvery
	// steps; with an injected per-step slowdown every step polls, so
	// deadline tests trip after a deterministic number of steps.
	if e.pollTick++; e.pollTick >= pollEvery || (e.fault != nil && e.fault.Slow > 0) {
		e.pollTick = 0
		if e.runCtx != nil && e.runCtx.Err() != nil {
			e.cancelled = true
			return true
		}
		if !e.entryDeadline.IsZero() && time.Now().After(e.entryDeadline) {
			e.timedOut = true
			e.stats.DeadlineTrips++
			return true
		}
	}
	// Negative budgets mean unlimited. The charged counters stand in for
	// the work memo hits skipped, keeping the budget trip point where an
	// unmemoized exploration would have hit it.
	if (e.Cfg.MaxStepsPerEntry > 0 && e.steps+e.stepsCharged >= int64(e.Cfg.MaxStepsPerEntry)) ||
		(e.Cfg.MaxPathsPerEntry > 0 && e.paths+e.pathsCharged >= int64(e.Cfg.MaxPathsPerEntry)) {
		e.over = true
	}
	return e.over
}

// exec handles one instruction and continues the DFS (HandleINST of
// Figure 6). At basic-block entries it first consults the (block, state)
// memo: a subtree whose relevant configuration fingerprint — canonical
// alias graph, typestates, loop counters, call stack — matches an already
// fully explored one is skipped, its recorded cost is charged against the
// entry budget, and its recorded candidate emissions are replayed onto the
// current path prefix, so a hit can never swallow a report.
func (e *Engine) exec(in cir.Instr) {
	if e.budgetExceeded() {
		return
	}
	if e.memo != nil {
		// Only block entries at CFG join points are worth fingerprinting:
		// distinct DFS routes can converge only there, so memoizing
		// single-predecessor blocks would pay the canonicalization cost
		// with no chance of a hit.
		if blk := in.Block(); blk != nil && len(blk.Instrs) > 0 && blk.Instrs[0] == in && e.reach.isJoin(blk) {
			key, ok := e.memoKey(in)
			if !ok {
				// Some tracked object escaped canonicalization; fall
				// through to plain execution for this block entry.
				e.execStep(in)
				return
			}
			if rec, ok := e.memo[key]; ok {
				e.stats.MemoHits++
				e.stats.MemoPathsSkipped += rec.paths
				e.stats.MemoStepsSkipped += rec.steps
				e.pathsCharged += rec.paths
				e.stepsCharged += rec.steps
				for i := range rec.emits {
					me := &rec.emits[i]
					e.emitCandidate(me.ci, me.origin, me.bugInstr, me.extra, me.aliasSet, me.suffix)
				}
				return
			}
			e.recStack = append(e.recStack, recFrame{
				key:     key,
				pathLen: len(e.path),
				paths0:  e.paths + e.pathsCharged,
				steps0:  e.steps + e.stepsCharged,
				pruned0: e.stats.PrunedBranches,
			})
			e.execStep(in)
			f := &e.recStack[len(e.recStack)-1]
			// Record only subtrees that ran to completion (no budget trip)
			// and had no branch pruned inside them. The latter makes the
			// record independent of the path constraints accumulated
			// before this block: a subtree in which nothing was pruned
			// behaves exactly as unpruned exploration would, so a later
			// hit under a *different* constraint prefix is still sound —
			// which is what lets the memo key omit the pruner's
			// constraint chain entirely. Candidate emissions don't block
			// recording: they are captured (up to maxMemoEmits) and
			// replayed on hits.
			if !f.poisoned && !e.stopped() && e.stats.PrunedBranches == f.pruned0 {
				e.memo[f.key] = memoRec{
					paths: e.paths + e.pathsCharged - f.paths0,
					steps: e.steps + e.stepsCharged - f.steps0,
					emits: f.emits,
				}
			}
			e.recStack = e.recStack[:len(e.recStack)-1]
			return
		}
	}
	e.execStep(in)
}

// memoKey fingerprints the complete configuration that determines the
// (unpruned) behavior of the subtree rooted at block-entry instruction in:
// the canonical alias graph, the tracked typestates expressed over canonical
// node labels, the reachability-restricted loop counters, and the call
// stack. The incremental Fingerprints cannot serve here — their facts embed
// allocation-order node IDs, which differ between DFS prefixes that converge
// on the same logical state. The pruner's constraint chain is deliberately
// absent: recorded subtrees are constraint-free (see exec), so the key must
// not distinguish prefixes by their path conditions. Returns ok=false when
// the configuration cannot be canonicalized (a tracked object is no longer
// variable-reachable); the caller then skips memoization.
func (e *Engine) memoKey(in cir.Instr) (uint64, bool) {
	sets := e.reachScratch[:0]
	sets = append(sets, e.reach.blockReach(in.Block()))
	for _, f := range e.frames[1:] {
		sets = append(sets, e.reach.blockReach(f.call.Block()))
	}
	e.reachScratch = sets[:0]
	gd, td, ok := e.canonDigests(sets)
	if !ok {
		return 0, false
	}
	h := hmix.Mix4(uint64(in.GID()), gd, td, e.onPathDigest(sets))
	return hmix.Mix2(h, e.framesHash()), true
}

// onPathDigest hashes the loop-unroll counters the subtree rooted at the
// current instruction can observe: the counter of any instruction reachable
// from its block, or reachable once control returns past one of the stacked
// call sites (sets, as assembled by memoKey). Counters of unreachable
// ancestors (e.g. the converging arms of a diamond) are excluded — they
// cannot influence the subtree, and including them would make every
// configuration unique. XOR-combining keeps the digest independent of map
// iteration order.
func (e *Engine) onPathDigest(sets []*blockInfo) uint64 {
	var h uint64
	for gid, n := range e.onPath {
		if n <= 0 {
			continue
		}
		for _, s := range sets {
			if s.gids[gid] {
				h ^= hmix.Mix2(uint64(gid), uint64(n))
				break
			}
		}
	}
	return h
}

// framesHash digests the call stack: stack height, each frame's call site,
// and its consumed continuation budget. The frame's fn and fid are implied
// by the call site and the depth.
func (e *Engine) framesHash() uint64 {
	h := uint64(len(e.frames))
	for _, f := range e.frames {
		cg := uint64(0)
		if f.call != nil {
			cg = uint64(f.call.GID()) + 1
		}
		h = hmix.Mix3(h, cg, uint64(f.conts))
	}
	return h
}

// execStep is the pre-memo body of exec. All mutations are rolled back
// before returning.
func (e *Engine) execStep(in cir.Instr) {
	if e.fault != nil && e.fault.Slow > 0 {
		time.Sleep(e.fault.Slow)
	}
	e.steps++
	gid := in.GID()
	if e.onPath[gid] >= e.Cfg.LoopUnroll {
		// Loop or re-entry beyond the unroll budget (Figure 6 lines 32–38
		// with the paper's unroll-once default); the path ends here.
		e.endPath()
		return
	}
	gm := e.g.Checkpoint()
	tm := e.tracker.Checkpoint()
	var pm prunerMark
	if e.pruner != nil {
		pm = e.pruner.mark()
	}
	if e.onPath[gid] > 0 {
		// Re-execution (loop unroll > 1): the defined register is a fresh
		// dynamic instance; detach it from the previous iteration's class.
		if dst := in.Dest(); dst != nil {
			e.g.Detach(dst)
		}
	}
	e.onPath[gid]++
	e.path = append(e.path, PathStep{Instr: in})

	switch t := in.(type) {
	case *cir.Call:
		e.execCall(t)
	case *cir.CondBr:
		e.execCondBr(t)
	case *cir.Ret:
		e.execRet(t)
	default:
		e.applyAlias(in)
		if e.Cfg.Trace != nil {
			e.Cfg.Trace(in, e.g)
		}
		if e.pruner != nil {
			// Arithmetic definitions feed the cursor (Table 3 asg rule)
			// so later branch conditions over derived values can refute.
			if bin, ok := in.(*cir.BinOp); ok {
				e.pruner.pushBinOp(e.g, bin)
			}
		}
		e.emitInstr(in)
		succs := instrSuccessors(in)
		if len(succs) == 0 {
			e.endPath()
		}
		for _, next := range succs {
			e.exec(next)
		}
	}

	e.path = e.path[:len(e.path)-1]
	// Drop zeroed counters rather than leaving them behind: onPathDigest
	// iterates this map at every join, so it must stay proportional to the
	// live DFS stack, not to everything ever executed.
	if e.onPath[gid]--; e.onPath[gid] == 0 {
		delete(e.onPath, gid)
	}
	if e.pruner != nil {
		e.pruner.rollback(pm)
	}
	e.tracker.Rollback(tm)
	e.g.Rollback(gm)
}

// instrSuccessors is Next() of the paper's pseudocode.
func instrSuccessors(in cir.Instr) []cir.Instr {
	blk := in.Block()
	for i, cur := range blk.Instrs {
		if cur == in {
			if i+1 < len(blk.Instrs) {
				return []cir.Instr{blk.Instrs[i+1]}
			}
			break
		}
	}
	var out []cir.Instr
	for _, s := range blk.Succs() {
		if len(s.Instrs) > 0 {
			out = append(out, s.Instrs[0])
		}
	}
	return out
}

func (e *Engine) execCondBr(br *cir.CondBr) {
	if e.pruner != nil {
		// Flush queued binop atoms outside the per-direction checkpoints so
		// both subtrees share one flush; inside the loop each direction would
		// re-push the whole shared prefix after the sibling's rollback.
		t0 := time.Now()
		e.pruner.flushPending()
		e.stats.CursorNanos += int64(time.Since(t0))
	}
	for _, taken := range []bool{true, false} {
		target := br.False
		if taken {
			target = br.True
		}
		if len(target.Instrs) == 0 {
			continue
		}
		next := target.Instrs[0]
		if e.onPath[next.GID()] >= e.Cfg.LoopUnroll {
			continue
		}
		gm := e.g.Checkpoint()
		tm := e.tracker.Checkpoint()
		var pm prunerMark
		if e.pruner != nil {
			// Assert the branch condition for this direction and skip the
			// whole subtree when the path condition becomes unsatisfiable:
			// every candidate it could produce carries a path Stage-2
			// validation would prove infeasible.
			pm = e.pruner.mark()
			t0 := time.Now()
			verdict := e.pruner.pushBranch(e.g, br, taken)
			e.stats.CursorNanos += int64(time.Since(t0))
			if verdict == smt.Unsat {
				e.stats.PrunedBranches++
				e.pruner.rollback(pm)
				e.tracker.Rollback(tm)
				e.g.Rollback(gm)
				continue
			}
		}
		// Record the direction on the branch step already on the path.
		e.path[len(e.path)-1].Taken = taken
		for ci, c := range e.tracker.Checkers {
			for _, em := range c.OnBranch(br, taken, e) {
				e.tracker.Apply(ci, em)
			}
		}
		e.exec(next)
		if e.pruner != nil {
			e.pruner.rollback(pm)
		}
		e.tracker.Rollback(tm)
		e.g.Rollback(gm)
	}
}

func (e *Engine) execCall(call *cir.Call) {
	callee := e.Mod.Funcs[call.Callee]
	inlinable := callee != nil && !callee.IsDecl() &&
		len(e.frames) < e.Cfg.MaxCallDepth &&
		callee.Entry() != nil && len(callee.Entry().Instrs) > 0 &&
		e.onPath[callee.Entry().Instrs[0].GID()] < e.Cfg.LoopUnroll

	// The checkers see the call either way (intrinsics, escapes).
	e.emitInstr(call)

	if !inlinable {
		// External or pruned call: continue in the caller. The result
		// register stays unconstrained.
		for _, next := range instrSuccessors(call) {
			e.exec(next)
		}
		if len(instrSuccessors(call)) == 0 {
			e.endPath()
		}
		return
	}

	gm := e.g.Checkpoint()
	tm := e.tracker.Checkpoint()
	// HandleCALL (Figure 6 lines 12–17): bind arguments to parameters with
	// MOVE operations.
	for i, p := range callee.Params {
		if i >= len(call.Args) {
			break
		}
		e.g.Move(p, call.Args[i])
		for ci, c := range e.tracker.Checkers {
			for _, em := range c.OnBind(p, call.Args[i], call, e) {
				e.tracker.Apply(ci, em)
			}
		}
	}
	e.frames = append(e.frames, &frame{fn: callee, call: call, fid: len(e.frames) + 1})
	e.exec(callee.Entry().Instrs[0])
	e.frames = e.frames[:len(e.frames)-1]
	e.tracker.Rollback(tm)
	e.g.Rollback(gm)
}

func (e *Engine) execRet(ret *cir.Ret) {
	// Checkers observe the return in the returning frame (ML leak check).
	for ci, c := range e.tracker.Checkers {
		for _, em := range c.OnReturn(ret, e) {
			e.tracker.Apply(ci, em)
		}
	}
	if len(e.frames) == 1 {
		e.endPath()
		return
	}
	f := e.frames[len(e.frames)-1]
	f.conts++
	if e.Cfg.MaxContinuationsPerCall > 0 && f.conts > e.Cfg.MaxContinuationsPerCall {
		// Path-explosion mitigation (P2): only the first K callee paths
		// continue into the caller; the rest end here, having already been
		// typestate-checked inside the callee.
		e.endPath()
		return
	}
	// Bind the return value to the call destination (HandleCALL lines
	// 19–20) and continue after the call site.
	e.frames = e.frames[:len(e.frames)-1]
	gm := e.g.Checkpoint()
	tm := e.tracker.Checkpoint()
	if f.call.Dst != nil && ret.Val != nil {
		e.g.Move(f.call.Dst, ret.Val)
		for ci, c := range e.tracker.Checkers {
			for _, em := range c.OnBind(f.call.Dst, ret.Val, f.call, e) {
				e.tracker.Apply(ci, em)
			}
		}
	}
	succs := instrSuccessors(f.call)
	if len(succs) == 0 {
		e.endPath()
	}
	for _, next := range succs {
		e.exec(next)
	}
	e.tracker.Rollback(tm)
	e.g.Rollback(gm)
	e.frames = append(e.frames, f)
}

func (e *Engine) endPath() {
	e.paths++
}

// applyAlias runs the Figure 5 update rules (or their PATA-NA restriction).
func (e *Engine) applyAlias(in cir.Instr) {
	na := e.Cfg.Mode == ModeNoAlias
	switch t := in.(type) {
	case *cir.Move:
		e.g.Move(t.Dst, t.Src)
	case *cir.Load:
		if na && !isAllocaReg(t.Addr) {
			return
		}
		e.g.Load(t.Dst, t.Addr)
	case *cir.Store:
		if na && !isAllocaReg(t.Addr) {
			return
		}
		e.g.Store(t.Addr, t.Val)
	case *cir.FieldAddr:
		if na {
			return
		}
		e.g.GEP(t.Dst, t.Base, aliasgraph.FieldLabel(t.Field))
	case *cir.IndexAddr:
		if na {
			return
		}
		e.g.GEP(t.Dst, t.Base, aliasgraph.IndexLabel(t.Index, cir.SiteToken(t)))
	}
}

func isAllocaReg(v cir.Value) bool {
	r, ok := v.(*cir.Register)
	if !ok || r.Def == nil {
		return false
	}
	_, isAlloca := r.Def.(*cir.Alloca)
	return isAlloca
}

// emitInstr feeds one instruction through all checkers.
func (e *Engine) emitInstr(in cir.Instr) {
	for ci, c := range e.tracker.Checkers {
		for _, em := range c.OnInstr(in, e) {
			e.tracker.Apply(ci, em)
		}
	}
}

// bugSink receives bug-state transitions from the tracker. It resolves the
// emission's path-independent ingredients (origin, alias set) and hands off
// to emitCandidate, which deduplicates and snapshots the path.
func (e *Engine) bugSink(ci int, em typestate.Emission, from typestate.State) {
	origin := int(e.tracker.PropOf(ci, em.Obj, "__origin"))
	var aliasSet []string
	key := dedupKey{checker: ci, origin: origin, bug: em.Instr.GID()}
	if _, dup := e.dedup[key]; !dup {
		aliasSet = e.g.AccessPaths(em.Obj, 2)
		if len(aliasSet) > 8 {
			aliasSet = aliasSet[:8]
		}
	}
	e.emitCandidate(ci, origin, em.Instr, em.Extra, aliasSet, nil)
}

// emitCandidate deduplicates one candidate emission by (checker, origin
// instruction, bug instruction) as the paper's P3 phase does, and snapshots
// the path for Stage 2. The emission's path is the current path plus tail
// (tail is non-empty when replaying a memoized subtree's emission: the
// recorded suffix grafted onto the live prefix). While memo recordings are
// active, the emission is also captured into each open recording frame,
// expressed relative to that frame's own memo point.
func (e *Engine) emitCandidate(ci, origin int, bugInstr cir.Instr, extra *typestate.ExtraConstraint, aliasSet []string, tail []PathStep) {
	full := make([]PathStep, 0, len(e.path)+len(tail))
	full = append(append(full, e.path...), tail...)
	for i := range e.recStack {
		f := &e.recStack[i]
		if f.poisoned {
			continue
		}
		if len(f.emits) >= maxMemoEmits {
			f.poisoned = true
			continue
		}
		suffix := e.suffixArena.alloc(len(full) - f.pathLen)
		copy(suffix, full[f.pathLen:])
		f.emits = append(f.emits, memoEmit{
			ci: ci, origin: origin, bugInstr: bugInstr,
			extra: extra, aliasSet: aliasSet, suffix: suffix,
		})
	}
	key := dedupKey{checker: ci, origin: origin, bug: bugInstr.GID()}
	if prev, dup := e.dedup[key]; dup {
		e.stats.RepeatedDropped++
		if len(prev.AltPaths) < maxAltPaths {
			prev.AltPaths = append(prev.AltPaths, full)
		}
		return
	}
	entry := ""
	cat := ""
	if len(e.frames) > 0 {
		entry = e.frames[0].fn.Name
		cat = e.frames[0].fn.Category
	}
	inFn := entry
	if blk := bugInstr.Block(); blk != nil && blk.Fn != nil {
		inFn = blk.Fn.Name
		if blk.Fn.Category != "" {
			cat = blk.Fn.Category
		}
	}
	chk := e.tracker.Checkers[ci]
	pb := &PossibleBug{
		Checker:   chk,
		Type:      chk.Type(),
		BugInstr:  bugInstr,
		OriginGID: origin,
		Path:      full,
		Extra:     extra,
		EntryFn:   entry,
		InFn:      inFn,
		Category:  cat,
		AliasSet:  aliasSet,
	}
	e.dedup[key] = pb
	e.possible = append(e.possible, pb)
}

// ---- typestate.Ctx implementation ----

// Graph implements typestate.Ctx.
func (e *Engine) Graph() *aliasgraph.Graph { return e.g }

// Tracker implements typestate.Ctx.
func (e *Engine) Tracker() *typestate.Tracker { return e.tracker }

// Intrinsics implements typestate.Ctx.
func (e *Engine) Intrinsics() *typestate.Intrinsics { return e.Cfg.Intrinsics }

// Depth implements typestate.Ctx.
func (e *Engine) Depth() int { return len(e.frames) - 1 }

// FrameID implements typestate.Ctx.
func (e *Engine) FrameID() int {
	if len(e.frames) == 0 {
		return 0
	}
	return e.frames[len(e.frames)-1].fid
}

// CallerFrameID implements typestate.Ctx.
func (e *Engine) CallerFrameID() int {
	if len(e.frames) < 2 {
		return 0
	}
	return e.frames[len(e.frames)-2].fid
}

// IsDefined implements typestate.Ctx.
func (e *Engine) IsDefined(callee string) bool {
	fn, ok := e.Mod.Funcs[callee]
	return ok && !fn.IsDecl()
}

// IsStackAddr implements typestate.Ctx: true for addresses rooted at an
// alloca or a global (dereferencing them cannot fault on NULL).
func (e *Engine) IsStackAddr(v cir.Value) bool {
	switch t := v.(type) {
	case *cir.Global:
		return true
	case *cir.Register:
		if memo, ok := e.stackAddrMemo[t]; ok {
			return memo
		}
		res := false
		if t.Def != nil {
			switch d := t.Def.(type) {
			case *cir.Alloca:
				res = true
			case *cir.FieldAddr:
				res = e.IsStackAddr(d.Base)
			case *cir.IndexAddr:
				res = e.IsStackAddr(d.Base)
			}
		}
		e.stackAddrMemo[t] = res
		return res
	}
	return false
}

// SortedBugs orders bugs by type, file and line for stable reporting.
func SortedBugs(bugs []*Bug) []*Bug {
	out := make([]*Bug, len(bugs))
	copy(out, bugs)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		pa, pb := a.BugInstr.Position(), b.BugInstr.Position()
		if pa.File != pb.File {
			return pa.File < pb.File
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		return a.BugInstr.GID() < b.BugInstr.GID()
	})
	return out
}
