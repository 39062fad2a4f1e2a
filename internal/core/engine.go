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
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/aliasgraph"
	"repro/internal/callgraph"
	"repro/internal/cir"
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
	// ValidatePath is never read: ValidateBatch is the one Stage-2 hook.
	// The field remains only so that code still assigning it compiles.
	//
	// Deprecated: ignored; install a Stage-2 validator as ValidateBatch.
	ValidatePath func(ctx context.Context, bug *PossibleBug, mode Mode) ValidationOutcome
	// ValidateBatch is the Stage-2 hook: it decides the path feasibility
	// of a group of candidates from ONE entry function, outcomes
	// positionally parallel to bugs; a candidate proven infeasible
	// (Feasible false) is dropped. It is installed by the pathval package
	// (or a custom validator); when nil, Stage-2 validation is skipped.
	// The engine calls it once per contiguous same-entry candidate group,
	// singletons included, so a validator can share path-condition
	// prefixes across the group. The counts it returns feed the Table 5
	// constraint statistics. The context carries the run's cancellation
	// and, when EntryTimeout is set, one deadline for the whole group; an
	// implementation that cannot finish in time must return a conservative
	// verdict (Feasible) with TimedOut set rather than block. RunParallel
	// calls it from several workers at once, so it must be safe for
	// concurrent use (pathval's Validator is).
	ValidateBatch func(ctx context.Context, bugs []*PossibleBug, mode Mode) []ValidationOutcome
	// Cache, when set, enables content-addressed incremental analysis:
	// RunParallel keys each entry function by the fingerprints of every
	// reachable function plus the analysis-relevant configuration (see
	// analysisSalt), replays cached per-entry results on key hits, and
	// stores freshly computed ones on misses. Each entry's capsule also
	// carries its candidates' Stage-2 verdicts, so a hit skips Stage 2.
	Cache EntryCache
	// EntryTimeout bounds the wall-clock of one entry function's Stage-1
	// DFS attempt and of each Stage-2 hook call, which validates one
	// same-entry candidate group (<= 0 means no deadline). The DFS polls the deadline at a bounded step cadence;
	// an entry that trips it is retried down the degrade ladder (see
	// MaxRetries) and recorded in Result.Incomplete.
	EntryTimeout time.Duration
	// RunTimeout bounds the whole run's wall-clock (<= 0 means none). On
	// expiry, in-flight entries stop at their next poll and entries not
	// yet started are recorded as incomplete with reason "cancelled".
	RunTimeout time.Duration
	// MaxRetries is how many degrade-ladder rungs a timed-out or panicked
	// entry is retried on before its incomplete record goes out with no
	// completed attempt: rung r shrinks the path/step budgets 8× per rung,
	// and from rung 2 on also halves MaxCallDepth (see Config.degradeRung).
	// 0 selects the default (1 retry); negative disables retries.
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
	// (reported on the batch's first outcome).
	BatchedSolves     int64
	BatchFallbacks    int64
	PrefixAtomsShared int64
	// TimedOut reports that a deadline or cancellation interrupted
	// solving: the verdict is conservative (the bug is kept) and must not
	// be persisted or memoized. Panicked reports the validator panicked
	// and was contained; the bug is kept but not marked Validated.
	TimedOut bool
	Panicked bool
}

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

	// The candidate's Stage-2 verdict as its entry capsule stores it, for
	// Stage 2 to replay; nil on a live candidate, whose verdicts Stage 2
	// records beside it (see validateGroup). merged marks mergeEntries'
	// copy of a first sighting to which it appended another entry's paths.
	verdict *verdictC
	merged  bool
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
	// PrunedBranches counted branch directions Stage-1 pruning skipped.
	//
	// Deprecated: always 0. Stage-1 pruning was removed; the field stays
	// for readers of the JSON stats.
	PrunedBranches int64
	// MemoHits counted (block, state) memo hits.
	//
	// Deprecated: always 0. The (block, state) memo was removed; the field
	// stays for readers of the JSON stats.
	MemoHits int64
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
	// instead of once per candidate.
	BatchedSolves     int64
	BatchFallbacks    int64
	PrefixAtomsShared int64
	// CacheEntriesHit/CacheEntriesMiss count incremental-cache outcomes per
	// entry function: a hit replays the entry's stored Stage-1 result (and
	// its recorded exploration counters) without re-running the DFS;
	// CacheStepsSkipped accumulates the StepsExecuted those hits avoided.
	// All three are zero when Config.Cache is nil.
	CacheEntriesHit   int64
	CacheEntriesMiss  int64
	CacheStepsSkipped int64
	// WorkSteals counted Stage-1 tasks a worker stole from another
	// worker's deque.
	//
	// Deprecated: always 0. Stage 1 takes entries from one shared cursor
	// (par.For), so nothing is stolen; the field stays for readers of the
	// JSON stats.
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
	// AdaptiveEntriesLight counted entries the size gate ran with pruning
	// off.
	//
	// Deprecated: always 0. The size gate was removed with Stage-1
	// pruning; the field stays for readers of the JSON stats.
	AdaptiveEntriesLight int64
	// SolverNanos is the Stage-2 validation time in nanoseconds, summed
	// over the same-entry candidate groups. A wall-clock measurement: nondeterministic across runs,
	// excluded from every equivalence comparison.
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

// Engine is one Stage-1 worker's DFS state over a module; RunParallel
// reuses one engine per worker across that worker's entries.
type Engine struct {
	Mod *cir.Module
	CG  *callgraph.Graph
	Cfg Config

	g       *aliasgraph.Graph
	tracker *typestate.Tracker

	path []PathStep
	// onPath counts, per instruction GID, how often the instruction is on
	// the current path. It is a table an earlier run returned, or sized
	// from the module (see getOnPath), and grown on demand; every exec that
	// returns normally undoes its increment, so it is all-zero between
	// entries.
	onPath []int32
	frames []*frame
	// emits is the buffer every checker hook appends to; ci is the index
	// of the checker whose hook runs (typestate.Ctx.Checker).
	emits []typestate.Emission
	ci    int
	// facts are the comparison facts of the branch direction the checkers'
	// OnBranch hooks inspect, computed once for all of them.
	facts [2]typestate.BranchFact
	// intr holds, per callee index, 1 + the callee's intrinsic kind, or 0
	// until the callee is first classified (see Intrinsic).
	intr []uint8

	paths int64
	steps int64
	over  bool

	// Fault-isolation state. runCtx and entryDeadline are polled by
	// budgetExceeded every pollEvery steps (every step while an injected
	// slowdown makes single steps expensive); timedOut/cancelled record
	// why the current entry stopped early; fault is the injected fault
	// for the current entry, rung the degrade-ladder rung the current
	// attempt runs on (0 = full budgets).
	runCtx        context.Context
	entryDeadline time.Time
	pollTick      int
	timedOut      bool
	cancelled     bool
	fault         *FaultSpec
	rung          int

	dedup    map[dedupKey]*PossibleBug
	possible []*PossibleBug
	stats    Stats
}

type frame struct {
	fn   *cir.Function
	call *cir.Call // nil for the entry frame
	// fid identifies the activation: it is the frame's depth (1 for the
	// entry frame). Reuse across successive same-depth activations
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

// newEngineWithCG prepares a worker engine reusing an already-built call
// graph (the graph is read-only after Build, so RunParallel shares one
// across its worker engines).
func newEngineWithCG(mod *cir.Module, cfg Config, cg *callgraph.Graph) *Engine {
	return &Engine{
		Mod:    mod,
		CG:     cg,
		Cfg:    cfg.withDefaults(),
		dedup:  make(map[dedupKey]*PossibleBug),
		onPath: getOnPath(mod.MaxGID() + 1),
		intr:   make([]uint8, mod.NumCallees()),
	}
}

// onPathPool holds the onPath tables of finished runs: allocating every
// worker's table afresh per run made them a fifth of a warm edit's
// allocation on linux-like ×4.
var onPathPool sync.Pool // of *[]int32

// getOnPath returns an all-zero onPath table: a pooled one, whatever its
// size, or a new one of n slots. A pooled table may be shorter than the
// module's GID space, since every Relower epoch adds GIDs above the last;
// exec grows it on demand, and append's spare capacity then absorbs the
// next epochs' GIDs.
func getOnPath(n int) []int32 {
	if p, ok := onPathPool.Get().(*[]int32); ok {
		t := (*p)[:cap(*p)]
		// A table is all-zero only if every exec on it returned normally,
		// which a panic does not.
		clear(t)
		return t
	}
	return make([]int32, n)
}

// putOnPath hands a worker's onPath table back once its run is done.
func putOnPath(t []int32) { onPathPool.Put(&t) }

// analyzeEntry runs the Figure 6 DFS from one entry function. The alias
// graph and tracker persist across a worker's entries, rolled back to their
// entry checkpoints; per-entry state (path, frames) is reset.
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
	e.frames = e.frames[:0]
	e.paths = 0
	e.steps = 0
	e.over = false

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
	// Negative budgets mean unlimited.
	if (e.Cfg.MaxStepsPerEntry > 0 && e.steps >= int64(e.Cfg.MaxStepsPerEntry)) ||
		(e.Cfg.MaxPathsPerEntry > 0 && e.paths >= int64(e.Cfg.MaxPathsPerEntry)) {
		e.over = true
	}
	return e.over
}

// exec handles one instruction and continues the DFS (HandleINST of
// Figure 6). All mutations are rolled back before returning.
func (e *Engine) exec(in cir.Instr) {
	if e.budgetExceeded() {
		return
	}
	if e.fault != nil && e.fault.Slow > 0 {
		time.Sleep(e.fault.Slow)
	}
	e.steps++
	gid := in.GID()
	if gid >= len(e.onPath) {
		e.onPath = append(e.onPath, make([]int32, gid+1-len(e.onPath))...)
	}
	if int(e.onPath[gid]) >= e.Cfg.LoopUnroll {
		// Loop or re-entry beyond the unroll budget (Figure 6 lines 32–38
		// with the paper's unroll-once default); the path ends here.
		e.endPath()
		return
	}
	gm := e.g.Checkpoint()
	tm := e.tracker.Checkpoint()
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
	e.onPath[gid]--
	e.tracker.Rollback(tm)
	e.g.Rollback(gm)
}

// onPathCount returns how often the instruction with this GID is on the
// current path.
func (e *Engine) onPathCount(gid int) int {
	if gid < len(e.onPath) {
		return int(e.onPath[gid])
	}
	return 0
}

// instrSuccessors is Next() of the paper's pseudocode for every instruction
// but a conditional branch (execCondBr walks both directions): the next
// instruction of the block, or a Br's target's first. The result aliases a
// block's instruction slice; callers must not modify it.
func instrSuccessors(in cir.Instr) []cir.Instr {
	blk := in.Block()
	if i := in.BlockIndex() + 1; i < len(blk.Instrs) {
		return blk.Instrs[i : i+1 : i+1]
	}
	if br, ok := in.(*cir.Br); ok && len(br.Target.Instrs) > 0 {
		return br.Target.Instrs[:1:1]
	}
	return nil
}

func (e *Engine) execCondBr(br *cir.CondBr) {
	for _, taken := range []bool{true, false} {
		target := br.False
		if taken {
			target = br.True
		}
		if len(target.Instrs) == 0 {
			continue
		}
		next := target.Instrs[0]
		if e.onPathCount(next.GID()) >= e.Cfg.LoopUnroll {
			continue
		}
		gm := e.g.Checkpoint()
		tm := e.tracker.Checkpoint()
		// Record the direction on the branch step already on the path.
		e.path[len(e.path)-1].Taken = taken
		var n int
		e.facts, n = typestate.BranchFacts(br, taken)
		for ci, c := range e.tracker.Checkers {
			e.ci = ci
			e.apply(c.OnBranch(br, e.facts[:n], e, e.emits[:0]))
		}
		e.exec(next)
		e.tracker.Rollback(tm)
		e.g.Rollback(gm)
	}
}

func (e *Engine) execCall(call *cir.Call) {
	callee := e.Mod.Callee(call)
	inlinable := callee != nil && !callee.IsDecl() &&
		len(e.frames) < e.Cfg.MaxCallDepth &&
		callee.Entry() != nil && len(callee.Entry().Instrs) > 0 &&
		e.onPathCount(callee.Entry().Instrs[0].GID()) < e.Cfg.LoopUnroll

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
			e.ci = ci
			e.apply(c.OnBind(p, call.Args[i], call, e, e.emits[:0]))
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
		e.ci = ci
		e.apply(c.OnReturn(ret, e, e.emits[:0]))
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
			e.ci = ci
			e.apply(c.OnBind(f.call.Dst, ret.Val, f.call, e, e.emits[:0]))
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
		e.g.GEP(t.Dst, t.Base, aliasgraph.IndexLabel(t))
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
		e.ci = ci
		e.apply(c.OnInstr(in, e, e.emits[:0]))
	}
}

// apply feeds checker e.ci's emissions through the tracker and keeps their
// buffer for the next hook.
func (e *Engine) apply(ems []typestate.Emission) {
	e.emits = ems
	for _, em := range ems {
		e.tracker.Apply(e.ci, em)
	}
}

// bugSink receives bug-state transitions from the tracker. It deduplicates
// each candidate by (checker, origin instruction, bug instruction) as the
// paper's P3 phase does, and snapshots the current path for Stage 2: a
// repeat only contributes an alternate witness path, and the path is
// copied only when it is kept.
func (e *Engine) bugSink(ci int, em typestate.Emission, from typestate.State) {
	origin := e.tracker.Origin(ci, em.Obj)
	key := dedupKey{checker: ci, origin: origin, bug: em.Instr.GID()}
	if prev, dup := e.dedup[key]; dup {
		e.stats.RepeatedDropped++
		if len(prev.AltPaths) < maxAltPaths {
			prev.AltPaths = append(prev.AltPaths, slices.Clone(e.path))
		}
		return
	}
	aliasSet := e.g.AccessPaths(em.Obj, 2)
	if len(aliasSet) > 8 {
		aliasSet = aliasSet[:8]
	}
	entry := ""
	cat := ""
	if len(e.frames) > 0 {
		entry = e.frames[0].fn.Name
		cat = e.frames[0].fn.Category
	}
	inFn := entry
	if blk := em.Instr.Block(); blk != nil && blk.Fn != nil {
		inFn = blk.Fn.Name
		if blk.Fn.Category != "" {
			cat = blk.Fn.Category
		}
	}
	chk := e.tracker.Checkers[ci]
	pb := &PossibleBug{
		Checker:   chk,
		Type:      chk.Type(),
		BugInstr:  em.Instr,
		OriginGID: origin,
		Path:      slices.Clone(e.path),
		Extra:     em.Extra,
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

// Checker implements typestate.Ctx.
func (e *Engine) Checker() int { return e.ci }

// Intrinsic implements typestate.Ctx. The engine classifies a callee by
// name once and from then on reads its kind by callee index.
func (e *Engine) Intrinsic(call *cir.Call) typestate.Intrinsic {
	i := call.CalleeIndex()
	if i <= 0 || i >= len(e.intr) {
		return e.Cfg.Intrinsics.Classify(call.Callee)
	}
	if e.intr[i] == 0 {
		e.intr[i] = uint8(e.Cfg.Intrinsics.Classify(call.Callee)) + 1
	}
	return typestate.Intrinsic(e.intr[i] - 1)
}

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
func (e *Engine) IsDefined(call *cir.Call) bool {
	fn := e.Mod.Callee(call)
	return fn != nil && !fn.IsDecl()
}

// IsStackAddr implements typestate.Ctx: true for addresses rooted at an
// alloca or a global (dereferencing them cannot fault on NULL).
func (e *Engine) IsStackAddr(v cir.Value) bool { return cir.IsStackAddr(v) }

// SortedBugs orders bugs by type, file and line for stable reporting, and
// bugs on one line by function name and LID: the GID order of a module
// AssignGIDs numbered, which a Relowered module, whose reused and fresh
// functions of one file are numbered apart, does not keep.
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
		if fa, fb := a.BugInstr.Block().Fn.Name, b.BugInstr.Block().Fn.Name; fa != fb {
			return fa < fb
		}
		return a.BugInstr.LID() < b.BugInstr.LID()
	})
	return out
}
