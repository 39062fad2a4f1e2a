package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cir"
)

// FaultSpec is a test-only injected fault for one entry attempt, returned
// by Config.FaultHook per (entry, rung) pair. Panic panics at the start of
// the attempt; Slow sleeps that long per executed step, so wall-clock
// deadlines trip after a deterministic number of steps; TripBudget makes
// the path/step budget read as exhausted immediately.
type FaultSpec struct {
	Panic      bool
	Slow       time.Duration
	TripBudget bool
}

// IncompleteReason classifies why an entry function's analysis stopped
// early.
type IncompleteReason string

// Incomplete-analysis reasons, ordered from most to least recoverable.
const (
	// ReasonTimeout: the entry's EntryTimeout deadline expired mid-DFS.
	ReasonTimeout IncompleteReason = "timeout"
	// ReasonPanic: the attempt panicked and the panic was contained.
	ReasonPanic IncompleteReason = "panic"
	// ReasonBudget: a path/step budget tripped. Budget trips are
	// deterministic — re-running cannot help — so they are not retried
	// and their (partial) results are still cacheable.
	ReasonBudget IncompleteReason = "budget"
	// ReasonCancelled: the run context was cancelled (or RunTimeout
	// expired) before or during the entry.
	ReasonCancelled IncompleteReason = "cancelled"
)

// IncompleteEntry records one entry function whose analysis is incomplete.
// Reason is the FIRST failure observed for the entry; Rung is the
// degrade-ladder rung whose results the report reflects: 0 means the full
// budgets, r > 0 the retry rung that completed after the initial failure,
// and -1 that no attempt completed (the entry's reported candidates, if
// any, are the final attempt's partial findings).
// The JSON tags are a stable contract: `cmd/pata -json` and the patad
// protocol both serialize these records, and clients key on the lowercase
// names (see TestIncompleteJSONShape).
type IncompleteEntry struct {
	Entry  string           `json:"entry"`
	Reason IncompleteReason `json:"reason"`
	Rung   int              `json:"rung"`
	// Detail carries a human-readable extra — the contained panic value —
	// and is empty otherwise.
	Detail string `json:"detail,omitempty"`
}

// retryCount resolves MaxRetries: 0 selects the default of one ladder
// retry, negative disables retries.
func (c Config) retryCount() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return 1
}

// degradeRung returns the budget configuration for retry rung r (r >= 1)
// of the degrade ladder: the path and step budgets shrink 8× per rung
// (floors 64 paths and 4096 steps; an unlimited budget restarts from the
// defaults), and from the second rung on the inlining depth also halves
// (floor 2). The ladder trades fidelity for termination: a rung-r result
// explores fewer paths than a full run, which is why completing on r > 0
// still records the entry as degraded.
func (c Config) degradeRung(r int) Config {
	paths, steps := c.MaxPathsPerEntry, c.MaxStepsPerEntry
	if paths <= 0 {
		paths = 4096
	}
	if steps <= 0 {
		steps = 1_000_000
	}
	for i := 0; i < r; i++ {
		paths /= 8
		steps /= 8
	}
	c.MaxPathsPerEntry = max(paths, 64)
	c.MaxStepsPerEntry = max(steps, 4096)
	if r >= 2 {
		c.MaxCallDepth = max(c.MaxCallDepth>>(r-1), 2)
	}
	return c
}

// attemptEntry runs one guarded analyzeEntry attempt on a worker engine
// and classifies the outcome. A panic is contained here; the caller must
// then discard the engine (the alias graph and tracker were unwound past
// their rollback points).
func (e *Engine) attemptEntry(fn *cir.Function) (res *Result, reason IncompleteReason, detail string) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{Stats: Stats{EntryFunctions: 1, PanicsContained: 1}}
			reason, detail = ReasonPanic, fmt.Sprint(p)
		}
	}()
	res = e.runEntryDelta(fn)
	switch {
	case e.cancelled:
		reason = ReasonCancelled
	case e.timedOut:
		reason = ReasonTimeout
	case res.Stats.Budgeted > 0:
		reason = ReasonBudget
	}
	return res, reason, detail
}

// addAttemptStats folds a retry attempt's counters into the entry's
// aggregate delta. Work counters (paths, steps, trips) sum across
// attempts — they measure effort actually spent — while result-shaped
// counters (Budgeted, RepeatedDropped) are overwritten: they must describe
// the attempt whose candidates the entry reports.
func addAttemptStats(dst *Stats, src Stats) {
	dst.PathsExplored += src.PathsExplored
	dst.StepsExecuted += src.StepsExecuted
	dst.Typestates += src.Typestates
	dst.TypestatesUnaware += src.TypestatesUnaware
	dst.DeadlineTrips += src.DeadlineTrips
	dst.PanicsContained += src.PanicsContained
	dst.Budgeted = src.Budgeted
	dst.RepeatedDropped = src.RepeatedDropped
}

// runEntryIsolated runs one entry under the full fault barrier: panic
// containment, the per-entry deadline, and — on a timeout or panic — the
// degrade ladder. It returns the entry's delta Result, the engine the
// worker should keep using (a fresh one when a panic poisoned the old
// one), and whether the outcome is degraded. Degraded results depend on
// wall-clock or on contained corruption and must never be persisted to the
// incremental cache; budget-tripped results are deterministic and may be.
func runEntryIsolated(eng *Engine, fn *cir.Function) (*Result, *Engine, bool) {
	res, reason, detail := eng.attemptEntry(fn)
	switch reason {
	case "":
		return res, eng, false
	case ReasonBudget:
		res.Incomplete = append(res.Incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonBudget, Rung: 0})
		return res, eng, false
	case ReasonCancelled:
		res.Incomplete = append(res.Incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonCancelled, Rung: -1})
		return res, eng, true
	}

	// Timeout or panic: walk the degrade ladder. The recorded reason and
	// detail stay the FIRST failure's; the rung reported is the one that
	// completed (or -1 when none did).
	first, firstDetail := reason, detail
	agg := res.Stats
	retries := eng.Cfg.retryCount()
	for r := 1; r <= retries; r++ {
		if reason == ReasonPanic {
			fresh := newEngineWithCG(eng.Mod, eng.Cfg, eng.CG)
			fresh.runCtx = eng.runCtx
			eng = fresh
		}
		saved := eng.Cfg
		eng.Cfg = saved.degradeRung(r)
		eng.rung = r
		var attempt *Result
		attempt, reason, detail = eng.attemptEntry(fn)
		eng.Cfg, eng.rung = saved, 0
		addAttemptStats(&agg, attempt.Stats)
		agg.EntriesRetried++
		res = attempt
		switch reason {
		case "", ReasonBudget:
			res.Stats = agg
			res.Stats.EntriesDegraded++
			res.Incomplete = append(res.Incomplete, IncompleteEntry{Entry: fn.Name, Reason: first, Rung: r, Detail: firstDetail})
			return res, eng, true
		case ReasonCancelled:
			res.Stats = agg
			res.Incomplete = append(res.Incomplete, IncompleteEntry{Entry: fn.Name, Reason: ReasonCancelled, Rung: -1})
			return res, eng, true
		}
	}
	res.Stats = agg
	res.Stats.EntriesDegraded++
	res.Incomplete = append(res.Incomplete, IncompleteEntry{Entry: fn.Name, Reason: first, Rung: -1, Detail: firstDetail})
	if reason == ReasonPanic {
		// The final attempt also panicked; hand the worker a fresh engine.
		fresh := newEngineWithCG(eng.Mod, eng.Cfg, eng.CG)
		fresh.runCtx = eng.runCtx
		eng = fresh
	}
	return res, eng, true
}

// validateGuarded runs the Stage-2 hook for one candidate under the same
// barrier Stage 1 gets: a recover() fence and, when EntryTimeout is set, a
// per-candidate deadline. A panicking validator keeps the bug (Feasible,
// but not Validated) — dropping a report because the checker crashed would
// be unsound for a bug finder.
func validateGuarded(ctx context.Context, cfg Config, pb *PossibleBug, solverNanos *int64) (out ValidationOutcome) {
	start := time.Now()
	defer func() { atomic.AddInt64(solverNanos, int64(time.Since(start))) }()
	if cfg.EntryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.EntryTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			out = ValidationOutcome{Feasible: true, Panicked: true}
		}
	}()
	return cfg.ValidatePath(ctx, pb, cfg.Mode)
}

// validateBatchGuarded validates one entry's contiguous candidate group.
// With a batch hook installed the whole group runs in one guarded call
// sharing one EntryTimeout deadline; otherwise — and for singleton groups,
// where there is no prefix to share — it degenerates to per-candidate
// validateGuarded calls. A panic inside the
// batched call is contained by re-validating every candidate individually:
// each then gets its own fence, so only the faulting candidate surfaces as
// Panicked and its group mates keep their real verdicts.
func validateBatchGuarded(ctx context.Context, cfg Config, pbs []*PossibleBug, solverNanos *int64) []ValidationOutcome {
	if cfg.ValidateBatch == nil || len(pbs) <= 1 {
		outs := make([]ValidationOutcome, len(pbs))
		for i, pb := range pbs {
			outs[i] = validateGuarded(ctx, cfg, pb, solverNanos)
		}
		return outs
	}
	outs, ok := func() (outs []ValidationOutcome, ok bool) {
		start := time.Now()
		defer func() { atomic.AddInt64(solverNanos, int64(time.Since(start))) }()
		bctx := ctx
		if cfg.EntryTimeout > 0 {
			var cancel context.CancelFunc
			bctx, cancel = context.WithTimeout(ctx, cfg.EntryTimeout)
			defer cancel()
		}
		defer func() {
			if p := recover(); p != nil {
				ok = false
			}
		}()
		outs = cfg.ValidateBatch(bctx, pbs, cfg.Mode)
		return outs, len(outs) == len(pbs)
	}()
	if !ok {
		outs = make([]ValidationOutcome, len(pbs))
		for i, pb := range pbs {
			outs[i] = validateGuarded(ctx, cfg, pb, solverNanos)
		}
	}
	return outs
}
