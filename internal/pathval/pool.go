// Replayer pooling: every candidate validation used to allocate a fresh
// replayer — an alias graph (three maps), an SMT term context, and three
// more maps — only to throw the lot away a few microseconds later. Under
// parallel Stage-2 workers that churn was the dominant allocation source on
// the Stage-2 hot path and a GC assist magnet for every worker. Validators
// now recycle replayers through a sync.Pool: reset restores the exact state
// a fresh replayer starts in (the alias graph rewinds node IDs to 1, the
// term context rewinds variable IDs to 0), so a pooled replay is
// bit-identical to a cold one — same variable IDs, same formula keys, same
// verdict-cache behavior. The pool is per-validator and sync.Pool is
// per-P underneath, so workers mostly reuse their own warm state without
// coordinating.
package pathval

import (
	"sync/atomic"

	"repro/internal/core"
)

// acquireReplayer returns a replay state that behaves exactly like
// newReplayer's: either a recycled one reset to empty, or a fresh one when
// the pool is dry.
func (v *Validator) acquireReplayer(mode core.Mode) *replayer {
	if r, ok := v.rpool.Get().(*replayer); ok {
		r.reset(mode)
		return r
	}
	return newReplayer(mode)
}

// releaseReplayer parks r for reuse. Callers must be done with every view
// into r's state: outcomes built by solveReplayed copy what they keep
// (trigger strings, counters) and the verdict cache stores only result,
// model, and key — none of which alias the replayer — so release after
// solveReplayed returns is safe.
func (v *Validator) releaseReplayer(r *replayer) {
	atomic.AddInt64(&v.stepsReplayed, int64(r.steps))
	v.rpool.Put(r)
}

// reset returns the replayer to the state newReplayer(mode) produces while
// keeping warmed-up allocations: map storage, slice backing arrays, and the
// alias graph's nodes, which the next replay recycles. Determinism argument: replay only
// observes the graph/context through Var-ID allocation (both rewound to
// their initial counters), map lookups (all cleared), and slice contents
// (all truncated) — so a reset replayer replays any step sequence into the
// same atoms, with the same variable IDs, as a fresh one.
func (r *replayer) reset(mode core.Mode) {
	r.mode = mode
	r.steps = 0
	r.g.Reset()
	r.ctx.Rewind(0)
	clear(r.syms)
	clear(r.slot)
	clear(r.execs)
	r.atoms = r.atoms[:0]
	r.unaware = 0
	r.frames = r.frames[:0]
	r.symLog = r.symLog[:0]
	r.slotLog = r.slotLog[:0]
	r.execLog = r.execLog[:0]
}
