// Per-entry adaptive size gate: decide, before exploring an entry function,
// whether the pruning and memoization layers can pay for themselves on it.
//
// BENCH_pipeline.json motivated this: on small corpora the precision layers
// eliminate most paths yet still lose wall-clock, because canonicalization
// and cursor upkeep cost more than the skipped exploration was worth. An
// entry whose call-graph closure is small (few instructions, few branches)
// cannot explode — its full unpruned exploration is cheaper than one round
// of layer bookkeeping — so it runs with both layers off.
//
// Report invariance: each layer individually preserves the validated bug
// set (pruning only discards Stage-2-infeasible paths; memo hits replay
// recorded emissions), so either choice yields a byte-identical report.
// Determinism: the gate reads only static closure sizes, so parallel and
// sequential runs — and repeated runs — decide identically.
package core

import "repro/internal/cir"

// Size gate: run both layers off when the entry's call-graph closure has at
// most this many branches and instructions. Worst-case unpruned path count
// grows with branch count; a closure this small cannot outgrow plain
// exploration. Values were fixed empirically against the bench grid (see
// BENCH_pipeline.json).
const (
	adaptGateBranches = 10
	adaptGateInstrs   = 400
)

// adaptiveOn reports whether the size gate is active for this config
// (mirrors the layer toggles' ModePATA/Trace gating).
func (c *Config) adaptiveOn() bool {
	return c.Mode == ModePATA && c.Trace == nil && !c.NoAdaptive
}

// fnCounts are one function's local (non-transitive) size numbers.
type fnCounts struct {
	instrs   int
	branches int
}

// closureCounts sums local counts over fn's call-graph closure (defined
// callees only, recursion-safe via the visited set). Memoized per function
// at the closure level is unsound under cycles, so only local counts are
// memoized; the per-entry BFS over a few dozen functions is negligible next
// to exploration.
func (e *Engine) closureCounts(fn *cir.Function) fnCounts {
	if e.fnLocal == nil {
		e.fnLocal = make(map[*cir.Function]fnCounts)
	}
	var total fnCounts
	visited := map[*cir.Function]bool{fn: true}
	queue := []*cir.Function{fn}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		lc, ok := e.fnLocal[f]
		if !ok {
			for _, b := range f.Blocks {
				lc.instrs += len(b.Instrs)
				for _, in := range b.Instrs {
					if _, isBr := in.(*cir.CondBr); isBr {
						lc.branches++
					}
				}
			}
			e.fnLocal[f] = lc
		}
		total.instrs += lc.instrs
		total.branches += lc.branches
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				call, ok := in.(*cir.Call)
				if !ok {
					continue
				}
				callee := e.Mod.Funcs[call.Callee]
				if callee == nil || callee.IsDecl() || visited[callee] {
					continue
				}
				visited[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return total
}

// adaptSmall reports whether fn's closure is too little to outgrow plain
// exploration, so prune/memo bookkeeping cannot pay for itself.
func (e *Engine) adaptSmall(fn *cir.Function) bool {
	c := e.closureCounts(fn)
	return c.branches <= adaptGateBranches && c.instrs <= adaptGateInstrs
}
