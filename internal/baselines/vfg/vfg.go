// Package vfg implements a sparse value-flow, source-sink memory-leak
// detector standing in for Saber in the paper's §6 comparison. For each
// allocation site it computes the set of values carrying the allocated
// pointer (a def-use closure through moves and local slots), then checks
// CFG reachability from the allocation to a function exit that passes no
// free() of a carrying value. Reachability is path-insensitive: a free
// guarded by the same condition as the leaky exit still "covers" it, and an
// error-path-only leak is found only because the error exit itself avoids
// the free — exactly the strengths and weaknesses the paper describes for
// value-flow tools (no typestates, no path validation, points-to-style
// aliasing only).
package vfg

import (
	"sort"

	"repro/internal/cir"
	"repro/internal/typestate"
)

// Finding is one leak report.
type Finding struct {
	Alloc *cir.Call
	Exit  cir.Instr
	Fn    *cir.Function
}

// Run detects leaks in every defined function of mod.
func Run(mod *cir.Module) []Finding {
	var out []Finding
	intr := typestate.DefaultIntrinsics()
	for _, fn := range mod.SortedFuncs() {
		if fn.IsDecl() {
			continue
		}
		out = append(out, checkFn(fn, mod, intr)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Alloc.GID() < out[j].Alloc.GID() })
	return out
}

func checkFn(fn *cir.Function, mod *cir.Module, intr *typestate.Intrinsics) []Finding {
	var allocs []*cir.Call
	fn.Instrs(func(in cir.Instr) {
		if c, ok := in.(*cir.Call); ok && c.Dst != nil {
			k := intr.Classify(c.Callee)
			if k == typestate.IntrAlloc || k == typestate.IntrZeroAlloc {
				allocs = append(allocs, c)
			}
		}
	})
	var out []Finding
	for _, alloc := range allocs {
		carriers, slots := carriersOf(fn, alloc)
		if escapes(fn, mod, intr, carriers, slots) {
			continue
		}
		if exit := leakyExit(intr, alloc, carriers); exit != nil {
			out = append(out, Finding{Alloc: alloc, Exit: exit, Fn: fn})
		}
	}
	return out
}

// carriersOf computes the value-flow closure of the allocated pointer:
// registers holding it and local slots it is stored into.
func carriersOf(fn *cir.Function, alloc *cir.Call) (map[cir.Value]bool, map[cir.Value]bool) {
	carriers := map[cir.Value]bool{alloc.Dst: true}
	slots := map[cir.Value]bool{}
	for changed := true; changed; {
		changed = false
		fn.Instrs(func(in cir.Instr) {
			switch t := in.(type) {
			case *cir.Move:
				if carriers[t.Src] && !carriers[t.Dst] {
					carriers[t.Dst] = true
					changed = true
				}
			case *cir.Store:
				if carriers[t.Val] && isAllocaReg(t.Addr) && !slots[t.Addr] {
					slots[t.Addr] = true
					changed = true
				}
			case *cir.Load:
				if slots[t.Addr] && !carriers[t.Dst] {
					carriers[t.Dst] = true
					changed = true
				}
			}
		})
	}
	return carriers, slots
}

// escapes reports whether the pointer leaves the function through a return,
// a store into non-local memory, or an opaque call (matching Saber's
// treatment of externally visible pointers).
func escapes(fn *cir.Function, mod *cir.Module, intr *typestate.Intrinsics, carriers, slots map[cir.Value]bool) bool {
	esc := false
	fn.Instrs(func(in cir.Instr) {
		switch t := in.(type) {
		case *cir.Ret:
			if t.Val != nil && carriers[t.Val] {
				esc = true
			}
		case *cir.Store:
			if carriers[t.Val] && !isAllocaReg(t.Addr) {
				esc = true
			}
		case *cir.Call:
			if intr.Classify(t.Callee) == typestate.IntrFree {
				return
			}
			callee, known := mod.Funcs[t.Callee]
			if known && !callee.IsDecl() {
				// A defined callee receiving the pointer may free or store
				// it; context-insensitive Saber gives up and treats it as
				// escaped too.
				for _, a := range t.Args {
					if carriers[a] {
						esc = true
					}
				}
				return
			}
			for _, a := range t.Args {
				if carriers[a] {
					esc = true
				}
			}
		}
	})
	return esc
}

// leakyExit returns a function exit reachable from the allocation without
// passing a free of a carrying value, or nil.
func leakyExit(intr *typestate.Intrinsics, alloc *cir.Call, carriers map[cir.Value]bool) cir.Instr {
	freesIn := func(b *cir.Block, fromIdx int) bool {
		for i := fromIdx; i < len(b.Instrs); i++ {
			if c, ok := b.Instrs[i].(*cir.Call); ok && intr.Classify(c.Callee) == typestate.IntrFree {
				for _, a := range c.Args {
					if carriers[a] {
						return true
					}
				}
			}
		}
		return false
	}
	// BFS over blocks from the allocation, stopping at blocks that free.
	start := alloc.Block()
	startIdx := 0
	for i, in := range start.Instrs {
		if in == alloc {
			startIdx = i + 1
			break
		}
	}
	type item struct {
		b   *cir.Block
		idx int
	}
	seen := map[*cir.Block]bool{}
	queue := []item{{b: start, idx: startIdx}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if freesIn(it.b, it.idx) {
			continue // this continuation is covered
		}
		if t := it.b.Terminator(); t != nil {
			if _, isRet := t.(*cir.Ret); isRet {
				return t // exit reached with no free on the way
			}
		}
		for _, s := range nonNullSuccs(it.b, carriers) {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, item{b: s, idx: 0})
			}
		}
	}
	return nil
}

// nonNullSuccs returns b's successors, skipping the branch direction on
// which a carrying pointer is NULL (nothing was allocated there) — the one
// refinement real Saber applies to allocation results.
func nonNullSuccs(b *cir.Block, carriers map[cir.Value]bool) []*cir.Block {
	br, ok := b.Terminator().(*cir.CondBr)
	if !ok {
		return b.Succs()
	}
	reg, ok := br.Cond.(*cir.Register)
	if !ok || reg.Def == nil {
		return b.Succs()
	}
	cmp, ok := reg.Def.(*cir.Cmp)
	if !ok {
		return b.Succs()
	}
	var val cir.Value
	switch {
	case cir.IsNullConst(cmp.Y):
		val = cmp.X
	case cir.IsNullConst(cmp.X):
		val = cmp.Y
	default:
		return b.Succs()
	}
	if !carriers[val] {
		return b.Succs()
	}
	switch cmp.Pred {
	case cir.PredEQ:
		return []*cir.Block{br.False}
	case cir.PredNE:
		return []*cir.Block{br.True}
	}
	return b.Succs()
}

func isAllocaReg(v cir.Value) bool {
	r, ok := v.(*cir.Register)
	if !ok || r.Def == nil {
		return false
	}
	_, ok = r.Def.(*cir.Alloca)
	return ok
}
