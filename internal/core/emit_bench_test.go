package core

import (
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/minicc"
	"repro/internal/typestate"
)

// BenchmarkEmitCandidate is the allocation regression guard for the
// path-suffix arena: emitCandidate snapshots a suffix of the live path into
// every open memo-recording frame, and those copies must come from the
// per-entry arena, not per-call make calls. The bench holds two open
// recording frames over a ~64-step path — the shape of a deep DFS with
// active memoization — so a regression
// back to per-suffix heap allocation shows up directly in allocs/op.
func BenchmarkEmitCandidate(b *testing.B) {
	mod, err := minicc.LowerAll("bench", map[string]string{"bench.c": capsuleSrc})
	if err != nil {
		b.Fatal(err)
	}
	var steps []PathStep
	var fn *cir.Function
	for _, f := range mod.SortedFuncs() {
		if fn == nil {
			fn = f
		}
		f.Instrs(func(in cir.Instr) {
			steps = append(steps, PathStep{Instr: in, Taken: true})
		})
	}
	for len(steps) < 64 {
		steps = append(steps, steps...)
	}
	steps = steps[:64]

	e := NewEngine(mod, Config{Checkers: typestate.CoreCheckers()})
	e.g = aliasgraph.New()
	e.tracker = typestate.NewTracker(e.Cfg.Checkers, e.bugSink)
	e.path = steps
	e.frames = append(e.frames, &frame{fn: fn, fid: 1})
	e.recStack = append(e.recStack,
		recFrame{pathLen: 0},
		recFrame{pathLen: len(steps) / 2},
	)

	bugInstr := steps[len(steps)-1].Instr
	origin := steps[0].Instr.GID()

	// Seed the dedup entry so iterations exercise the steady-state path
	// (suffix capture into open frames plus the duplicate fold).
	e.emitCandidate(0, origin, bugInstr, nil, nil, nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.suffixArena.reset()
		for j := range e.recStack {
			e.recStack[j].emits = e.recStack[j].emits[:0]
			e.recStack[j].poisoned = false
		}
		e.emitCandidate(0, origin, bugInstr, nil, nil, nil)
	}
}
