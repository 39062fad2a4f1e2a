package smt

import "testing"

// BenchmarkConjunction measures a typical alias-aware path conjunction
// (equalities, bounds, one disequality).
func BenchmarkConjunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := NewContext()
		s := NewSolver(ctx)
		vars := make([]*Var, 8)
		for j := range vars {
			vars[j] = ctx.Var("v")
		}
		fs := []Formula{Ge(vars[0], Int(0))}
		for j := 1; j < len(vars); j++ {
			fs = append(fs, Eq(vars[j], Add(vars[j-1], Int(1))))
		}
		fs = append(fs, Le(vars[len(vars)-1], Int(100)), Ne(vars[3], Int(-5)))
		if s.Solve(And(fs...)) != Sat {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkFormulaKey measures computing the canonical structural key of a
// path conjunction — the verdict cache pays this on every lookup, so it must
// stay far below solve cost.
func BenchmarkFormulaKey(b *testing.B) {
	ctx := NewContext()
	vars := make([]*Var, 8)
	for j := range vars {
		vars[j] = ctx.Var("v")
	}
	fs := []Formula{Ge(vars[0], Int(0))}
	for j := 1; j < len(vars); j++ {
		fs = append(fs, Eq(vars[j], Add(vars[j-1], Int(1))))
	}
	fs = append(fs, Le(vars[len(vars)-1], Int(100)), Ne(vars[3], Int(-5)))
	f := And(fs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkCursorPush measures the incremental feasibility cursor in its
// DFS duty cycle: checkpoint, push a handful of branch conditions, roll
// back — the pattern the batched Stage-2 screen runs at every trie step.
// Steady-state allocs/op are bounded per pushed atom (see the guard test
// below): pushes allocate the linearized constraint and its canonical form,
// nothing proportional to the facts already held.
func BenchmarkCursorPush(b *testing.B) {
	ctx := NewContext()
	c := NewCursor(ctx)
	vars := make([]*Var, 8)
	for j := range vars {
		vars[j] = ctx.Var("v")
	}
	base := []Formula{Ge(vars[0], Int(0)), Le(vars[0], Int(100))}
	for j := 1; j < len(vars); j++ {
		base = append(base, Eq(vars[j], Add(vars[j-1], Int(1))))
	}
	branch := []Formula{Ge(vars[7], Int(3)), Ne(vars[4], Int(9)), Le(vars[2], Int(50))}
	for _, f := range base {
		if c.Push(f) != Sat {
			b.Fatal("base facts refuted")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := c.Checkpoint()
		for _, f := range branch {
			if c.Push(f) != Sat {
				b.Fatal("feasible branch refuted")
			}
		}
		c.Rollback(m)
	}
}

// TestCursorPushSteadyStateAllocs guards the cursor's hot-loop allocation
// behavior: a warmed cursor's checkpoint/push/rollback cycle allocates only
// the per-atom constraint objects (linearized form, canonical form, root
// list — currently ~12 small allocations per atom), never anything
// proportional to the facts it already holds. The budget below is headroom
// over the measured steady state; crossing it means a per-fact scan or copy
// crept into the push path.
func TestCursorPushSteadyStateAllocs(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y := ctx.Var("x"), ctx.Var("y")
	if c.Push(Ge(x, Int(0))) != Sat || c.Push(Eq(y, Add(x, Int(1)))) != Sat {
		t.Fatal("base facts refuted")
	}
	f1, f2 := Le(y, Int(10)), Ne(x, Int(3))
	cycle := func() {
		m := c.Checkpoint()
		c.Push(f1)
		c.Push(f2)
		c.Rollback(m)
	}
	cycle()           // warm trail/constraint storage
	const budget = 32 // two atoms, measured 24/op
	if avg := testing.AllocsPerRun(100, cycle); avg > budget {
		t.Errorf("cursor push cycle allocates %.1f/op in steady state, budget %d", avg, budget)
	}
}

// BenchmarkUnsatRefutation measures proving a Figure 9-style contradiction.
func BenchmarkUnsatRefutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := NewContext()
		s := NewSolver(ctx)
		x := ctx.Var("x")
		if s.Solve(And(Eq(x, Int(0)), Ne(x, Int(0)))) != Unsat {
			b.Fatal("should refute")
		}
	}
}
