package smt

import "testing"

// BenchmarkConjunction measures solving path conjunctions. path is a
// typical alias-aware one: an 8-link offset chain, bounds, one
// disequality. chain-2000 states each link as v[j-1] == v[j] - 1, which
// makes the newer variable the root at every union, so the union-find
// grows one 2,000-deep chain; without path compression, resolving every
// member to its root (as the witness model does) turns quadratic.
func BenchmarkConjunction(b *testing.B) {
	for _, c := range []struct {
		name  string
		links int
		link  func(prev, next *Var) *Atom
		hi    int64
	}{
		{"path", 8, func(prev, next *Var) *Atom { return Eq(next, Add(prev, Int(1))) }, 100},
		{"chain-2000", 2000, func(prev, next *Var) *Atom { return Eq(prev, Sub(next, Int(1))) }, 2100},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := NewContext()
				s := NewSolver(ctx)
				vars := make([]*Var, c.links)
				for j := range vars {
					vars[j] = ctx.Var("v")
				}
				fs := []*Atom{Ge(vars[0], Int(0))}
				for j := 1; j < len(vars); j++ {
					fs = append(fs, c.link(vars[j-1], vars[j]))
				}
				fs = append(fs, Le(vars[len(vars)-1], Int(c.hi)), Ne(vars[3], Int(-5)))
				if res, _ := s.Solve(fs); res != Sat {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

// keyPath is BenchmarkFormulaKey's conjunction: an 8-link offset chain,
// bounds and one disequality, the shape of an alias-aware path condition.
func keyPath() []*Atom {
	ctx := NewContext()
	vars := make([]*Var, 8)
	for j := range vars {
		vars[j] = ctx.Var("v")
	}
	fs := []*Atom{Ge(vars[0], Int(0))}
	for j := 1; j < len(vars); j++ {
		fs = append(fs, Eq(vars[j], Add(vars[j-1], Int(1))))
	}
	return append(fs, Le(vars[len(vars)-1], Int(100)), Ne(vars[3], Int(-5)))
}

// BenchmarkFormulaKey measures computing the structural key of a path
// conjunction — the verdict cache pays this on every lookup, so it must stay
// far below solve cost.
func BenchmarkFormulaKey(b *testing.B) {
	fs := keyPath()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Key(fs) == "" {
			b.Fatal("empty key")
		}
	}
}

// TestKeyAllocBudget guards the verdict-cache key: Key of keyPath's ten
// atoms builds into one presized buffer, so it allocates that buffer and
// the string, not a string per term (50 allocations when every term key
// went through fmt).
func TestKeyAllocBudget(t *testing.T) {
	fs := keyPath()
	const budget = 3
	if avg := testing.AllocsPerRun(100, func() { Key(fs) }); avg > budget {
		t.Errorf("Key allocates %.1f/op, budget %d", avg, budget)
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
	base := []*Atom{Ge(vars[0], Int(0)), Le(vars[0], Int(100))}
	for j := 1; j < len(vars); j++ {
		base = append(base, Eq(vars[j], Add(vars[j-1], Int(1))))
	}
	branch := []*Atom{Ge(vars[7], Int(3)), Ne(vars[4], Int(9)), Le(vars[2], Int(50))}
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
// list — currently ~9 small allocations per atom), never anything
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
	const budget = 32 // two atoms, measured 18/op
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
		if res, _ := s.Solve([]*Atom{Eq(x, Int(0)), Ne(x, Int(0))}); res != Unsat {
			b.Fatal("should refute")
		}
	}
}
