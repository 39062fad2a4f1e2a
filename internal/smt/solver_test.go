package smt

import (
	"testing"
	"time"
)

func newSV() (*Context, *Solver) {
	ctx := NewContext()
	return ctx, NewSolver(ctx)
}

// solve decides the conjunction of atoms and drops the model.
func solve(s *Solver, atoms ...*Atom) Result {
	res, _ := s.Solve(atoms)
	return res
}

func TestTrivial(t *testing.T) {
	_, s := newSV()
	if got := solve(s); got != Sat {
		t.Errorf("empty conjunction = %v", got)
	}
	if got := solve(s, Eq(Int(0), Int(1))); got != Unsat {
		t.Errorf("0 == 1 = %v", got)
	}
}

func TestConstArith(t *testing.T) {
	_, s := newSV()
	cases := []struct {
		f    *Atom
		want Result
	}{
		{Eq(Int(2), Int(2)), Sat},
		{Eq(Int(2), Int(3)), Unsat},
		{Ne(Int(2), Int(3)), Sat},
		{Lt(Int(2), Int(3)), Sat},
		{Lt(Int(3), Int(3)), Unsat},
		{Le(Int(3), Int(3)), Sat},
		{Gt(Int(3), Int(3)), Unsat},
		{Ge(Int(3), Int(3)), Sat},
		{Eq(Add(Int(2), Int(3)), Int(5)), Sat},
		{Eq(Mul(Int(2), Int(3)), Int(7)), Unsat},
		{Eq(Sub(Int(2), Int(3)), Int(-1)), Sat},
		{Eq(Div(Int(7), Int(2)), Int(3)), Sat},
		{Eq(Rem(Int(7), Int(2)), Int(1)), Sat},
	}
	for _, c := range cases {
		if got := solve(s, c.f); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEqualityContradiction(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	// The Figure 9 pattern: same symbol constrained ==0 and !=0.
	f := []*Atom{Eq(x, Int(0)), Ne(x, Int(0))}
	if got := solve(s, f...); got != Unsat {
		t.Errorf("x==0 && x!=0 = %v, want unsat", got)
	}
}

func TestFigure9Simplified(t *testing.T) {
	// Alias-aware encoding of Figure 9(c): R(q)==NULL, R(p->f)==0,
	// R(t->f)!=0 where p->f and t->f map to ONE symbol.
	ctx, s := newSV()
	q := ctx.Var("q")
	pf := ctx.Var("pf") // shared symbol for p->f and t->f
	f := []*Atom{Eq(q, Int(0)), Eq(pf, Int(0)), Ne(pf, Int(0))}
	if got := solve(s, f...); got != Unsat {
		t.Errorf("figure 9 constraints = %v, want unsat", got)
	}
	// The alias-UNAWARE encoding with distinct symbols and no implicit
	// field constraints is (wrongly) satisfiable — the false positive the
	// paper attributes to missing alias information.
	pf2 := ctx.Var("pf2")
	tf := ctx.Var("tf")
	g := []*Atom{Eq(q, Int(0)), Eq(pf2, Int(0)), Ne(tf, Int(0))}
	if got := solve(s, g...); got != Sat {
		t.Errorf("unaware encoding = %v, want sat", got)
	}
}

func TestOffsetChains(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	// x = y+1, y = z+1, z = 5 => x = 7; x != 7 is unsat.
	f := []*Atom{
		Eq(x, Add(y, Int(1))),
		Eq(y, Add(z, Int(1))),
		Eq(z, Int(5)),
		Ne(x, Int(7)),
	}
	if got := solve(s, f...); got != Unsat {
		t.Errorf("offset chain = %v, want unsat", got)
	}
	g := []*Atom{
		Eq(x, Add(y, Int(1))),
		Eq(y, Add(z, Int(1))),
		Eq(z, Int(5)),
		Eq(x, Int(7)),
	}
	if got := solve(s, g...); got != Sat {
		t.Errorf("consistent chain = %v, want sat", got)
	}
}

func TestIntervalReasoning(t *testing.T) {
	ctx, s := newSV()
	x, y := ctx.Var("x"), ctx.Var("y")
	cases := []struct {
		name string
		f    []*Atom
		want Result
	}{
		{"bounded-box", []*Atom{Ge(x, Int(0)), Le(x, Int(10)), Gt(x, Int(10))}, Unsat},
		{"bounded-ok", []*Atom{Ge(x, Int(0)), Le(x, Int(10)), Gt(x, Int(9))}, Sat},
		{"sum-bound", []*Atom{Ge(x, Int(5)), Ge(y, Int(5)), Lt(Add(x, y), Int(10))}, Unsat},
		{"sum-ok", []*Atom{Ge(x, Int(5)), Ge(y, Int(5)), Le(Add(x, y), Int(10))}, Sat},
		{"scaled", []*Atom{Eq(Mul(Int(2), x), Int(7))}, Unsat},                   // integral floor/ceil bounds refute 2x == 7
		{"neg-coef", []*Atom{Le(Sub(Int(0), x), Int(-5)), Le(x, Int(4))}, Unsat}, // -x <= -5 => x >= 5
	}
	for _, c := range cases {
		if got := solve(s, c.f...); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTransitiveOrdering(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	// A strict cycle is unsatisfiable; interval propagation alone cannot
	// refute unbounded cycles, so Unknown-as-Sat is acceptable, but adding
	// one anchor makes it provable.
	anchored := []*Atom{Lt(x, y), Lt(y, z), Lt(z, x), Ge(x, Int(0)), Le(z, Int(2))}
	if got := solve(s, anchored...); got != Unsat {
		t.Errorf("anchored cycle = %v, want unsat", got)
	}
}

func TestOpaqueCongruence(t *testing.T) {
	ctx, s := newSV()
	x, y := ctx.Var("x"), ctx.Var("y")
	// x*y is non-linear: both occurrences intern to the same opaque symbol,
	// so (x*y) != (x*y) must be unsat.
	if got := solve(s, Ne(Mul(x, y), Mul(x, y))); got != Unsat {
		t.Errorf("congruence = %v, want unsat", got)
	}
	// Different non-linear terms stay independent.
	if got := solve(s, Ne(Mul(x, y), Mul(y, ctx.Var("z")))); got != Sat {
		t.Errorf("distinct opaque = %v, want sat", got)
	}
}

// TestStatsCounting pins how DeadlinePolls counts: a conjunction shorter
// than one poll stride takes no in-pass poll, and the counter accumulates
// across queries on one solver.
func TestStatsCounting(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	solve(s, Ge(x, Int(1)), Ne(x, Int(2)))
	if s.Stats.DeadlinePolls != 0 {
		t.Errorf("short conjunction took %d in-pass polls", s.Stats.DeadlinePolls)
	}
	vars := make([]*Var, 2*pollStride+2)
	for i := range vars {
		vars[i] = ctx.Var("v")
	}
	var chain []*Atom
	for i := 0; i+1 < len(vars); i++ {
		chain = append(chain, Le(vars[i], vars[i+1]))
	}
	solve(s, chain...)
	once := s.Stats.DeadlinePolls
	if once == 0 {
		t.Fatal("long conjunction took no in-pass poll")
	}
	solve(s, chain...)
	if s.Stats.DeadlinePolls != 2*once {
		t.Errorf("polls after two identical queries = %d, want %d", s.Stats.DeadlinePolls, 2*once)
	}
}

func TestDifferenceCycleUnsatWithoutAnchor(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	// Strict ordering cycle with NO absolute bounds: needs the
	// difference-constraint pass, interval propagation alone cannot see it.
	f := []*Atom{Lt(x, y), Lt(y, z), Lt(z, x)}
	if got := solve(s, f...); got != Unsat {
		t.Errorf("unanchored cycle = %v, want unsat", got)
	}
	// Non-strict cycles are satisfiable (all equal).
	g := []*Atom{Le(x, y), Le(y, z), Le(z, x)}
	if got := solve(s, g...); got != Sat {
		t.Errorf("non-strict cycle = %v, want sat", got)
	}
}

func TestDifferenceChainWithOffsets(t *testing.T) {
	ctx, s := newSV()
	a, b, c := ctx.Var("a"), ctx.Var("b"), ctx.Var("c")
	// a <= b - 3, b <= c - 3, c <= a + 5  =>  a <= a - 1: unsat.
	f := []*Atom{
		Le(a, Sub(b, Int(3))),
		Le(b, Sub(c, Int(3))),
		Le(c, Add(a, Int(5))),
	}
	if got := solve(s, f...); got != Unsat {
		t.Errorf("offset chain = %v, want unsat", got)
	}
	// Loosening the last bound makes it satisfiable.
	g := []*Atom{
		Le(a, Sub(b, Int(3))),
		Le(b, Sub(c, Int(3))),
		Le(c, Add(a, Int(6))),
	}
	if got := solve(s, g...); got != Sat {
		t.Errorf("loose chain = %v, want sat", got)
	}
}

// TestSolverInterruption pins the deadline/cancellation contract: an
// interrupted query answers Unknown (conservative — FeasibleVerdict keeps
// the bug), latches Interrupted so callers know not to memoize it, and the
// flag resets on the next query.
func TestSolverInterruption(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	f := []*Atom{Gt(x, Int(0)), Lt(x, Int(10))}

	done := make(chan struct{})
	close(done)
	s.Done = done
	if got := solve(s, f...); got != Unknown {
		t.Errorf("closed-Done solve = %v, want unknown", got)
	}
	if !s.Interrupted {
		t.Error("Interrupted not latched by Done")
	}

	s.Done = nil
	s.Deadline = time.Now().Add(-time.Second)
	if got := solve(s, f...); got != Unknown {
		t.Errorf("past-deadline solve = %v, want unknown", got)
	}
	if !s.Interrupted {
		t.Error("Interrupted not latched by Deadline")
	}

	// A fresh query with the pressure removed resets the flag and solves.
	s.Deadline = time.Time{}
	if got := solve(s, f...); got != Sat {
		t.Errorf("unpressured solve = %v, want sat", got)
	}
	if s.Interrupted {
		t.Error("Interrupted leaked across queries")
	}
}

// TestAtomString pins the rendering the oracle tests print counterexamples
// with.
func TestAtomString(t *testing.T) {
	ctx := NewContext()
	a := Lt(Add(ctx.Var("x"), Int(1)), ctx.Var("y"))
	if got, want := a.String(), "(x#1 + 1) < y#2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
