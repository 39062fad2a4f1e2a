package smt

import (
	"testing"
	"time"
)

func newSV() (*Context, *Solver) {
	ctx := NewContext()
	return ctx, NewSolver(ctx)
}

func TestTrivial(t *testing.T) {
	_, s := newSV()
	if got := s.Solve(True); got != Sat {
		t.Errorf("true = %v", got)
	}
	if got := s.Solve(False); got != Unsat {
		t.Errorf("false = %v", got)
	}
	if got := s.Solve(Not(True)); got != Unsat {
		t.Errorf("not true = %v", got)
	}
}

func TestConstArith(t *testing.T) {
	_, s := newSV()
	cases := []struct {
		f    Formula
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
		if got := s.Solve(c.f); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEqualityContradiction(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	// The Figure 9 pattern: same symbol constrained ==0 and !=0.
	f := And(Eq(x, Int(0)), Ne(x, Int(0)))
	if got := s.Solve(f); got != Unsat {
		t.Errorf("x==0 && x!=0 = %v, want unsat", got)
	}
}

func TestFigure9Simplified(t *testing.T) {
	// Alias-aware encoding of Figure 9(c): R(q)==NULL, R(p->f)==0,
	// R(t->f)!=0 where p->f and t->f map to ONE symbol.
	ctx, s := newSV()
	q := ctx.Var("q")
	pf := ctx.Var("pf") // shared symbol for p->f and t->f
	f := And(Eq(q, Int(0)), Eq(pf, Int(0)), Ne(pf, Int(0)))
	if got := s.Solve(f); got != Unsat {
		t.Errorf("figure 9 constraints = %v, want unsat", got)
	}
	// The alias-UNAWARE encoding with distinct symbols and no implicit
	// field constraints is (wrongly) satisfiable — the false positive the
	// paper attributes to missing alias information.
	pf2 := ctx.Var("pf2")
	tf := ctx.Var("tf")
	g := And(Eq(q, Int(0)), Eq(pf2, Int(0)), Ne(tf, Int(0)))
	if got := s.Solve(g); got != Sat {
		t.Errorf("unaware encoding = %v, want sat", got)
	}
}

func TestOffsetChains(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	// x = y+1, y = z+1, z = 5 => x = 7; x != 7 is unsat.
	f := And(
		Eq(x, Add(y, Int(1))),
		Eq(y, Add(z, Int(1))),
		Eq(z, Int(5)),
		Ne(x, Int(7)),
	)
	if got := s.Solve(f); got != Unsat {
		t.Errorf("offset chain = %v, want unsat", got)
	}
	g := And(
		Eq(x, Add(y, Int(1))),
		Eq(y, Add(z, Int(1))),
		Eq(z, Int(5)),
		Eq(x, Int(7)),
	)
	if got := s.Solve(g); got != Sat {
		t.Errorf("consistent chain = %v, want sat", got)
	}
}

func TestIntervalReasoning(t *testing.T) {
	ctx, s := newSV()
	x, y := ctx.Var("x"), ctx.Var("y")
	cases := []struct {
		name string
		f    Formula
		want Result
	}{
		{"bounded-box", And(Ge(x, Int(0)), Le(x, Int(10)), Gt(x, Int(10))), Unsat},
		{"bounded-ok", And(Ge(x, Int(0)), Le(x, Int(10)), Gt(x, Int(9))), Sat},
		{"sum-bound", And(Ge(x, Int(5)), Ge(y, Int(5)), Lt(Add(x, y), Int(10))), Unsat},
		{"sum-ok", And(Ge(x, Int(5)), Ge(y, Int(5)), Le(Add(x, y), Int(10))), Sat},
		{"scaled", And(Eq(Mul(Int(2), x), Int(7))), Unsat},                   // integral floor/ceil bounds refute 2x == 7
		{"neg-coef", And(Le(Sub(Int(0), x), Int(-5)), Le(x, Int(4))), Unsat}, // -x <= -5 => x >= 5
	}
	for _, c := range cases {
		if got := s.Solve(c.f); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTransitiveOrdering(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	f := And(Lt(x, y), Lt(y, z), Lt(z, x))
	// A strict cycle is unsatisfiable; interval propagation alone cannot
	// refute unbounded cycles, so Unknown-as-Sat is acceptable, but adding
	// one anchor makes it provable.
	anchored := And(f, Ge(x, Int(0)), Le(z, Int(2)))
	if got := s.Solve(anchored); got != Unsat {
		t.Errorf("anchored cycle = %v, want unsat", got)
	}
}

func TestDisjunction(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	f := And(
		Or(Eq(x, Int(1)), Eq(x, Int(2))),
		Ne(x, Int(1)),
		Ne(x, Int(2)),
	)
	if got := s.Solve(f); got != Unsat {
		t.Errorf("disjunction = %v, want unsat", got)
	}
	g := And(Or(Eq(x, Int(1)), Eq(x, Int(2))), Ne(x, Int(1)))
	if got := s.Solve(g); got != Sat {
		t.Errorf("disjunction sat case = %v, want sat", got)
	}
}

func TestNotPushing(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	f := And(Not(Lt(x, Int(5))), Lt(x, Int(5)))
	if got := s.Solve(f); got != Unsat {
		t.Errorf("not-pushed = %v", got)
	}
	g := Not(And(Lt(x, Int(5)), Ge(x, Int(5)))) // negation of a contradiction
	if got := s.Solve(g); got != Sat {
		t.Errorf("negated contradiction = %v", got)
	}
}

func TestOpaqueCongruence(t *testing.T) {
	ctx, s := newSV()
	x, y := ctx.Var("x"), ctx.Var("y")
	// x*y is non-linear: both occurrences intern to the same opaque symbol,
	// so (x*y) != (x*y) must be unsat.
	f := Ne(Mul(x, y), Mul(x, y))
	if got := s.Solve(f); got != Unsat {
		t.Errorf("congruence = %v, want unsat", got)
	}
	// Different non-linear terms stay independent.
	g := Ne(Mul(x, y), Mul(y, ctx.Var("z")))
	if got := s.Solve(g); got != Sat {
		t.Errorf("distinct opaque = %v, want sat", got)
	}
}

func TestDNFCapGivesUnknownNotUnsat(t *testing.T) {
	ctx, s := newSV()
	s.MaxCubes = 4
	x := ctx.Var("x")
	// 2^6 cubes, all satisfiable — must not claim Unsat after truncation.
	var fs []Formula
	for i := 0; i < 6; i++ {
		fs = append(fs, Or(Ge(x, Int(0)), Ge(x, Int(1))))
	}
	got := s.Solve(&AndF{Fs: fs})
	if got == Unsat {
		t.Errorf("capped expansion must not answer unsat")
	}
}

func TestStatsCounting(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	s.Solve(And(Eq(x, Int(1)), Ne(x, Int(2))))
	if s.Stats.Queries != 1 || s.Stats.Conjunctions != 1 || s.Stats.Atoms != 2 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// Property: nnf is involution-stable — double negation yields the same
// satisfiability verdict.
func TestDoubleNegationProperty(t *testing.T) {
	ctx, s := newSV()
	x := ctx.Var("x")
	fs := []Formula{
		Eq(x, Int(3)),
		And(Lt(x, Int(2)), Gt(x, Int(5))),
		Or(Eq(x, Int(1)), Ne(x, Int(1))),
	}
	for _, f := range fs {
		if s.Solve(f) != s.Solve(Not(Not(f))) {
			t.Errorf("double negation changes verdict for %s", f)
		}
	}
}

func TestDifferenceCycleUnsatWithoutAnchor(t *testing.T) {
	ctx, s := newSV()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	// Strict ordering cycle with NO absolute bounds: needs the
	// difference-constraint pass, interval propagation alone cannot see it.
	f := And(Lt(x, y), Lt(y, z), Lt(z, x))
	if got := s.Solve(f); got != Unsat {
		t.Errorf("unanchored cycle = %v, want unsat", got)
	}
	// Non-strict cycles are satisfiable (all equal).
	g := And(Le(x, y), Le(y, z), Le(z, x))
	if got := s.Solve(g); got != Sat {
		t.Errorf("non-strict cycle = %v, want sat", got)
	}
}

func TestDifferenceChainWithOffsets(t *testing.T) {
	ctx, s := newSV()
	a, b, c := ctx.Var("a"), ctx.Var("b"), ctx.Var("c")
	// a <= b - 3, b <= c - 3, c <= a + 5  =>  a <= a - 1: unsat.
	f := And(
		Le(a, Sub(b, Int(3))),
		Le(b, Sub(c, Int(3))),
		Le(c, Add(a, Int(5))),
	)
	if got := s.Solve(f); got != Unsat {
		t.Errorf("offset chain = %v, want unsat", got)
	}
	// Loosening the last bound makes it satisfiable.
	g := And(
		Le(a, Sub(b, Int(3))),
		Le(b, Sub(c, Int(3))),
		Le(c, Add(a, Int(6))),
	)
	if got := s.Solve(g); got != Sat {
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
	f := And(Gt(x, Int(0)), Lt(x, Int(10)))

	done := make(chan struct{})
	close(done)
	s.Done = done
	if got := s.Solve(f); got != Unknown {
		t.Errorf("closed-Done solve = %v, want unknown", got)
	}
	if !s.Interrupted {
		t.Error("Interrupted not latched by Done")
	}

	s.Done = nil
	s.Deadline = time.Now().Add(-time.Second)
	if got := s.Solve(f); got != Unknown {
		t.Errorf("past-deadline solve = %v, want unknown", got)
	}
	if !s.Interrupted {
		t.Error("Interrupted not latched by Deadline")
	}

	// A fresh query with the pressure removed resets the flag and solves.
	s.Deadline = time.Time{}
	if got := s.Solve(f); got != Sat {
		t.Errorf("unpressured solve = %v, want sat", got)
	}
	if s.Interrupted {
		t.Error("Interrupted leaked across queries")
	}
}
