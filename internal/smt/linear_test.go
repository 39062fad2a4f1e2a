package smt

import (
	"testing"
	"testing/quick"
)

func TestSaturatingArithmetic(t *testing.T) {
	if satAdd(posInf, posInf) != posInf {
		t.Error("posInf + posInf must saturate")
	}
	if satAdd(negInf, negInf) != negInf {
		t.Error("negInf + negInf must saturate")
	}
	if satAdd(1, 2) != 3 {
		t.Error("plain addition broken")
	}
	if satMul(posInf, -1) != negInf || satMul(negInf, -2) != posInf {
		t.Error("infinite multiplication sign broken")
	}
	if satMul(0, posInf) != 0 {
		t.Error("0 * inf must be 0")
	}
	if satMul(1<<40, 1<<40) != posInf {
		t.Error("overflow must saturate up")
	}
	if satMul(-(1<<40), 1<<40) != negInf {
		t.Error("overflow must saturate down")
	}
}

func TestMulRange(t *testing.T) {
	iv := interval{lo: -2, hi: 5}
	r := mulRange(3, iv)
	if r.lo != -6 || r.hi != 15 {
		t.Errorf("3*[-2,5] = [%d,%d]", r.lo, r.hi)
	}
	r = mulRange(-2, iv)
	if r.lo != -10 || r.hi != 4 {
		t.Errorf("-2*[-2,5] = [%d,%d]", r.lo, r.hi)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor int64
	}{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {1, 2, 0}, {-1, 2, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
	ceils := []struct {
		a, b, ceil int64
	}{
		{7, -2, -3}, {-7, -2, 4}, {6, -3, -2}, {1, -2, 0},
	}
	for _, c := range ceils {
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

// Property: floorDiv truly floors for small operands (b > 0).
func TestFloorDivProperty(t *testing.T) {
	f := func(a int16, b uint8) bool {
		bb := int64(b%50) + 1
		aa := int64(a)
		q := floorDiv(aa, bb)
		return q*bb <= aa && (q+1)*bb > aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearizeConstantFolding(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	cases := []struct {
		f    *Atom
		want Result
	}{
		{Eq(Bin("&", Int(6), Int(3)), Int(2)), Sat},
		{Eq(Bin("|", Int(4), Int(1)), Int(5)), Sat},
		{Eq(Bin("^", Int(7), Int(2)), Int(5)), Sat},
		{Eq(Bin("<<", Int(1), Int(4)), Int(16)), Sat},
		{Eq(Bin(">>", Int(16), Int(2)), Int(4)), Sat},
		{Eq(Bin("&", Int(6), Int(3)), Int(3)), Unsat},
	}
	for _, c := range cases {
		if got := solve(s, c.f); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestModelExtraction(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	x, y := ctx.Var("x"), ctx.Var("y")
	res, model := s.Solve([]*Atom{
		Ge(x, Int(10)), Le(x, Int(20)),
		Eq(y, Add(x, Int(5))),
	})
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	xv, yv := model[x.ID], model[y.ID]
	if xv < 10 || xv > 20 {
		t.Errorf("x = %d outside [10,20]", xv)
	}
	if yv != xv+5 {
		t.Errorf("y = %d, want x+5 = %d", yv, xv+5)
	}
}

func TestModelPrefersZero(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	x := ctx.Var("x")
	res, model := s.Solve([]*Atom{Ge(x, Int(-5)), Le(x, Int(5))})
	if res != Sat || model[x.ID] != 0 {
		t.Errorf("model = %v, want x = 0", model)
	}
}
