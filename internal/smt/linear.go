package smt

import (
	"math"
	"sort"
)

// lin is a linear expression sum(coef[v]*v) + k.
type lin struct {
	coef map[int]int64 // var ID -> coefficient
	k    int64
}

func newLin() *lin { return &lin{coef: make(map[int]int64)} }

func (l *lin) addVar(id, mult int64) {
	l.coef[int(id)] += mult
	if l.coef[int(id)] == 0 {
		delete(l.coef, int(id))
	}
}

func (l *lin) add(o *lin, mult int64) {
	for id, c := range o.coef {
		l.coef[id] += c * mult
		if l.coef[id] == 0 {
			delete(l.coef, id)
		}
	}
	l.k += o.k * mult
}

// neg returns -l.
func (l *lin) neg() *lin {
	n := newLin()
	n.add(l, -1)
	return n
}

func (l *lin) isConst() bool { return len(l.coef) == 0 }

// vars returns the variable IDs in deterministic order.
func (l *lin) vars() []int {
	ids := make([]int, 0, len(l.coef))
	for id := range l.coef {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// linearizeTerm converts a term to a linear expression, delegating
// non-linear subterms to opaque variables interned in ctx, so identical
// non-linear terms map to the same variable.
func linearizeTerm(ctx *Context, t Term) *lin {
	out := newLin()
	switch tt := t.(type) {
	case *IntLit:
		out.k = tt.Val
	case *Var:
		out.addVar(int64(tt.ID), 1)
	case *BinTerm:
		x := linearizeTerm(ctx, tt.X)
		y := linearizeTerm(ctx, tt.Y)
		switch tt.Op {
		case "+":
			out.add(x, 1)
			out.add(y, 1)
		case "-":
			out.add(x, 1)
			out.add(y, -1)
		case "*":
			switch {
			case x.isConst():
				out.add(y, x.k)
			case y.isConst():
				out.add(x, y.k)
			default:
				out.addVar(int64(ctx.OpaqueFor(t).ID), 1)
			}
		case "/":
			if x.isConst() && y.isConst() && y.k != 0 {
				out.k = x.k / y.k
			} else {
				out.addVar(int64(ctx.OpaqueFor(t).ID), 1)
			}
		case "%":
			if x.isConst() && y.isConst() && y.k != 0 {
				out.k = x.k % y.k
			} else {
				out.addVar(int64(ctx.OpaqueFor(t).ID), 1)
			}
		default: // bitwise and shifts: constant-fold or opaque
			if x.isConst() && y.isConst() {
				out.k = foldBits(tt.Op, x.k, y.k)
			} else {
				out.addVar(int64(ctx.OpaqueFor(t).ID), 1)
			}
		}
	}
	return out
}

func foldBits(op string, a, b int64) int64 {
	switch op {
	case "&":
		return a & b
	case "|":
		return a | b
	case "^":
		return a ^ b
	case "<<":
		if b >= 0 && b < 63 {
			return a << uint(b)
		}
	case ">>":
		if b >= 0 && b < 63 {
			return a >> uint(b)
		}
	}
	return 0
}

// interval is a closed integer interval with saturating endpoints.
type interval struct {
	lo, hi int64
}

const (
	negInf = math.MinInt64 / 4
	posInf = math.MaxInt64 / 4
)

func fullInterval() interval { return interval{lo: negInf, hi: posInf} }

func (iv interval) empty() bool { return iv.lo > iv.hi }

func (iv interval) singleton() (int64, bool) {
	if iv.lo == iv.hi {
		return iv.lo, true
	}
	return 0, false
}

// satAdd adds with saturation at the infinity sentinels.
func satAdd(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 || s >= posInf {
		return posInf
	}
	if a < 0 && b < 0 && s > 0 || s <= negInf {
		return negInf
	}
	return s
}

// satMul multiplies with saturation.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == negInf || a == posInf || b == negInf || b == posInf {
		if (a > 0) == (b > 0) {
			return posInf
		}
		return negInf
	}
	p := a * b
	if p/b != a || p >= posInf || p <= negInf {
		if (a > 0) == (b > 0) {
			return posInf
		}
		return negInf
	}
	return p
}

// mulRange returns the interval of c*x for x in iv.
func mulRange(c int64, iv interval) interval {
	a := satMul(c, iv.lo)
	b := satMul(c, iv.hi)
	if a > b {
		a, b = b, a
	}
	return interval{lo: a, hi: b}
}
