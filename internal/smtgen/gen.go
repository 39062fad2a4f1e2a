// Package smtgen draws small random smt conjunctions and decides them by
// brute force over a bounded box. Tests and fuzz targets use it as an
// oracle: the solver's Unsat is sound only if no assignment in the box
// satisfies the conjunction, so every Unsat the solver or the cursor
// reports can be checked by enumeration.
package smtgen

import (
	"fmt"
	"math/rand"

	"repro/internal/smt"
)

// Box is the bound of the enumeration domain: every variable ranges over
// [-Box, Box].
const Box = 6

var preds = []string{"==", "!=", "<", "<=", ">", ">="}

// Gen draws conjunctions over one to three fresh variables.
type Gen struct {
	rng  *rand.Rand
	Vars []*smt.Var
}

// New returns a generator seeded with seed whose variables are allocated
// in ctx.
func New(ctx *smt.Context, seed int64) *Gen {
	g := &Gen{rng: rand.New(rand.NewSource(seed))}
	for i := g.rng.Intn(3); i >= 0; i-- {
		g.Vars = append(g.Vars, ctx.Var(fmt.Sprintf("v%d", len(g.Vars))))
	}
	return g
}

func (g *Gen) lit(lo, hi int) smt.Term { return smt.Int(int64(lo + g.rng.Intn(hi-lo+1))) }

// divisor is a nonzero literal in [-3, 3].
func (g *Gen) divisor() smt.Term {
	d := int64(1 + g.rng.Intn(3))
	if g.rng.Intn(2) == 0 {
		d = -d
	}
	return smt.Int(d)
}

// Term draws an integer term of at most depth nested operators: variables,
// literals, +, - and *, and / and % by a nonzero literal.
func (g *Gen) Term(depth int) smt.Term {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.lit(-4, 4)
		}
		return g.Vars[g.rng.Intn(len(g.Vars))]
	}
	switch g.rng.Intn(5) {
	case 0:
		return smt.Add(g.Term(depth-1), g.Term(depth-1))
	case 1:
		return smt.Sub(g.Term(depth-1), g.Term(depth-1))
	case 2:
		return smt.Mul(g.Term(depth-1), g.Term(depth-1))
	case 3:
		return smt.Div(g.Term(depth-1), g.divisor())
	default:
		return smt.Rem(g.Term(depth-1), g.divisor())
	}
}

// Atom draws a comparison of two terms under one of the six predicates.
func (g *Gen) Atom() *smt.Atom {
	return &smt.Atom{Pred: preds[g.rng.Intn(len(preds))], X: g.Term(2), Y: g.Term(1)}
}

// Conj draws a conjunction of one to five atoms.
func (g *Gen) Conj() []*smt.Atom {
	atoms := make([]*smt.Atom, 1+g.rng.Intn(5))
	for i := range atoms {
		atoms[i] = g.Atom()
	}
	return atoms
}

// EvalTerm evaluates t under env (variable ID → value) with Go's
// truncating division and remainder.
func EvalTerm(t smt.Term, env map[int]int64) int64 {
	switch tt := t.(type) {
	case *smt.IntLit:
		return tt.Val
	case *smt.Var:
		return env[tt.ID]
	case *smt.BinTerm:
		x, y := EvalTerm(tt.X, env), EvalTerm(tt.Y, env)
		switch tt.Op {
		case "+":
			return x + y
		case "-":
			return x - y
		case "*":
			return x * y
		case "/":
			return x / y
		case "%":
			return x % y
		}
		panic("smtgen: cannot evaluate operator " + tt.Op)
	}
	panic(fmt.Sprintf("smtgen: cannot evaluate term %T", t))
}

// Eval reports whether every atom holds under env.
func Eval(atoms []*smt.Atom, env map[int]int64) bool {
	for _, a := range atoms {
		if !evalAtom(a, env) {
			return false
		}
	}
	return true
}

func evalAtom(a *smt.Atom, env map[int]int64) bool {
	x, y := EvalTerm(a.X, env), EvalTerm(a.Y, env)
	switch a.Pred {
	case "==":
		return x == y
	case "!=":
		return x != y
	case "<":
		return x < y
	case "<=":
		return x <= y
	case ">":
		return x > y
	case ">=":
		return x >= y
	}
	panic("smtgen: unknown predicate " + a.Pred)
}

// Model searches [-Box, Box]^len(vars) for an assignment satisfying every
// atom and returns the first one found.
func Model(atoms []*smt.Atom, vars []*smt.Var) (map[int]int64, bool) {
	env := make(map[int]int64, len(vars))
	var search func(i int) bool
	search = func(i int) bool {
		if i == len(vars) {
			return Eval(atoms, env)
		}
		for v := int64(-Box); v <= Box; v++ {
			env[vars[i].ID] = v
			if search(i + 1) {
				return true
			}
		}
		return false
	}
	if search(0) {
		return env, true
	}
	return nil, false
}
