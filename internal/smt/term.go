// Package smt is a small SMT solver for the constraint fragment PATA's
// path validation emits (Table 3 of the paper): per-path conjunctions of
// linear integer (in)equalities over alias-class symbols. A conjunction of
// atoms is the only thing it decides; Stage 2 never builds a disjunction or
// a negation, because the frontend lowers && and || to branches and each
// branch contributes one atom.
//
// One decision core, Cursor, holds an offset union-find over equalities,
// per-class intervals and the stored inequalities and disequalities. Solver
// decides a conjunction on a fresh Cursor: equality absorption, a
// difference-bound negative-cycle check, interval (bound) propagation to a
// fixpoint, then disequality checking. The batched Stage-2 screen pushes
// atoms into one Cursor incrementally and calls the same rule functions, so
// its Unsat is a subset of the Solver's. UNSAT answers are sound; SAT
// answers may be over-approximate (the paper accepts the same
// incompleteness for Z3 on complex arithmetic, §5.2) — a "SAT" path keeps
// its bug report, which is the conservative direction for a bug finder.
package smt

import (
	"fmt"
	"strconv"
)

// Term is an integer-sorted SMT term.
type Term interface {
	String() string
	// appendKey appends the term's structural key, for congruence-lite
	// memoization and the verdict cache, to b.
	appendKey(b []byte) []byte
}

// Var is an integer symbol. Create through Context.Var so IDs are unique.
type Var struct {
	ID   int
	Name string
}

func (v *Var) String() string            { return fmt.Sprintf("%s#%d", v.Name, v.ID) }
func (v *Var) appendKey(b []byte) []byte { return strconv.AppendInt(append(b, 'v'), int64(v.ID), 10) }

// IntLit is an integer literal.
type IntLit struct {
	Val int64
}

func (l *IntLit) String() string            { return fmt.Sprintf("%d", l.Val) }
func (l *IntLit) appendKey(b []byte) []byte { return strconv.AppendInt(append(b, 'c'), l.Val, 10) }

// BinTerm is a binary arithmetic term.
type BinTerm struct {
	Op   string // "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"
	X, Y Term
}

func (b *BinTerm) String() string {
	return fmt.Sprintf("(%s %s %s)", b.X, b.Op, b.Y)
}
func (b *BinTerm) appendKey(buf []byte) []byte { return appendBinKey(buf, b.X, b.Op, b.Y) }

// appendBinKey appends the key of x op y, for a term or an atom, to b.
func appendBinKey(b []byte, x Term, op string, y Term) []byte {
	b = x.appendKey(append(b, '('))
	b = y.appendKey(append(b, op...))
	return append(b, ')')
}

// Context creates variables and interns opaque terms.
type Context struct {
	nextID int
	opaque map[string]*Var
}

// NewContext returns a fresh term context.
func NewContext() *Context {
	return &Context{opaque: make(map[string]*Var)}
}

// Var creates a fresh integer symbol.
func (c *Context) Var(name string) *Var {
	c.nextID++
	return &Var{ID: c.nextID, Name: name}
}

// NumVars reports how many variable IDs the context has allocated.
func (c *Context) NumVars() int { return c.nextID }

// Reserve advances the context's ID counter so every variable it allocates
// from now on has an ID strictly greater than n. A session context shared
// across formulas built in other contexts (the batched validation cursor)
// reserves past the largest foreign ID so any opaque variables it interns
// cannot collide with candidate variables.
func (c *Context) Reserve(n int) {
	if n > c.nextID {
		c.nextID = n
	}
}

// Rewind rolls the context back to a state with n allocated variables:
// the ID counter rewinds and every opaque interning made after that point
// is forgotten. Because variable allocation is deterministic in the
// sequence of Var/OpaqueFor calls, rewinding and then replaying a
// different suffix of calls produces exactly the IDs a fresh context
// replaying that suffix would — the property the batched validator's
// shared-prefix replayer depends on.
func (c *Context) Rewind(n int) {
	if c.nextID <= n {
		return
	}
	c.nextID = n
	for k, v := range c.opaque {
		if v.ID > n {
			delete(c.opaque, k)
		}
	}
}

// OpaqueFor returns a stable fresh variable standing for a non-linear or
// uninterpreted term, interned by structural key so syntactically identical
// terms share one symbol (congruence-lite).
func (c *Context) OpaqueFor(t Term) *Var {
	k := string(t.appendKey(nil))
	if v, ok := c.opaque[k]; ok {
		return v
	}
	v := c.Var("op")
	c.opaque[k] = v
	return v
}

// Int returns an integer literal term.
func Int(v int64) Term { return &IntLit{Val: v} }

// Add returns x + y.
func Add(x, y Term) Term { return &BinTerm{Op: "+", X: x, Y: y} }

// Sub returns x - y.
func Sub(x, y Term) Term { return &BinTerm{Op: "-", X: x, Y: y} }

// Mul returns x * y.
func Mul(x, y Term) Term { return &BinTerm{Op: "*", X: x, Y: y} }

// Div returns x / y (uninterpreted unless y is a constant divisor of a
// constant dividend).
func Div(x, y Term) Term { return &BinTerm{Op: "/", X: x, Y: y} }

// Rem returns x % y.
func Rem(x, y Term) Term { return &BinTerm{Op: "%", X: x, Y: y} }

// Bin returns the binary term x op y for any operator.
func Bin(op string, x, y Term) Term { return &BinTerm{Op: op, X: x, Y: y} }

// Atom is X pred Y over integer terms.
type Atom struct {
	Pred string // "==", "!=", "<", "<=", ">", ">="
	X, Y Term
}

func (a *Atom) String() string { return fmt.Sprintf("%s %s %s", a.X, a.Pred, a.Y) }

// Key returns the atom's structural key. Variable identity is part of the
// key (terms key by Var ID), so keys are only comparable for atoms built in
// deterministically replayed contexts.
func (a *Atom) Key() string { return string(appendBinKey(nil, a.X, a.Pred, a.Y)) }

// Key returns the structural key of the conjunction of atoms: the atom keys
// in order. Each atom key is parenthesized, so the concatenation is
// unambiguous. The order is part of the key because it fixes the solver's
// union-find roots and with them the witness model; pathval's verdict cache
// files solves under it, so a hit returns exactly the model a cold solve of
// the same atoms in the same order would.
func Key(atoms []*Atom) string {
	b := make([]byte, 0, 16*len(atoms)) // most path atoms' keys fit 16 bytes
	for _, a := range atoms {
		b = appendBinKey(b, a.X, a.Pred, a.Y)
	}
	return string(b)
}

// Eq returns x == y.
func Eq(x, y Term) *Atom { return &Atom{Pred: "==", X: x, Y: y} }

// Ne returns x != y.
func Ne(x, y Term) *Atom { return &Atom{Pred: "!=", X: x, Y: y} }

// Lt returns x < y.
func Lt(x, y Term) *Atom { return &Atom{Pred: "<", X: x, Y: y} }

// Le returns x <= y.
func Le(x, y Term) *Atom { return &Atom{Pred: "<=", X: x, Y: y} }

// Gt returns x > y.
func Gt(x, y Term) *Atom { return &Atom{Pred: ">", X: x, Y: y} }

// Ge returns x >= y.
func Ge(x, y Term) *Atom { return &Atom{Pred: ">=", X: x, Y: y} }
