package smt

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// ToSMTLIB2 renders the conjunction of atoms as a deterministic SMT-LIB2
// script: one set-logic line, uninterpreted-function declarations for the
// bitwise operators the fragment cannot express over Int, declare-const
// lines for every variable (sorted by ID), one assert, and check-sat. The
// same atoms always produce the same bytes.
//
// It lives in the tests because Stage 2 decides with Solver alone: no
// external solver runs at analysis time. It stays so a formula can still be
// re-checked by hand against an SMT-LIB2 solver such as Z3 (write
// ToSMTLIB2(atoms) to a file from a test and run `z3 FILE`).
//
// Division and remainder map to the SMT-LIB div/mod (like the built-in
// solver, both are treated opaquely unless constant, so an external solver
// being exact here only ever refutes more paths — still sound). The bitwise
// and shift operators become uninterpreted functions, matching the built-in
// solver's opaque treatment.
func ToSMTLIB2(atoms []*Atom) string {
	e := &smtlibEmitter{vars: map[int]bool{}, funs: map[string]bool{}}
	body := e.conj(atoms)
	var b strings.Builder
	b.WriteString("(set-logic QF_UFNIA)\n")
	funs := make([]string, 0, len(e.funs))
	for fn := range e.funs {
		funs = append(funs, fn)
	}
	sort.Strings(funs)
	for _, fn := range funs {
		fmt.Fprintf(&b, "(declare-fun %s (Int Int) Int)\n", fn)
	}
	ids := make([]int, 0, len(e.vars))
	for id := range e.vars {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "(declare-const v%d Int)\n", id)
	}
	fmt.Fprintf(&b, "(assert %s)\n", body)
	b.WriteString("(check-sat)\n")
	return b.String()
}

type smtlibEmitter struct {
	vars map[int]bool
	funs map[string]bool
}

// smtlibFun names the uninterpreted function standing for a bitwise or shift
// operator; empty for operators SMT-LIB interprets natively.
func smtlibFun(op string) string {
	switch op {
	case "&":
		return "iand"
	case "|":
		return "ior"
	case "^":
		return "ixor"
	case "<<":
		return "ishl"
	case ">>":
		return "ishr"
	}
	return ""
}

func (e *smtlibEmitter) term(t Term) string {
	switch tt := t.(type) {
	case *Var:
		e.vars[tt.ID] = true
		return fmt.Sprintf("v%d", tt.ID)
	case *IntLit:
		if tt.Val < 0 {
			return fmt.Sprintf("(- %d)", -tt.Val)
		}
		return fmt.Sprintf("%d", tt.Val)
	case *BinTerm:
		x, y := e.term(tt.X), e.term(tt.Y)
		switch tt.Op {
		case "+", "-", "*":
			return fmt.Sprintf("(%s %s %s)", tt.Op, x, y)
		case "/":
			return fmt.Sprintf("(div %s %s)", x, y)
		case "%":
			return fmt.Sprintf("(mod %s %s)", x, y)
		}
		if fn := smtlibFun(tt.Op); fn != "" {
			e.funs[fn] = true
			return fmt.Sprintf("(%s %s %s)", fn, x, y)
		}
	}
	return "0"
}

func (e *smtlibEmitter) atom(a *Atom) string {
	x, y := e.term(a.X), e.term(a.Y)
	switch a.Pred {
	case "==":
		return fmt.Sprintf("(= %s %s)", x, y)
	case "!=":
		return fmt.Sprintf("(not (= %s %s))", x, y)
	default: // <, <=, >, >= are SMT-LIB operators verbatim
		return fmt.Sprintf("(%s %s %s)", a.Pred, x, y)
	}
}

// conj renders the conjunction: true when empty, the atom itself when
// single.
func (e *smtlibEmitter) conj(atoms []*Atom) string {
	switch len(atoms) {
	case 0:
		return "true"
	case 1:
		return e.atom(atoms[0])
	}
	var b strings.Builder
	b.WriteString("(and")
	for _, a := range atoms {
		b.WriteString(" ")
		b.WriteString(e.atom(a))
	}
	b.WriteString(")")
	return b.String()
}

func TestSMTLIB2Deterministic(t *testing.T) {
	ctx := NewContext()
	a, b, c := ctx.Var("a"), ctx.Var("b"), ctx.Var("c")
	f := []*Atom{
		Gt(a, Int(0)),
		Eq(b, Add(a, Int(1))),
		Ne(c, Bin("&", a, b)),
		Le(Mul(a, b), Int(100)),
		Lt(Div(a, Int(2)), Rem(b, Int(3))),
		Ge(a, Int(-5)),
	}
	s1 := ToSMTLIB2(f)
	s2 := ToSMTLIB2(f)
	if s1 != s2 {
		t.Fatalf("emission is not deterministic:\n%s\n---\n%s", s1, s2)
	}
	for _, want := range []string{
		"(set-logic QF_UFNIA)",
		"(declare-fun iand (Int Int) Int)",
		"(declare-const v1 Int)",
		"(declare-const v2 Int)",
		"(declare-const v3 Int)",
		"(div v1 2)",
		"(mod v2 3)",
		"(>= v1 (- 5))",
		"(not (= v3 (iand v1 v2)))",
		"(assert (and (> v1 0) (= v2 (+ v1 1)) ",
		"(check-sat)",
	} {
		if !strings.Contains(s1, want) {
			t.Errorf("script lacks %q:\n%s", want, s1)
		}
	}
	// Declarations come out sorted, so one formula gives one script.
	i1 := strings.Index(s1, "(declare-const v1 Int)")
	i2 := strings.Index(s1, "(declare-const v2 Int)")
	i3 := strings.Index(s1, "(declare-const v3 Int)")
	if !(i1 < i2 && i2 < i3) {
		t.Error("declare-const lines are not sorted by variable ID")
	}
}

func TestSMTLIB2EmptyConjunction(t *testing.T) {
	s := ToSMTLIB2(nil)
	if !strings.Contains(s, "(assert true)") {
		t.Errorf("empty conjunction should assert true:\n%s", s)
	}
	ctx := NewContext()
	x := ctx.Var("x")
	if s := ToSMTLIB2([]*Atom{Lt(x, Int(3))}); !strings.Contains(s, "(assert (< v1 3))") {
		t.Errorf("a single atom should be asserted bare:\n%s", s)
	}
}

// TestDeadlinePollsInterruptMidPass pins the in-pass interrupt rule: a Done
// channel closed while phase-3 propagation is in the middle of one sweep is
// observed at the next poll stride, not only between passes — so a single
// long pass over many inequalities cannot blow through a deadline.
func TestDeadlinePollsInterruptMidPass(t *testing.T) {
	ctx := NewContext()
	// A long chain of inequalities keeps one propagation pass busy well past
	// a poll stride.
	var fs []*Atom
	vars := make([]*Var, 48)
	for i := range vars {
		vars[i] = ctx.Var("x")
	}
	for i := 0; i+1 < len(vars); i++ {
		fs = append(fs, Le(vars[i], vars[i+1]))
	}
	fs = append(fs, Ge(vars[0], Int(0)), Le(vars[len(vars)-1], Int(1000)))

	done := make(chan struct{})
	var once sync.Once
	s := NewSolver(ctx)
	s.Done = done
	s.pollHook = func() { once.Do(func() { close(done) }) }
	res, _ := s.Solve(fs)
	if res != Unknown {
		t.Errorf("mid-pass interruption must answer Unknown, got %v", res)
	}
	if !s.Interrupted {
		t.Error("Interrupted flag not latched")
	}
	if s.Stats.DeadlinePolls == 0 {
		t.Error("no in-pass deadline polls were taken")
	}

	// The same system with no interruption decides normally and still counts
	// its polls.
	s2 := NewSolver(ctx)
	if res, _ := s2.Solve(fs); res != Sat {
		t.Errorf("uninterrupted chain should be sat, got %v", res)
	}
	if s2.Interrupted {
		t.Error("spurious Interrupted without deadline or done")
	}
	if s2.Stats.DeadlinePolls == 0 {
		t.Error("expected poll-stride checks during a long pass")
	}
}
