// On-the-fly path pruning: the Stage-1 DFS carries an incremental
// constraint cursor (smt.Cursor) alongside the alias graph and tracker, and
// execCondBr consults it before descending into a branch subtree. The
// translation from instructions to atoms mirrors the Stage-2 replayer
// (pathval) exactly — Table 3 rules, one symbol per alias class, constant
// folding through Node.ConstVal — so a cursor-UNSAT prefix extends only to
// paths whose full validation-time constraint system is also unsatisfiable:
// every bug candidate the pruned engine skips is one the validator would
// have dropped, leaving the post-validation bug set unchanged.
//
// The engine graph can be a *finer* partition than the replay graph (checker
// probes pre-create dereference targets, so a later Load may separate the
// loaded register from its old class where the replayer keeps them merged).
// Finer partitions only remove implicit equalities from the cursor's system,
// i.e. weaken it, which preserves the soundness direction above.
package core

import (
	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/smt"
)

// pruner owns the per-entry incremental feasibility state.
type pruner struct {
	ctx    *smt.Context
	cursor *smt.Cursor
	// syms maps alias-graph node IDs (not pointers) to their SMT symbol.
	// IDs are safe keys because atom pushes and graph mutations roll back in
	// paired LIFO order: no live atom ever references a node incarnation
	// other than the one its ID named when the atom was pushed.
	syms map[int]*smt.Var
	// sigCount/sigLog index the live branch atoms by exact syntactic shape
	// (predicate + operand identity), so pushBranch can refute a directly
	// negated repeat of an earlier condition without consulting the cursor.
	// The log is the undo trail: rollback pops entries past the mark.
	sigCount map[atomSig]int
	sigLog   []atomSig
	// pending queues binop equalities (whose assert-time feasibility result
	// the engine discards anyway) until a branch atom actually consults the
	// cursor. Binops on branch-free path tails — and every binop in a
	// subtree the DFS rolls back before its next branch — never pay for
	// linearization or propagation at all. pending[:flushed] has been
	// pushed; rollback restores both cursors, so a flush inside a subtree is
	// undone with it.
	pending []smt.Formula
	flushed int
}

// atomSig is the exact syntactic identity of a branch atom: predicate plus
// each operand encoded as (isVar, var-ID-or-constant). Only atoms whose
// operands are class symbols or integer literals are sigable; exact struct
// keys (not hashes) keep the contradiction check collision-free and
// therefore sound.
type atomSig struct {
	pred   cir.Pred
	xv, yv int64
	xIsVar bool
	yIsVar bool
}

func newPruner() *pruner {
	ctx := smt.NewContext()
	return &pruner{
		ctx:      ctx,
		cursor:   smt.NewCursor(ctx),
		syms:     make(map[int]*smt.Var),
		sigCount: make(map[atomSig]int),
	}
}

type prunerMark struct {
	cm smt.CursorMark
	sl int
	pl int
	fl int
}

func (p *pruner) mark() prunerMark {
	return prunerMark{cm: p.cursor.Checkpoint(), sl: len(p.sigLog), pl: len(p.pending), fl: p.flushed}
}

func (p *pruner) rollback(m prunerMark) {
	p.cursor.Rollback(m.cm)
	for len(p.sigLog) > int(m.sl) {
		s := p.sigLog[len(p.sigLog)-1]
		p.sigLog = p.sigLog[:len(p.sigLog)-1]
		if p.sigCount[s] <= 1 {
			delete(p.sigCount, s)
		} else {
			p.sigCount[s]--
		}
	}
	p.pending = p.pending[:m.pl]
	p.flushed = m.fl
}

// flushPending pushes every queued binop equality into the cursor. After a
// flush the cursor state is identical to the eager regime, so every consult
// sees the same conjunction either way.
func (p *pruner) flushPending() {
	for ; p.flushed < len(p.pending); p.flushed++ {
		p.cursor.Push(p.pending[p.flushed])
	}
}

func (p *pruner) push(f smt.Formula) smt.Result {
	p.flushPending()
	return p.cursor.Push(f)
}

// symOf is the pruning-side Definition 4: one symbol per alias class.
func (p *pruner) symOf(n *aliasgraph.Node) *smt.Var {
	if s, ok := p.syms[n.ID]; ok {
		return s
	}
	s := p.ctx.Var("as")
	p.syms[n.ID] = s
	return s
}

// termOf mirrors the replayer's R(v): constants fold to literals, values map
// to their class symbol, classes holding a known constant fold to it.
func (p *pruner) termOf(g *aliasgraph.Graph, v cir.Value) smt.Term {
	if c, ok := v.(*cir.Const); ok {
		if c.IsNull {
			return smt.Int(0)
		}
		if c.IsStr {
			return p.ctx.OpaqueFor(smt.Bin("str", smt.Int(int64(len(c.Str))), smt.Int(0)))
		}
		return smt.Int(c.Val)
	}
	n := g.NodeOf(v)
	if n.ConstVal != nil && !n.ConstVal.IsStr {
		if n.ConstVal.IsNull {
			return smt.Int(0)
		}
		return smt.Int(n.ConstVal.Val)
	}
	return p.symOf(n)
}

// pushBranch asserts the Table 3 brt/brf atom for taking br in the given
// direction and reports whether the accumulated path constraints remain
// possibly satisfiable. Untranslatable conditions assert nothing and answer
// Sat. Two syntactic fast paths run before the cursor is consulted:
// constant-folded atoms evaluate directly (a false constant condition needs
// no solver to refute, a true one carries no information worth storing), and
// an atom that exactly negates a live earlier branch atom — same predicate
// operands by class-symbol/constant identity, complementary predicate in
// either operand order — is refuted immediately. Both answers are sound:
// the constant evaluation is exact, and a live atom A together with its
// direct negation is unsatisfiable in any theory. The interval cursor cannot
// see the second kind at all (x < y followed by x >= y leaves both
// intervals unbounded), so the signature check adds prune power on top of
// costing less.
func (p *pruner) pushBranch(g *aliasgraph.Graph, br *cir.CondBr, taken bool) smt.Result {
	reg, ok := br.Cond.(*cir.Register)
	if !ok || reg.Def == nil {
		return smt.Sat
	}
	cmp, ok := reg.Def.(*cir.Cmp)
	if !ok {
		return smt.Sat
	}
	pred := cmp.Pred
	if !taken {
		pred = pred.Negate()
	}
	x := p.termOf(g, cmp.X)
	y := p.termOf(g, cmp.Y)
	if xl, ok := x.(*smt.IntLit); ok {
		if yl, ok := y.(*smt.IntLit); ok {
			if evalPred(pred, xl.Val, yl.Val) {
				return smt.Sat
			}
			return smt.Unsat
		}
	}
	sig, sigable := sigOf(pred, x, y)
	if sigable {
		neg := sig
		neg.pred = sig.pred.Negate()
		if p.sigCount[neg] > 0 {
			return smt.Unsat
		}
		// Same negation with operands written the other way round:
		// x >= y is also refuted by a live y > x.
		swp := atomSig{pred: swapPred(neg.pred), xv: neg.yv, yv: neg.xv, xIsVar: neg.yIsVar, yIsVar: neg.xIsVar}
		if p.sigCount[swp] > 0 {
			return smt.Unsat
		}
		p.sigCount[sig]++
		p.sigLog = append(p.sigLog, sig)
	}
	return p.push(prunePredAtom(pred, x, y))
}

// sigOf encodes an atom's exact syntactic identity, or reports that one of
// the operands is not a plain symbol/literal.
func sigOf(pred cir.Pred, x, y smt.Term) (atomSig, bool) {
	s := atomSig{pred: pred}
	switch t := x.(type) {
	case *smt.Var:
		s.xv, s.xIsVar = int64(t.ID), true
	case *smt.IntLit:
		s.xv = t.Val
	default:
		return s, false
	}
	switch t := y.(type) {
	case *smt.Var:
		s.yv, s.yIsVar = int64(t.ID), true
	case *smt.IntLit:
		s.yv = t.Val
	default:
		return s, false
	}
	return s, true
}

// swapPred returns the predicate P' with x P y equivalent to y P' x.
func swapPred(p cir.Pred) cir.Pred {
	switch p {
	case cir.PredLT:
		return cir.PredGT
	case cir.PredLE:
		return cir.PredGE
	case cir.PredGT:
		return cir.PredLT
	case cir.PredGE:
		return cir.PredLE
	}
	return p // EQ and NE are symmetric
}

func evalPred(p cir.Pred, a, b int64) bool {
	switch p {
	case cir.PredEQ:
		return a == b
	case cir.PredNE:
		return a != b
	case cir.PredLT:
		return a < b
	case cir.PredLE:
		return a <= b
	case cir.PredGT:
		return a > b
	case cir.PredGE:
		return a >= b
	}
	return true
}

// pushBinOp asserts dst = x op y, mirroring the replayer's replayBinOp.
// The terms are translated now (class membership is a property of this
// program point) but the resulting equality is only queued; flushPending
// hands it to the cursor when a consult needs it.
func (p *pruner) pushBinOp(g *aliasgraph.Graph, t *cir.BinOp) {
	x := p.termOf(g, t.X)
	y := p.termOf(g, t.Y)
	var term smt.Term
	switch t.Op {
	case cir.OpAdd:
		term = smt.Add(x, y)
	case cir.OpSub:
		term = smt.Sub(x, y)
	case cir.OpMul:
		term = smt.Mul(x, y)
	case cir.OpDiv:
		term = smt.Div(x, y)
	case cir.OpRem:
		term = smt.Rem(x, y)
	default:
		term = smt.Bin(string(t.Op), x, y)
	}
	p.pending = append(p.pending, smt.Eq(p.symOf(g.NodeOf(t.Dst)), term))
}

func prunePredAtom(p cir.Pred, x, y smt.Term) smt.Formula {
	switch p {
	case cir.PredEQ:
		return smt.Eq(x, y)
	case cir.PredNE:
		return smt.Ne(x, y)
	case cir.PredLT:
		return smt.Lt(x, y)
	case cir.PredLE:
		return smt.Le(x, y)
	case cir.PredGT:
		return smt.Gt(x, y)
	case cir.PredGE:
		return smt.Ge(x, y)
	}
	return smt.True
}
