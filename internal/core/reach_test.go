package core

import (
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/minicc"
)

// The memo key restricts the canonical state to blockReach(...).vals of the
// current block and of every stacked call site — these tests pin the edge
// cases that restriction depends on: values reachable only through GEP
// chains, values created inside callees, and alias-class churn (Detach) on
// values the callee cannot observe.

func lowerOne(t *testing.T, src string) *cir.Module {
	t.Helper()
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": src})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

// TestBlockReachGEPChain: field-address chains (o->in->x) contribute their
// base and every intermediate register to the reach set of the block holding
// the chain, and to no sibling block that cannot re-enter it.
func TestBlockReachGEPChain(t *testing.T) {
	mod := lowerOne(t, `
struct inner { int x; };
struct outer { struct inner *in; };
int f(struct outer *o, int c) {
	if (c > 0)
		return o->in->x;
	return 0;
}`)
	fn := mod.Funcs["f"]
	r := newReachSets(mod)

	var gepBlk *cir.Block
	var geps []*cir.FieldAddr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if fa, ok := in.(*cir.FieldAddr); ok {
				gepBlk = b
				geps = append(geps, fa)
			}
		}
	}
	if len(geps) != 2 || gepBlk == nil {
		t.Fatalf("expected a two-step field chain in one block, got %d geps", len(geps))
	}
	var retBlk *cir.Block
	for _, b := range fn.Blocks {
		if b == gepBlk || b == fn.Entry() {
			continue
		}
		if _, ok := b.Terminator().(*cir.Ret); ok {
			retBlk = b
		}
	}
	if retBlk == nil {
		t.Fatalf("no sibling return block found")
	}

	chain := r.blockReach(gepBlk)
	for i, fa := range geps {
		if !chain.vals[fa.Base] {
			t.Errorf("gep %d base %s missing from the chain block's reach vals", i, fa.Base)
		}
		if !chain.vals[fa.Dst] {
			t.Errorf("gep %d dst %s missing from the chain block's reach vals", i, fa.Dst)
		}
	}
	sibling := r.blockReach(retBlk)
	for i, fa := range geps {
		if sibling.vals[fa.Dst] {
			t.Errorf("gep %d dst %s leaked into the sibling block's reach vals", i, fa.Dst)
		}
		if sibling.gids[fa.GID()] {
			t.Errorf("gep %d leaked into the sibling block's reach gids", i)
		}
	}
	entry := r.blockReach(fn.Entry())
	if !entry.vals[fn.Params[0]] {
		t.Errorf("param %s missing from the entry block's reach vals", fn.Params[0])
	}
	for i, fa := range geps {
		if !entry.gids[fa.GID()] {
			t.Errorf("gep %d missing from the entry block's reach gids", i)
		}
	}
}

// TestBlockReachCalleeValues: a block containing a call reaches the full
// bodies of all transitively callable defined functions — their instruction
// GIDs and the values those instructions use, including registers that only
// exist inside the callee — while sibling blocks reach none of it.
func TestBlockReachCalleeValues(t *testing.T) {
	mod := lowerOne(t, `
int leaf(int a) {
	int b = a * 2;
	return b;
}
int mid(int a) {
	return leaf(a + 1);
}
int g(int c) {
	if (c > 0)
		return mid(c);
	return 0;
}`)
	g := mod.Funcs["g"]
	leaf := mod.Funcs["leaf"]
	r := newReachSets(mod)

	var callBlk *cir.Block
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if call, ok := in.(*cir.Call); ok && call.Callee == "mid" {
				callBlk = b
			}
		}
	}
	if callBlk == nil {
		t.Fatalf("no call to mid found in g")
	}
	var retBlk *cir.Block
	for _, b := range g.Blocks {
		if b == callBlk || b == g.Entry() {
			continue
		}
		if _, ok := b.Terminator().(*cir.Ret); ok {
			retBlk = b
		}
	}
	if retBlk == nil {
		t.Fatalf("no sibling return block found in g")
	}

	info := r.blockReach(callBlk)
	leaf.Instrs(func(in cir.Instr) {
		if !info.gids[in.GID()] {
			t.Errorf("transitive callee instruction %s missing from the call block's reach gids", in)
		}
	})
	if !info.vals[leaf.Params[0]] {
		t.Errorf("callee param %s missing from the call block's reach vals", leaf.Params[0])
	}
	var leafTmp *cir.Register
	leaf.Instrs(func(in cir.Instr) {
		if bo, ok := in.(*cir.BinOp); ok {
			leafTmp = bo.Dst
		}
	})
	if leafTmp == nil {
		t.Fatalf("no binop found in leaf")
	}
	if !info.vals[leafTmp] {
		t.Errorf("callee-created register %s missing from the call block's reach vals", leafTmp)
	}
	sibling := r.blockReach(retBlk)
	leaf.Instrs(func(in cir.Instr) {
		if sibling.gids[in.GID()] {
			t.Errorf("callee instruction %s leaked into the sibling block's reach gids", in)
		}
	})
	if sibling.vals[leaf.Params[0]] || sibling.vals[leafTmp] {
		t.Errorf("callee values leaked into the sibling block's reach vals")
	}
}

// TestFuncClosureCycle: mutually recursive callees terminate the closure
// walk, and each function's reach includes the other's body.
func TestFuncClosureCycle(t *testing.T) {
	mod := lowerOne(t, `
int odd(int n);
int even(int n) {
	if (n == 0)
		return 1;
	return odd(n - 1);
}
int odd(int n) {
	if (n == 0)
		return 0;
	return even(n - 1);
}`)
	even := mod.Funcs["even"]
	odd := mod.Funcs["odd"]
	r := newReachSets(mod)
	cl := r.funcClosure(even)
	if !cl[even] || !cl[odd] {
		t.Errorf("closure of even missing a cycle member: even=%v odd=%v", cl[even], cl[odd])
	}
	info := r.blockReach(even.Entry())
	odd.Instrs(func(in cir.Instr) {
		if !info.gids[in.GID()] {
			t.Errorf("cyclic callee instruction %s missing from even's entry reach", in)
		}
	})
}

// TestReachRestrictionAfterDetach: the canonical digest restricted to a
// callee's reach vals — the memo key's restriction at the callee's entry
// block — must be
// insensitive to alias-class churn (Detach, constant rebinding) on values
// the callee cannot observe, and sensitive to the same churn on an
// observable value.
func TestReachRestrictionAfterDetach(t *testing.T) {
	mod := lowerOne(t, `
int obs(int *p) {
	return *p;
}
int caller(int *a, int *b) {
	return obs(a);
}`)
	obs := mod.Funcs["obs"]
	caller := mod.Funcs["caller"]
	r := newReachSets(mod)
	vals := r.blockReach(obs.Entry()).vals
	relevant := func(v cir.Value) bool { return vals[v] }

	p := obs.Params[0]
	a, b := caller.Params[0], caller.Params[1]
	if !vals[p] {
		t.Fatalf("callee param %s not in its own reach vals", p)
	}
	if vals[b] {
		t.Fatalf("caller-only value %s in the callee's reach vals", b)
	}

	null := &cir.Const{Typ: cir.PointerTo(cir.I32), IsNull: true}
	g := aliasgraph.New()
	g.Move(p, a)         // argument binding, as execCall does
	g.MoveConst(p, null) // give the observable class a digestible fact
	g.MoveConst(b, null) // and the unobservable one too
	d0, _ := g.CanonState(relevant)

	g.Detach(b) // churn on a value obs cannot observe
	d1, _ := g.CanonState(relevant)
	if d0 != d1 {
		t.Errorf("digest changed after detaching an unobservable value: %x vs %x", d0, d1)
	}

	g.Detach(p) // the same churn on the observable param
	d2, _ := g.CanonState(relevant)
	if d2 == d1 {
		t.Errorf("digest unchanged after detaching the observable param")
	}
}
