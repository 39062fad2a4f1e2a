package aliasgraph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cir"
)

// reg makes a fake register value for graph tests.
func reg(name string) cir.Value {
	return &cir.Register{ID: 0, Name: name, Typ: cir.PointerTo(cir.I64)}
}

func TestFigure4AliasSets(t *testing.T) {
	// Build the alias graph of the paper's Figure 4:
	// x -f-> n3, y -g-> n3, p,q in n3, n3 -*-> n4 with s in n4.
	g := New()
	x, y, p, q, s := reg("x"), reg("y"), reg("p"), reg("q"), reg("s")
	rf, rg := reg("rf"), reg("rg")

	g.GEP(rf, x, FieldLabel("f")) // rf = &x->f
	g.Move(p, rf)                 // p aliases &x->f
	g.Move(q, rf)                 // q too
	g.Move(rg, rf)                // rg joins the class...
	g.GEP(rg, y, FieldLabel("g")) // ...so &y->g reaches the same node n3
	g.Load(s, p)                  // s = *p

	if !g.SameClass(p, q) || !g.SameClass(p, rf) || !g.SameClass(p, rg) {
		t.Fatalf("p,q,&x->f,&y->g must share one class:\n%s", g)
	}
	n3 := g.Lookup(p)
	if n3.NumVars() != 4 {
		t.Errorf("n3 vars = %d, want 4 (p,q,rf,rg)", n3.NumVars())
	}
	paths := g.AccessPaths(n3, 2)
	joined := strings.Join(paths, " ")
	for _, want := range []string{".f", ".g"} {
		if !strings.Contains(joined, want) {
			t.Errorf("access paths %v missing %q", paths, want)
		}
	}
	n4 := g.Lookup(s)
	if n4 != n3.Out(DerefLabel) {
		t.Error("s must live in the deref target of n3")
	}
	// Access paths of n4 include *p-like paths.
	p4 := strings.Join(g.AccessPaths(n4, 2), " ")
	if !strings.Contains(p4, ".*") {
		t.Errorf("n4 paths %q missing deref path", p4)
	}
}

func TestHandleMOVE(t *testing.T) {
	g := New()
	v1, v2 := reg("v1"), reg("v2")
	g.NodeOf(v1)
	g.NodeOf(v2)
	if g.SameClass(v1, v2) {
		t.Fatal("fresh vars must be in distinct classes")
	}
	g.Move(v1, v2)
	if !g.SameClass(v1, v2) {
		t.Fatal("MOVE must merge v1 into v2's class")
	}
	// v1's old node is now empty.
}

func TestHandleSTOREStrongUpdate(t *testing.T) {
	g := New()
	p, a, b := reg("p"), reg("a"), reg("b")
	g.Store(p, a)
	if g.NodeOf(p).Out(DerefLabel) != g.NodeOf(a) {
		t.Fatal("store should create deref edge to a")
	}
	g.Store(p, b) // strong update drops the old edge
	if g.NodeOf(p).Out(DerefLabel) != g.NodeOf(b) {
		t.Fatal("second store must retarget the deref edge")
	}
	if g.SameClass(a, b) {
		t.Error("a and b must stay distinct")
	}
}

func TestHandleLOADBothBranches(t *testing.T) {
	g := New()
	p, a, t1, t2 := reg("p"), reg("a"), reg("t1"), reg("t2")
	// No deref edge yet: LOAD adds one to t1's class.
	g.Load(t1, p)
	if g.NodeOf(p).Out(DerefLabel) != g.NodeOf(t1) {
		t.Fatal("load without edge must create one")
	}
	// Store a, then load again: t2 joins a's class.
	g.Store(p, a)
	g.Load(t2, p)
	if !g.SameClass(t2, a) {
		t.Fatal("load through stored pointer must alias the stored value")
	}
	if g.SameClass(t1, t2) {
		t.Error("t1 (old value) must not alias t2 (new value)")
	}
}

func TestHandleGEPSharedField(t *testing.T) {
	g := New()
	p, r1, r2, other := reg("p"), reg("r1"), reg("r2"), reg("other")
	g.GEP(r1, p, FieldLabel("f"))
	g.GEP(r2, p, FieldLabel("f"))
	if !g.SameClass(r1, r2) {
		t.Fatal("&p->f computed twice must alias")
	}
	g.GEP(other, p, FieldLabel("g"))
	if g.SameClass(r1, other) {
		t.Error("&p->f and &p->g must not alias")
	}
}

func TestFigure7InterproceduralChain(t *testing.T) {
	// foo: r = &p->s; t = *r; call bar(p): bar.p = p (MOVE);
	// bar: r2 = &bar.p->s; t2 = *r2  => t2 aliases t.
	g := New()
	fooP, fooR, fooT := reg("foo.p"), reg("foo.r"), reg("foo.t")
	barP, barR, barT, barA := reg("bar.p"), reg("bar.r"), reg("bar.t"), reg("bar.a")

	g.GEP(fooR, fooP, FieldLabel("s"))
	g.Load(fooT, fooR)
	g.Move(barP, fooP) // parameter passing
	g.GEP(barR, barP, FieldLabel("s"))
	g.Load(barT, barR)
	g.Load(barA, barT)

	if !g.SameClass(fooP, barP) {
		t.Error("params must alias after call MOVE")
	}
	if !g.SameClass(fooR, barR) {
		t.Error("&p->s must alias across functions")
	}
	if !g.SameClass(fooT, barT) {
		t.Error("t in foo and bar must alias (the paper's key example)")
	}
}

func TestConstantTracking(t *testing.T) {
	g := New()
	p := reg("p")
	null := cir.NullConst(cir.PointerTo(cir.I64))
	g.Store(p, null)
	n := g.NodeOf(p).Out(DerefLabel)
	if n == nil || n.ConstVal == nil || !n.ConstVal.IsNull {
		t.Fatal("store of NULL must produce a const-bearing node")
	}
	v := reg("v")
	g.Load(v, p)
	if g.Lookup(v).ConstVal == nil {
		t.Error("loading the stored NULL must land in the const node")
	}
	// Overwriting kills the constant association for later loads.
	a := reg("a")
	g.Store(p, a)
	w := reg("w")
	g.Load(w, p)
	if g.Lookup(w).ConstVal != nil {
		t.Error("after overwrite the loaded class must not carry the constant")
	}
}

func TestRollbackRestoresExactState(t *testing.T) {
	g := New()
	p, a := reg("p"), reg("a")
	g.Store(p, a)
	before := g.String()
	mark := g.Checkpoint()

	// A pile of mutations.
	t1, t2, q := reg("t1"), reg("t2"), reg("q")
	g.Load(t1, p)
	g.Move(q, t1)
	g.GEP(t2, q, FieldLabel("f"))
	g.Store(q, cir.NullConst(cir.PointerTo(cir.I64)))
	if g.String() == before {
		t.Fatal("mutations must change the graph")
	}

	g.Rollback(mark)
	if got := g.String(); got != before {
		t.Errorf("rollback mismatch:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if g.Lookup(t1) != nil || g.Lookup(q) != nil {
		t.Error("rolled-back vars must be unknown again")
	}
}

// TestFingerprintRollbackRestores: Rollback rewinds the node-ID counter, so
// replaying the same operations after a rollback rebuilds the same graph with
// the same node IDs (String prints them).
func TestFingerprintRollbackRestores(t *testing.T) {
	g := New()
	a, b, c := reg("a"), reg("b"), reg("c")
	g.Move(b, a)
	before := g.String()
	m := g.Checkpoint()
	mutate := func() {
		g.Store(a, c)
		g.Load(b, a)
		g.MoveConst(c, cir.IntConst(cir.I64, 7))
	}
	mutate()
	after := g.String()
	if after == before {
		t.Fatal("mutations must change the graph")
	}
	g.Rollback(m)
	if got := g.String(); got != before {
		t.Fatalf("rollback mismatch:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	mutate()
	if got := g.String(); got != after {
		t.Fatalf("replay after rollback differs (node IDs not reproduced?):\nfirst:\n%s\nreplay:\n%s", after, got)
	}
}

// TestFingerprintEmptyNodesInvisible: a node with no members, edges, or
// constants holds no facts, so allocating and abandoning a scratch node
// leaves the printed graph unchanged, and a rollback past it lets a replay
// reuse its node ID.
func TestFingerprintEmptyNodesInvisible(t *testing.T) {
	g := New()
	a, b, c := reg("a"), reg("b"), reg("c")
	g.Move(b, a)
	before := g.String()
	m := g.Checkpoint()
	mutate := func() {
		g.Store(a, c)
		g.Load(b, a)
		g.MoveConst(c, cir.IntConst(cir.I64, 7))
	}
	mutate()
	after := g.String()
	g.Rollback(m)

	g.newNode()
	if got := g.String(); got != before {
		t.Fatalf("an empty node changed the graph:\n%s", got)
	}
	g.Rollback(m)
	if got := g.String(); got != before {
		t.Fatalf("rollback past an empty node mismatch:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	mutate()
	if got := g.String(); got != after {
		t.Fatalf("replay after an abandoned node differs:\nfirst:\n%s\nreplay:\n%s", after, got)
	}
}

func TestNestedRollback(t *testing.T) {
	g := New()
	p := reg("p")
	g.NodeOf(p)
	m1 := g.Checkpoint()
	a := reg("a")
	g.Store(p, a)
	m2 := g.Checkpoint()
	b := reg("b")
	g.Store(p, b)
	g.Rollback(m2)
	if g.NodeOf(p).Out(DerefLabel) != g.NodeOf(a) {
		t.Fatal("inner rollback must restore edge to a")
	}
	g.Rollback(m1)
	if g.NodeOf(p).Out(DerefLabel) != nil {
		t.Fatal("outer rollback must remove the edge entirely")
	}
}

func TestIndexLabels(t *testing.T) {
	m := cir.NewModule("m")
	fn := m.NewFunction("f", &cir.FuncType{Result: cir.Void})
	arr := fn.AddParam("arr", cir.PointerTo(cir.I64))
	i := fn.AddParam("i", cir.I64)
	b := cir.NewBuilder(fn)
	c3 := cir.IntConst(cir.I64, 3)
	sites := []*cir.IndexAddr{}
	for _, idx := range []cir.Value{c3, c3, i, i} {
		b.IndexAddr("e", arr, idx)
		sites = append(sites, b.Blk.Instrs[len(b.Blk.Instrs)-1].(*cir.IndexAddr))
	}
	b.Ret(nil)
	m.AssignGIDs()
	if l := IndexLabel(sites[0]); l.Name != "3" {
		t.Errorf("const index label = %q", l.Name)
	}
	if l := IndexLabel(sites[2]); l.Name != "i@"+cir.SiteToken(sites[2]) {
		t.Errorf("non-const index label = %q", l.Name)
	}
	if IndexLabel(sites[2]) == IndexLabel(sites[3]) {
		t.Error("non-const indexes at different instructions must differ (array-insensitivity)")
	}
	g := New()
	e1, e2 := reg("e1"), reg("e2")
	g.GEP(e1, arr, IndexLabel(sites[0]))
	g.GEP(e2, arr, IndexLabel(sites[1]))
	if !g.SameClass(e1, e2) {
		t.Error("a[3] must alias a[3] regardless of instruction")
	}
}

func TestTargetCreatesStableObject(t *testing.T) {
	g := New()
	p := reg("p")
	n1 := g.DerefNode(p)
	n2 := g.DerefNode(p)
	if n1 != n2 {
		t.Error("DerefNode must be stable")
	}
	v := reg("v")
	g.Load(v, p)
	if g.Lookup(v) != n1 {
		t.Error("subsequent load must reuse the deref object")
	}
}

func TestUniqueOutEdgePerLabel(t *testing.T) {
	// Invariant from Definition 1: one outgoing edge per (node, label).
	g := New()
	p := reg("p")
	for i := 0; i < 5; i++ {
		v := reg("v")
		g.Load(v, p)
	}
	n := g.NodeOf(p)
	if len(n.out) != 1 {
		t.Errorf("node has %d deref edges, want 1", len(n.out))
	}
}

// Property: a random operation sequence followed by rollback restores the
// printable state exactly.
func TestRollbackProperty(t *testing.T) {
	f := func(seed int64, opsCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		base := make([]cir.Value, 6)
		for i := range base {
			base[i] = reg("b")
			g.NodeOf(base[i])
		}
		before := g.String()
		mark := g.Checkpoint()
		vars := append([]cir.Value{}, base...)
		n := int(opsCount%40) + 1
		for i := 0; i < n; i++ {
			a := vars[rng.Intn(len(vars))]
			b := vars[rng.Intn(len(vars))]
			switch rng.Intn(5) {
			case 0:
				if a != b {
					g.Move(a, b)
				}
			case 1:
				g.Store(a, b)
			case 2:
				v := reg("t")
				g.Load(v, a)
				vars = append(vars, v)
			case 3:
				v := reg("t")
				g.GEP(v, a, FieldLabel("f"))
				vars = append(vars, v)
			case 4:
				g.Store(a, cir.NullConst(cir.PointerTo(cir.I64)))
			}
		}
		g.Rollback(mark)
		return g.String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after any operation sequence, every variable maps to exactly one
// node and that node contains it (varOf consistency).
func TestVarNodeConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		vars := make([]cir.Value, 5)
		for i := range vars {
			vars[i] = reg("v")
		}
		n := int(opsCount%30) + 1
		for i := 0; i < n; i++ {
			a := vars[rng.Intn(len(vars))]
			b := vars[rng.Intn(len(vars))]
			switch rng.Intn(4) {
			case 0:
				if a != b {
					g.Move(a, b)
				}
			case 1:
				g.Store(a, b)
			case 2:
				g.Load(a, b) // reusing vars stresses the move-into-class path
			case 3:
				g.GEP(a, b, FieldLabel("f"))
			}
		}
		for _, v := range vars {
			n := g.Lookup(v)
			if n == nil {
				continue
			}
			if !slices.Contains(n.vars, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessPathsDepthBound(t *testing.T) {
	g := New()
	p := reg("p")
	cur := p
	for i := 0; i < 6; i++ {
		next := reg("n")
		g.GEP(next, cur, FieldLabel("f"))
		cur = next
	}
	deep := g.Lookup(cur)
	paths := g.AccessPaths(deep, 2)
	for _, pth := range paths {
		if strings.Count(pth, ".f") > 2 {
			t.Errorf("path %q exceeds depth bound", pth)
		}
	}
}
