package aliasgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cir"
)

// refGraph is the map-based alias graph the slice-based Graph replaced,
// kept verbatim (renamed) as the reference for the differential test below.

// refNode is an alias class.
type refNode struct {
	ID   int
	vars map[cir.Value]struct{}
	out  map[Label]*refNode
	// ConstVal records that the abstract object currently holds this
	// constant (set by stores/moves of constants); nil otherwise. The path
	// validator and the NPD checker consume it.
	ConstVal *cir.Const
}

// Vars returns the variables of the alias class, deterministically ordered.
func (n *refNode) Vars() []cir.Value {
	out := make([]cir.Value, 0, len(n.vars))
	for v := range n.vars {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NumVars returns the size of the alias class.
func (n *refNode) NumVars() int { return len(n.vars) }

// Out returns the successor along label l, or nil.
func (n *refNode) Out(l Label) *refNode { return n.out[l] }

// Graph is a mutable alias graph with an refUndo trail.
type refGraph struct {
	varOf  map[cir.Value]*refNode
	nodes  []*refNode
	trail  []refUndo
	nextID int
}

// refMark is a checkpoint into the trail.
type refMark int

type refUndoKind uint8

const (
	rVarMove refUndoKind = iota
	rEdgeAdd
	rEdgeDel
	rNodeNew
	rConstSet
)

type refUndo struct {
	kind     refUndoKind
	v        cir.Value
	from, to *refNode
	label    Label
	oldConst *cir.Const
}

// New returns an empty alias graph. Nodes are created lazily when variables
// are first touched, which is semantically identical to the paper's
// initialization of one isolated node per program variable.
func newRef() *refGraph {
	return &refGraph{varOf: make(map[cir.Value]*refNode)}
}

// Reset returns the graph to the empty state New produces while keeping the
// allocations a previous run warmed up: the backing arrays of nodes/trail and
// the varOf map. Node IDs restart at 1, so a reset graph replays a path
// bit-identically to a fresh one — which is what lets the path validator
// pool replayers instead of allocating graph+maps per candidate.
func (g *refGraph) Reset() {
	clear(g.varOf)
	g.nodes = g.nodes[:0]
	g.trail = g.trail[:0]
	g.nextID = 0
}

func (g *refGraph) newNode() *refNode {
	g.nextID++
	n := &refNode{ID: g.nextID, vars: make(map[cir.Value]struct{}), out: make(map[Label]*refNode)}
	g.nodes = append(g.nodes, n)
	g.trail = append(g.trail, refUndo{kind: rNodeNew, to: n})
	return n
}

// NodeOf returns the node representing v, creating an isolated node when v
// has not been seen (the GetNode of the paper's pseudocode).
func (g *refGraph) NodeOf(v cir.Value) *refNode {
	if n, ok := g.varOf[v]; ok {
		return n
	}
	n := g.newNode()
	n.vars[v] = struct{}{}
	g.varOf[v] = n
	g.trail = append(g.trail, refUndo{kind: rVarMove, v: v, from: nil, to: n})
	return n
}

// Lookup returns the node of v without creating one.
func (g *refGraph) Lookup(v cir.Value) *refNode { return g.varOf[v] }

func (g *refGraph) moveVar(v cir.Value, from, to *refNode) {
	if from == to {
		return
	}
	if from != nil {
		delete(from.vars, v)
	}
	to.vars[v] = struct{}{}
	g.varOf[v] = to
	g.trail = append(g.trail, refUndo{kind: rVarMove, v: v, from: from, to: to})
}

func (g *refGraph) addEdge(from *refNode, l Label, to *refNode) {
	from.out[l] = to
	g.trail = append(g.trail, refUndo{kind: rEdgeAdd, from: from, to: to, label: l})
}

func (g *refGraph) delEdge(from *refNode, l Label) {
	to, ok := from.out[l]
	if !ok {
		return
	}
	delete(from.out, l)
	g.trail = append(g.trail, refUndo{kind: rEdgeDel, from: from, to: to, label: l})
}

func (g *refGraph) setConst(n *refNode, c *cir.Const) {
	g.trail = append(g.trail, refUndo{kind: rConstSet, to: n, oldConst: n.ConstVal})
	n.ConstVal = c
}

// Checkpoint returns a mark for Rollback.
func (g *refGraph) Checkpoint() refMark { return refMark(len(g.trail)) }

// Rollback undoes every mutation made after mark.
func (g *refGraph) Rollback(mark refMark) {
	for len(g.trail) > int(mark) {
		u := g.trail[len(g.trail)-1]
		g.trail = g.trail[:len(g.trail)-1]
		switch u.kind {
		case rVarMove:
			delete(u.to.vars, u.v)
			if u.from != nil {
				u.from.vars[u.v] = struct{}{}
				g.varOf[u.v] = u.from
			} else {
				delete(g.varOf, u.v)
			}
		case rEdgeAdd:
			delete(u.from.out, u.label)
		case rEdgeDel:
			u.from.out[u.label] = u.to
		case rNodeNew:
			g.nodes = g.nodes[:len(g.nodes)-1]
			// Rewind the ID counter too, so node IDs are reproducible across
			// sibling subtrees of the DFS (the next allocation after a
			// rollback reuses the ID the rolled-back node had, in the same
			// structural position).
			g.nextID--
		case rConstSet:
			u.to.ConstVal = u.oldConst
		}
	}
}

// ---- Figure 5 update rules ----

// Move handles MOVE(v1 = v2): v1 joins v2's alias class.
func (g *refGraph) Move(v1, v2 cir.Value) {
	if c, ok := v2.(*cir.Const); ok {
		g.MoveConst(v1, c)
		return
	}
	n1 := g.NodeOf(v1)
	n2 := g.NodeOf(v2)
	g.moveVar(v1, n1, n2)
}

// MoveConst handles v1 = c: v1 detaches into a fresh alias class that holds
// the constant.
func (g *refGraph) MoveConst(v1 cir.Value, c *cir.Const) {
	n1 := g.NodeOf(v1)
	fresh := g.newNode()
	g.setConst(fresh, c)
	g.moveVar(v1, n1, fresh)
}

// Store handles STORE(*v2 = v1): the deref edge of v2's class is strongly
// updated to point at v1's class.
func (g *refGraph) Store(v2, v1 cir.Value) {
	n2 := g.NodeOf(v2)
	g.delEdge(n2, DerefLabel)
	if c, ok := v1.(*cir.Const); ok {
		fresh := g.newNode()
		g.setConst(fresh, c)
		g.addEdge(n2, DerefLabel, fresh)
		return
	}
	n1 := g.NodeOf(v1)
	g.addEdge(n2, DerefLabel, n1)
}

// Load handles LOAD(v1 = *v2): v1 joins the class *v2 points at, or a deref
// edge to v1's class is created when none exists.
func (g *refGraph) Load(v1, v2 cir.Value) {
	n2 := g.NodeOf(v2)
	if nx, ok := n2.out[DerefLabel]; ok {
		g.moveVar(v1, g.NodeOf(v1), nx)
		return
	}
	n1 := g.NodeOf(v1)
	g.addEdge(n2, DerefLabel, n1)
}

// GEP handles GEP(v1 = &v2->f) and its array-index analogue: identical to
// Load but with a field or index label.
func (g *refGraph) GEP(v1, v2 cir.Value, l Label) {
	n2 := g.NodeOf(v2)
	if nx, ok := n2.out[l]; ok {
		g.moveVar(v1, g.NodeOf(v1), nx)
		return
	}
	n1 := g.NodeOf(v1)
	g.addEdge(n2, l, n1)
}

// Detach moves v into a fresh, empty alias class. The engine calls it when
// an instruction re-executes on one path (loop unrolling beyond once): the
// destination register is a new dynamic instance and must not inherit the
// previous iteration's class.
func (g *refGraph) Detach(v cir.Value) {
	n := g.NodeOf(v)
	fresh := g.newNode()
	g.moveVar(v, n, fresh)
}

// Target returns the node reached from v's class along label l, creating the
// target (and the edge) when absent. Checkers use it to name the abstract
// object behind *v without introducing a new variable.
func (g *refGraph) Target(v cir.Value, l Label) *refNode {
	n := g.NodeOf(v)
	if nx, ok := n.out[l]; ok {
		return nx
	}
	fresh := g.newNode()
	g.addEdge(n, l, fresh)
	return fresh
}

// DerefNode returns the abstract object *v, creating it if needed.
func (g *refGraph) DerefNode(v cir.Value) *refNode { return g.Target(v, DerefLabel) }

// ---- queries ----

// AccessPaths enumerates access paths reaching node n, up to maxDepth edge
// labels, deterministically ordered.
func (g *refGraph) AccessPaths(n *refNode, maxDepth int) []string {
	// Build a reverse adjacency snapshot.
	type redge struct {
		from *refNode
		l    Label
	}
	rev := make(map[*refNode][]redge)
	for _, m := range g.nodes {
		for l, t := range m.out {
			rev[t] = append(rev[t], redge{from: m, l: l})
		}
	}
	var out []string
	seen := make(map[string]struct{})
	var walk func(cur *refNode, suffix string, depth int, onPath map[*refNode]bool)
	walk = func(cur *refNode, suffix string, depth int, onPath map[*refNode]bool) {
		for v := range cur.vars {
			p := v.String() + suffix
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				out = append(out, p)
			}
		}
		if depth >= maxDepth {
			return
		}
		for _, re := range rev[cur] {
			if onPath[re.from] {
				continue
			}
			onPath[re.from] = true
			var seg string
			switch re.l.Kind {
			case Deref:
				seg = ".*"
			case Field:
				seg = "." + re.l.Name
			default:
				seg = "[" + re.l.Name + "]"
			}
			walk(re.from, seg+suffix, depth+1, onPath)
			delete(onPath, re.from)
		}
	}
	walk(n, "", 0, map[*refNode]bool{n: true})
	sort.Strings(out)
	return out
}

// SameClass reports whether a and b currently reside in the same alias class.
func (g *refGraph) SameClass(a, b cir.Value) bool {
	na, nb := g.varOf[a], g.varOf[b]
	return na != nil && na == nb
}

// String renders the live portion of the graph for debugging.
func (g *refGraph) String() string {
	var b strings.Builder
	for _, n := range g.nodes {
		if len(n.vars) == 0 && len(n.out) == 0 {
			continue
		}
		fmt.Fprintf(&b, "n%d {", n.ID)
		for i, v := range n.Vars() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString("}")
		if n.ConstVal != nil {
			fmt.Fprintf(&b, " =%s", n.ConstVal)
		}
		labels := make([]string, 0, len(n.out))
		for l, t := range n.out {
			labels = append(labels, fmt.Sprintf(" %s->n%d", l, t.ID))
		}
		sort.Strings(labels)
		for _, l := range labels {
			b.WriteString(l)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestDifferentialAgainstMapGraph drives Graph and refGraph through the same
// seeded random sequences of every update rule, mixed with nested
// checkpoints, rollbacks and resets, and compares them after every
// operation: printed graph, access paths and node ID of every variable,
// class membership and constants. Rollbacks and resets make Graph recycle
// node storage, which the map-based reference never does. The values are a
// numbered module function's registers and a global, which Graph keeps in
// its value-ID table, plus constants and a register of an unnumbered
// function, which it keeps in its side table.
func TestDifferentialAgainstMapGraph(t *testing.T) {
	m := cir.NewModule("m")
	fn := m.NewFunction("f", &cir.FuncType{Result: cir.Void})
	var vars []cir.Value
	for i := range 8 {
		vars = append(vars, fn.AddParam(fmt.Sprintf("v%d", i), cir.PointerTo(cir.I64)))
	}
	vars = append(vars, m.AddGlobal("gl", cir.I64))
	m.AssignGIDs()
	loose := cir.NewModule("loose").NewFunction("h", &cir.FuncType{Result: cir.Void})
	vars = append(vars, loose.AddParam("u", cir.PointerTo(cir.I64)),
		cir.IntConst(cir.I64, 9), cir.NullConst(cir.PointerTo(cir.I64)))
	for _, v := range vars[:9] {
		if cir.VID(v) == 0 {
			t.Fatalf("%s has no value ID", v)
		}
	}
	for _, v := range vars[9:] {
		if cir.VID(v) != 0 {
			t.Fatalf("%s has value ID %d", v, cir.VID(v))
		}
	}
	labels := []Label{DerefLabel, FieldLabel("f"), FieldLabel("g"),
		{Kind: Index, Name: "3"}, {Kind: Index, Name: "i@s"}}
	consts := []*cir.Const{cir.IntConst(cir.I64, 7), cir.IntConst(cir.I64, 0), cir.NullConst(cir.PointerTo(cir.I64))}
	type marks struct {
		g Mark
		r refMark
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, r := New(), newRef()
		var stack []marks
		for step := 0; step < 200; step++ {
			a, b := vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]
			l := labels[rng.Intn(len(labels))]
			c := consts[rng.Intn(len(consts))]
			op := ""
			switch rng.Intn(13) {
			case 0:
				op = "Move"
				g.Move(a, b)
				r.Move(a, b)
			case 1:
				op = "MoveConst"
				g.MoveConst(a, c)
				r.MoveConst(a, c)
			case 2:
				op = "Store"
				g.Store(a, b)
				r.Store(a, b)
			case 3:
				op = "StoreConst"
				g.Store(a, c)
				r.Store(a, c)
			case 4:
				op = "Load"
				g.Load(a, b)
				r.Load(a, b)
			case 5:
				op = "GEP"
				g.GEP(a, b, l)
				r.GEP(a, b, l)
			case 6:
				op = "Detach"
				g.Detach(a)
				r.Detach(a)
			case 7:
				op = "Target"
				if gn, rn := g.Target(a, l), r.Target(a, l); gn.ID != rn.ID {
					t.Fatalf("seed %d step %d: Target node n%d, reference n%d", seed, step, gn.ID, rn.ID)
				}
			case 8, 9:
				op = "Checkpoint"
				stack = append(stack, marks{g.Checkpoint(), r.Checkpoint()})
			case 10, 11:
				op = "Rollback"
				if len(stack) > 0 {
					i := rng.Intn(len(stack))
					g.Rollback(stack[i].g)
					r.Rollback(stack[i].r)
					stack = stack[:i]
				}
			case 12:
				if rng.Intn(8) == 0 {
					op = "Reset"
					g.Reset()
					r.Reset()
					stack = nil
				}
			}
			if err := diffGraphs(g, r, vars); err != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, err)
			}
		}
	}
}

// diffGraphs returns a description of the first observable difference
// between g and r, or "".
func diffGraphs(g *Graph, r *refGraph, vars []cir.Value) string {
	if gs, rs := g.String(), r.String(); gs != rs {
		return fmt.Sprintf("String:\n%s\nreference:\n%s", gs, rs)
	}
	if len(g.nodes) != len(r.nodes) {
		return fmt.Sprintf("%d nodes, reference %d", len(g.nodes), len(r.nodes))
	}
	for _, v := range vars {
		gn, rn := g.Lookup(v), r.Lookup(v)
		if (gn == nil) != (rn == nil) {
			return fmt.Sprintf("%s: Lookup nil-ness differs", v)
		}
		if gn == nil {
			continue
		}
		if gn.ID != rn.ID || gn.ConstVal != rn.ConstVal || gn.NumVars() != rn.NumVars() {
			return fmt.Sprintf("%s: node n%d const %v, reference n%d const %v", v, gn.ID, gn.ConstVal, rn.ID, rn.ConstVal)
		}
		if gp, rp := g.AccessPaths(gn, 3), r.AccessPaths(rn, 3); !slices.Equal(gp, rp) {
			return fmt.Sprintf("%s: AccessPaths %v, reference %v", v, gp, rp)
		}
		for _, w := range vars {
			if g.SameClass(v, w) != r.SameClass(v, w) {
				return fmt.Sprintf("SameClass(%s, %s) differs", v, w)
			}
		}
	}
	return ""
}

// TestRecycledNodeIsClean: a node created in a slot a rollback or reset
// retired reuses the old *Node but starts with no vars, no out edges and no
// constant.
func TestRecycledNodeIsClean(t *testing.T) {
	g := New()
	p, q := reg("p"), reg("q")
	build := func() []*Node {
		g.MoveConst(p, cir.IntConst(cir.I64, 5)) // n1 {}, n2 {p} =5
		g.Store(p, q)                            // n2 -*-> n3 {q}
		g.GEP(q, p, FieldLabel("f"))             // n2 -.f-> n3
		g.Detach(q)                              // q moves to n4
		return slices.Clone(g.nodes)
	}
	check := func(how string, old []*Node) {
		for i, want := range old {
			n := g.newNode()
			if n != want {
				t.Fatalf("%s: slot %d not recycled", how, i)
			}
			if n.ID != i+1 || len(n.vars) != 0 || len(n.out) != 0 || n.ConstVal != nil {
				t.Fatalf("%s: recycled node n%d has vars %v, %d out edges, const %v", how, n.ID, n.vars, len(n.out), n.ConstVal)
			}
		}
	}
	m := g.Checkpoint()
	old := build()
	if len(old) != 4 {
		t.Fatalf("built %d nodes, want 4:\n%s", len(old), g)
	}
	g.Rollback(m)
	check("rollback", old)

	g.Reset()
	old = build()
	g.Reset()
	check("reset", old)
}
