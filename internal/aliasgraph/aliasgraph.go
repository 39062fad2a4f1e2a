// Package aliasgraph implements the alias graph of the paper's Definition 1
// and the update rules of Figure 5. A graph node is an alias class (a set of
// variables referring to one abstract object); edges are labelled with a
// struct field, an array index, or the dereference operator "*", describing
// how abstract objects are reached from one another.
//
// The graph supports O(1) checkpoint and rollback through an undo trail, so
// the path-sensitive DFS of the analysis engine can explore one control-flow
// path, backtrack, and explore the next without cloning graphs (the paper's
// per-program-point graphs are conceptually copies; the trail realizes the
// same semantics cheaply).
package aliasgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cir"
)

// LabelKind distinguishes edge labels.
type LabelKind uint8

// Edge label kinds.
const (
	Deref LabelKind = iota // the "*" label
	Field                  // a struct field access
	Index                  // an array element access
)

// Label is an alias-graph edge label.
type Label struct {
	Kind LabelKind
	Name string // field name or index token; empty for Deref
}

func (l Label) String() string {
	switch l.Kind {
	case Deref:
		return "*"
	case Field:
		return "." + l.Name
	default:
		return "[" + l.Name + "]"
	}
}

// DerefLabel is the "*" label.
var DerefLabel = Label{Kind: Deref}

// FieldLabel returns the label for field name.
func FieldLabel(name string) Label { return Label{Kind: Field, Name: name} }

// IndexLabel returns the label of the element address that in computes: its
// Label text (cir.IndexAddr.Label), which ExtendGIDs computes once. A
// constant index uses the constant's text so a[3] aliases a[3]; a
// non-constant index is labelled with a token unique to the instruction,
// reproducing the paper's array-insensitivity (§5.2).
func IndexLabel(in *cir.IndexAddr) Label { return Label{Kind: Index, Name: in.Label()} }

// Node is an alias class. Members and out edges are small slices searched
// linearly: a class holds a handful of variables and a node has at most one
// edge per label, so a scan beats hashing, and a node recycled after a
// rollback keeps their capacity. Their order is unspecified; every reader
// that prints or enumerates them sorts.
type Node struct {
	ID   int
	vars []cir.Value
	out  []edge
	// ConstVal records that the abstract object currently holds this
	// constant (set by stores/moves of constants); nil otherwise. The path
	// validator and the NPD checker consume it.
	ConstVal *cir.Const
}

// edge is one labelled out edge of a node.
type edge struct {
	l  Label
	to *Node
}

// Vars returns the variables of the alias class, deterministically ordered.
func (n *Node) Vars() []cir.Value {
	out := slices.Clone(n.vars)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NumVars returns the size of the alias class.
func (n *Node) NumVars() int { return len(n.vars) }

// Var returns the i-th variable of the alias class, 0 <= i < NumVars(), in
// unspecified order: a reader that needs an order imposes its own.
func (n *Node) Var(i int) cir.Value { return n.vars[i] }

// Out returns the successor along label l, or nil.
func (n *Node) Out(l Label) *Node {
	for _, e := range n.out {
		if e.l == l {
			return e.to
		}
	}
	return nil
}

// removeVar swap-removes v from the class.
func (n *Node) removeVar(v cir.Value) {
	i := slices.Index(n.vars, v)
	last := len(n.vars) - 1
	n.vars[i] = n.vars[last]
	n.vars = n.vars[:last]
}

// removeEdge swap-removes the edge labelled l and returns its target, or nil
// when there is none.
func (n *Node) removeEdge(l Label) *Node {
	for i, e := range n.out {
		if e.l == l {
			last := len(n.out) - 1
			n.out[i] = n.out[last]
			n.out = n.out[:last]
			return e.to
		}
	}
	return nil
}

// Graph is a mutable alias graph with an undo trail.
//
// Node IDs are LIFO: node k sits at nodes[k-1], and Rollback retires the
// newest nodes first. Retired *Node values stay in the backing array past
// len(nodes) and newNode reuses them, so a holder of a *Node must drop it
// when a rollback (or Reset) retires the node: the engine's tracker is
// rolled back together with the graph, and the path replayer undoes its
// pointer-keyed symbols through its own log.
type Graph struct {
	// varOf holds, per value ID (cir.VID), the ID of the node whose class
	// the value is in, 0 for none. Its slots come in chunks, allocated
	// when first written, so a graph holds memory for the values its paths
	// touched, not for the module's whole value-ID space.
	varOf []*[chunkLen]int32
	// side holds the classes of the values without a value ID: constants,
	// and registers of functions no module numbered (unit tests). It is
	// searched linearly, since a path gives few constants a class (as an
	// address or a compared value, not as a moved or stored one).
	side  []sideVar
	nodes []*Node
	trail []undo
}

// chunkLen is the number of value-ID slots per chunk of Graph.varOf: a
// chunk spans the registers of a few functions.
const chunkLen = 256

// sideVar is a value without a value ID in the class of node id.
type sideVar struct {
	v  cir.Value
	id int32
}

// Mark is a checkpoint into the trail.
type Mark int

type undoKind uint8

const (
	uVarMove undoKind = iota
	uEdgeAdd
	uEdgeDel
	uNodeNew
	uConstSet
)

type undo struct {
	kind     undoKind
	v        cir.Value
	from, to *Node
	label    Label
	oldConst *cir.Const
}

// New returns an empty alias graph. Nodes are created lazily when variables
// are first touched, which is semantically identical to the paper's
// initialization of one isolated node per program variable.
func New() *Graph { return &Graph{} }

// Reset returns the graph to the empty state New produces while keeping the
// allocations a previous run warmed up: the nodes (recycled by later
// allocations), the trail's backing array and the varOf table. Only the
// slots of the live nodes' variables are cleared, so a reset costs the
// replay it follows, not the table's size. Node IDs restart at 1, so a
// reset graph replays a path bit-identically to a fresh one — which is
// what lets the path validator pool replayers instead of allocating a
// graph per candidate.
func (g *Graph) Reset() {
	for _, n := range g.nodes {
		for _, v := range n.vars {
			if vid := cir.VID(v); vid != 0 {
				g.varOf[vid/chunkLen][vid%chunkLen] = 0
			}
		}
	}
	clear(g.side)
	g.side = g.side[:0]
	g.nodes = g.nodes[:0]
	g.trail = g.trail[:0]
}

// classOf returns the ID of the node v (with value ID vid) is in, 0 for none.
func (g *Graph) classOf(v cir.Value, vid int) int32 {
	if vid != 0 {
		if c := vid / chunkLen; c < len(g.varOf) && g.varOf[c] != nil {
			return g.varOf[c][vid%chunkLen]
		}
		return 0
	}
	for _, s := range g.side {
		if s.v == v {
			return s.id
		}
	}
	return 0
}

// setClass records that v (with value ID vid) is in node id, or in none
// when id is 0.
func (g *Graph) setClass(v cir.Value, vid int, id int32) {
	if vid != 0 {
		c := vid / chunkLen
		if c >= len(g.varOf) {
			g.varOf = append(g.varOf, make([]*[chunkLen]int32, c+1-len(g.varOf))...)
		}
		if g.varOf[c] == nil {
			g.varOf[c] = new([chunkLen]int32)
		}
		g.varOf[c][vid%chunkLen] = id
		return
	}
	for i, s := range g.side {
		if s.v == v {
			if id != 0 {
				g.side[i].id = id
				return
			}
			last := len(g.side) - 1
			g.side[i] = g.side[last]
			g.side[last] = sideVar{}
			g.side = g.side[:last]
			return
		}
	}
	if id != 0 {
		g.side = append(g.side, sideVar{v: v, id: id})
	}
}

// newNode allocates the next node, reusing the retired node in the slot
// past len(nodes) when there is one. A node retired by Rollback is already
// detached (its var moves and edge changes were undone before its creation
// was); one retired by Reset is cleared here.
func (g *Graph) newNode() *Node {
	k := len(g.nodes)
	var n *Node
	if k < cap(g.nodes) {
		n = g.nodes[:k+1][k]
	}
	if n == nil {
		n = &Node{ID: k + 1}
	} else {
		*n = Node{ID: k + 1, vars: n.vars[:0], out: n.out[:0]}
	}
	g.nodes = append(g.nodes, n)
	g.trail = append(g.trail, undo{kind: uNodeNew, to: n})
	return n
}

// NodeOf returns the node representing v, creating an isolated node when v
// has not been seen (the GetNode of the paper's pseudocode).
func (g *Graph) NodeOf(v cir.Value) *Node {
	vid := cir.VID(v)
	if id := g.classOf(v, vid); id != 0 {
		return g.nodes[id-1]
	}
	n := g.newNode()
	n.vars = append(n.vars, v)
	g.setClass(v, vid, int32(n.ID))
	g.trail = append(g.trail, undo{kind: uVarMove, v: v, from: nil, to: n})
	return n
}

// Lookup returns the node of v without creating one.
func (g *Graph) Lookup(v cir.Value) *Node {
	if id := g.classOf(v, cir.VID(v)); id != 0 {
		return g.nodes[id-1]
	}
	return nil
}

func (g *Graph) moveVar(v cir.Value, from, to *Node) {
	if from == to {
		return
	}
	if from != nil {
		from.removeVar(v)
	}
	to.vars = append(to.vars, v)
	g.setClass(v, cir.VID(v), int32(to.ID))
	g.trail = append(g.trail, undo{kind: uVarMove, v: v, from: from, to: to})
}

// addEdge adds the edge from -l-> to; from must have no l edge.
func (g *Graph) addEdge(from *Node, l Label, to *Node) {
	from.out = append(from.out, edge{l: l, to: to})
	g.trail = append(g.trail, undo{kind: uEdgeAdd, from: from, to: to, label: l})
}

func (g *Graph) delEdge(from *Node, l Label) {
	to := from.removeEdge(l)
	if to == nil {
		return
	}
	g.trail = append(g.trail, undo{kind: uEdgeDel, from: from, to: to, label: l})
}

func (g *Graph) setConst(n *Node, c *cir.Const) {
	g.trail = append(g.trail, undo{kind: uConstSet, to: n, oldConst: n.ConstVal})
	n.ConstVal = c
}

// Checkpoint returns a mark for Rollback.
func (g *Graph) Checkpoint() Mark { return Mark(len(g.trail)) }

// Rollback undoes every mutation made after mark.
func (g *Graph) Rollback(mark Mark) {
	for len(g.trail) > int(mark) {
		u := g.trail[len(g.trail)-1]
		g.trail = g.trail[:len(g.trail)-1]
		switch u.kind {
		case uVarMove:
			u.to.removeVar(u.v)
			var id int32
			if u.from != nil {
				u.from.vars = append(u.from.vars, u.v)
				id = int32(u.from.ID)
			}
			g.setClass(u.v, cir.VID(u.v), id)
		case uEdgeAdd:
			u.from.removeEdge(u.label)
		case uEdgeDel:
			u.from.out = append(u.from.out, edge{l: u.label, to: u.to})
		case uNodeNew:
			// Retiring the newest node rewinds the ID counter too, so node
			// IDs are reproducible across sibling subtrees of the DFS (the
			// next allocation after a rollback reuses the ID the rolled-back
			// node had, in the same structural position).
			g.nodes = g.nodes[:len(g.nodes)-1]
		case uConstSet:
			u.to.ConstVal = u.oldConst
		}
	}
}

// ---- Figure 5 update rules ----

// Move handles MOVE(v1 = v2): v1 joins v2's alias class.
func (g *Graph) Move(v1, v2 cir.Value) {
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
func (g *Graph) MoveConst(v1 cir.Value, c *cir.Const) {
	n1 := g.NodeOf(v1)
	fresh := g.newNode()
	g.setConst(fresh, c)
	g.moveVar(v1, n1, fresh)
}

// Store handles STORE(*v2 = v1): the deref edge of v2's class is strongly
// updated to point at v1's class.
func (g *Graph) Store(v2, v1 cir.Value) {
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
func (g *Graph) Load(v1, v2 cir.Value) {
	n2 := g.NodeOf(v2)
	if nx := n2.Out(DerefLabel); nx != nil {
		g.moveVar(v1, g.NodeOf(v1), nx)
		return
	}
	n1 := g.NodeOf(v1)
	g.addEdge(n2, DerefLabel, n1)
}

// GEP handles GEP(v1 = &v2->f) and its array-index analogue: identical to
// Load but with a field or index label.
func (g *Graph) GEP(v1, v2 cir.Value, l Label) {
	n2 := g.NodeOf(v2)
	if nx := n2.Out(l); nx != nil {
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
func (g *Graph) Detach(v cir.Value) {
	n := g.NodeOf(v)
	fresh := g.newNode()
	g.moveVar(v, n, fresh)
}

// Target returns the node reached from v's class along label l, creating the
// target (and the edge) when absent. Checkers use it to name the abstract
// object behind *v without introducing a new variable.
func (g *Graph) Target(v cir.Value, l Label) *Node {
	n := g.NodeOf(v)
	if nx := n.Out(l); nx != nil {
		return nx
	}
	fresh := g.newNode()
	g.addEdge(n, l, fresh)
	return fresh
}

// DerefNode returns the abstract object *v, creating it if needed.
func (g *Graph) DerefNode(v cir.Value) *Node { return g.Target(v, DerefLabel) }

// ---- queries ----

// AccessPaths enumerates access paths reaching node n, up to maxDepth edge
// labels, deterministically ordered.
func (g *Graph) AccessPaths(n *Node, maxDepth int) []string {
	// Build a reverse adjacency snapshot.
	type redge struct {
		from *Node
		l    Label
	}
	rev := make(map[*Node][]redge)
	for _, m := range g.nodes {
		for _, e := range m.out {
			rev[e.to] = append(rev[e.to], redge{from: m, l: e.l})
		}
	}
	var out []string
	seen := make(map[string]struct{})
	var walk func(cur *Node, suffix string, depth int, onPath map[*Node]bool)
	walk = func(cur *Node, suffix string, depth int, onPath map[*Node]bool) {
		for _, v := range cur.vars {
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
	walk(n, "", 0, map[*Node]bool{n: true})
	sort.Strings(out)
	return out
}

// SameClass reports whether a and b currently reside in the same alias class.
func (g *Graph) SameClass(a, b cir.Value) bool {
	na := g.Lookup(a)
	return na != nil && na == g.Lookup(b)
}

// String renders the live portion of the graph for debugging.
func (g *Graph) String() string {
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
		for _, e := range n.out {
			labels = append(labels, fmt.Sprintf(" %s->n%d", e.l, e.to.ID))
		}
		sort.Strings(labels)
		for _, l := range labels {
			b.WriteString(l)
		}
		b.WriteString("\n")
	}
	return b.String()
}
