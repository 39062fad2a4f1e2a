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

// IndexLabel returns the label for an array index. Constant indexes use the
// constant's text so a[3] aliases a[3]; non-constant indexes are labelled
// with a token unique to the indexing instruction, reproducing the paper's
// array-insensitivity (§5.2). The site token must be content-stable across
// unrelated module edits — these labels reach report output through alias
// sets, and the incremental cache replays reports byte-for-byte — so call
// sites derive it from cir.SiteToken (function name + function-local
// instruction ID), not from the module-wide GID.
func IndexLabel(idx cir.Value, site string) Label {
	if c, ok := idx.(*cir.Const); ok && !c.IsStr {
		return Label{Kind: Index, Name: fmt.Sprintf("%d", c.Val)}
	}
	return Label{Kind: Index, Name: "i@" + site}
}

// Node is an alias class.
type Node struct {
	ID   int
	vars map[cir.Value]struct{}
	out  map[Label]*Node
	// ConstVal records that the abstract object currently holds this
	// constant (set by stores/moves of constants); nil otherwise. The path
	// validator and the NPD checker consume it.
	ConstVal *cir.Const
}

// Vars returns the variables of the alias class, deterministically ordered.
func (n *Node) Vars() []cir.Value {
	out := make([]cir.Value, 0, len(n.vars))
	for v := range n.vars {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NumVars returns the size of the alias class.
func (n *Node) NumVars() int { return len(n.vars) }

// Out returns the successor along label l, or nil.
func (n *Node) Out(l Label) *Node { return n.out[l] }

// Graph is a mutable alias graph with an undo trail.
type Graph struct {
	varOf  map[cir.Value]*Node
	nodes  []*Node
	trail  []undo
	nextID int
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
func New() *Graph {
	return &Graph{varOf: make(map[cir.Value]*Node)}
}

// Reset returns the graph to the empty state New produces while keeping the
// allocations a previous run warmed up: the backing arrays of nodes/trail and
// the varOf map. Node IDs restart at 1, so a reset graph replays a path
// bit-identically to a fresh one — which is what lets the path validator
// pool replayers instead of allocating graph+maps per candidate.
func (g *Graph) Reset() {
	clear(g.varOf)
	g.nodes = g.nodes[:0]
	g.trail = g.trail[:0]
	g.nextID = 0
}

func (g *Graph) newNode() *Node {
	g.nextID++
	n := &Node{ID: g.nextID, vars: make(map[cir.Value]struct{}), out: make(map[Label]*Node)}
	g.nodes = append(g.nodes, n)
	g.trail = append(g.trail, undo{kind: uNodeNew, to: n})
	return n
}

// NodeOf returns the node representing v, creating an isolated node when v
// has not been seen (the GetNode of the paper's pseudocode).
func (g *Graph) NodeOf(v cir.Value) *Node {
	if n, ok := g.varOf[v]; ok {
		return n
	}
	n := g.newNode()
	n.vars[v] = struct{}{}
	g.varOf[v] = n
	g.trail = append(g.trail, undo{kind: uVarMove, v: v, from: nil, to: n})
	return n
}

// Lookup returns the node of v without creating one.
func (g *Graph) Lookup(v cir.Value) *Node { return g.varOf[v] }

func (g *Graph) moveVar(v cir.Value, from, to *Node) {
	if from == to {
		return
	}
	if from != nil {
		delete(from.vars, v)
	}
	to.vars[v] = struct{}{}
	g.varOf[v] = to
	g.trail = append(g.trail, undo{kind: uVarMove, v: v, from: from, to: to})
}

func (g *Graph) addEdge(from *Node, l Label, to *Node) {
	from.out[l] = to
	g.trail = append(g.trail, undo{kind: uEdgeAdd, from: from, to: to, label: l})
}

func (g *Graph) delEdge(from *Node, l Label) {
	to, ok := from.out[l]
	if !ok {
		return
	}
	delete(from.out, l)
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
			delete(u.to.vars, u.v)
			if u.from != nil {
				u.from.vars[u.v] = struct{}{}
				g.varOf[u.v] = u.from
			} else {
				delete(g.varOf, u.v)
			}
		case uEdgeAdd:
			delete(u.from.out, u.label)
		case uEdgeDel:
			u.from.out[u.label] = u.to
		case uNodeNew:
			g.nodes = g.nodes[:len(g.nodes)-1]
			// Rewind the ID counter too, so node IDs are reproducible across
			// sibling subtrees of the DFS (the next allocation after a
			// rollback reuses the ID the rolled-back node had, in the same
			// structural position).
			g.nextID--
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
	if nx, ok := n2.out[DerefLabel]; ok {
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
	if nx, ok := n.out[l]; ok {
		return nx
	}
	fresh := g.newNode()
	g.addEdge(n, l, fresh)
	return fresh
}

// DerefNode returns the abstract object *v, creating it if needed.
func (g *Graph) DerefNode(v cir.Value) *Node { return g.Target(v, DerefLabel) }

// ---- queries ----

// AliasSet returns the access paths that reach v's alias class: the plain
// variables residing in the class plus paths of the form base.l1.l2...
// discovered by a bounded reverse walk (Example 1 of the paper).
func (g *Graph) AliasSet(v cir.Value, maxDepth int) []string {
	n := g.varOf[v]
	if n == nil {
		return nil
	}
	return g.AccessPaths(n, maxDepth)
}

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
		for l, t := range m.out {
			rev[t] = append(rev[t], redge{from: m, l: l})
		}
	}
	var out []string
	seen := make(map[string]struct{})
	var walk func(cur *Node, suffix string, depth int, onPath map[*Node]bool)
	walk = func(cur *Node, suffix string, depth int, onPath map[*Node]bool) {
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
	walk(n, "", 0, map[*Node]bool{n: true})
	sort.Strings(out)
	return out
}

// SameClass reports whether a and b currently reside in the same alias class.
func (g *Graph) SameClass(a, b cir.Value) bool {
	na, nb := g.varOf[a], g.varOf[b]
	return na != nil && na == nb
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

// DOT renders the live portion of the graph in Graphviz format, for
// debugging and documentation. Nodes show their alias classes; edges show
// their labels.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n\trankdir=LR;\n\tnode [shape=box, fontname=monospace];\n", name)
	live := make(map[*Node]bool)
	for _, n := range g.nodes {
		if len(n.vars) > 0 || len(n.out) > 0 {
			live[n] = true
		}
		for _, t := range n.out {
			live[t] = true
		}
	}
	for _, n := range g.nodes {
		if !live[n] {
			continue
		}
		label := ""
		for i, v := range n.Vars() {
			if i > 0 {
				label += "\\n"
			}
			label += v.String()
		}
		if n.ConstVal != nil {
			label += "\\n= " + n.ConstVal.String()
		}
		if label == "" {
			label = "∅"
		}
		fmt.Fprintf(&b, "\tn%d [label=\"%s\"];\n", n.ID, label)
	}
	for _, n := range g.nodes {
		if !live[n] {
			continue
		}
		labels := make([]string, 0, len(n.out))
		for l := range n.out {
			labels = append(labels, l.String())
		}
		sort.Strings(labels)
		for _, ls := range labels {
			for l, t := range n.out {
				if l.String() == ls {
					fmt.Fprintf(&b, "\tn%d -> n%d [label=%q];\n", n.ID, t.ID, ls)
				}
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
