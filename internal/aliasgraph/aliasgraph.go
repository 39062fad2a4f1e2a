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
	"repro/internal/hmix"
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

	// fp is an incrementally maintained canonical fingerprint of the live
	// graph: the XOR of one mixed hash per fact, where the facts are
	// variable-class memberships (v ∈ n), labelled edges (n₁ →l n₂), and
	// constant bindings (n = c). XOR makes every update O(1) and exactly
	// reversible through the same trail that drives Rollback, and it is
	// order-independent, so two graphs reached along different DFS prefixes
	// fingerprint equal iff they hold the same facts over the same node IDs
	// (IDs are reproducible because Rollback also rewinds nextID).
	fp uint64
	// valHash caches a stable per-variable hash (derived from the value's
	// printed name plus its owning function, never from pointer identity, so
	// fingerprints are reproducible across engines).
	valHash map[cir.Value]uint64
	// labelHash caches per-label hashes.
	labelHash map[Label]uint64
	// canonLabels/canonSeeded are scratch maps reused across CanonState
	// calls (the engine calls it at every CFG join it enters, so per-call
	// allocation dominated its cost).
	canonLabels map[*Node]uint64
	canonSeeded map[*Node]bool
	// canonSub/canonInSub are CanonStateSeeded's scratch: the seed-reachable
	// subgraph in creation order, and its membership set.
	canonSub   []*Node
	canonInSub map[*Node]bool
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
	return &Graph{
		varOf:     make(map[cir.Value]*Node),
		valHash:   make(map[cir.Value]uint64),
		labelHash: make(map[Label]uint64),
	}
}

// Reset returns the graph to the empty state New produces while keeping the
// allocations a previous run warmed up: the backing arrays of nodes/trail and
// the valHash/labelHash caches (both are pure functions of their keys, so
// stale entries can never change a hash). Node IDs restart at 1 and the
// fingerprint at 0, so a reset graph replays a path bit-identically to a
// fresh one — which is what lets the path validator pool replayers instead of
// allocating graph+maps per candidate.
func (g *Graph) Reset() {
	clear(g.varOf)
	g.nodes = g.nodes[:0]
	g.trail = g.trail[:0]
	g.nextID = 0
	g.fp = 0
}

// Fingerprint returns the incrementally maintained hash of the live graph.
// Equal graphs (same memberships, edges, and constant bindings over the same
// node IDs) always fingerprint equal; distinct graphs collide only with
// ordinary 64-bit hash probability.
func (g *Graph) Fingerprint() uint64 { return g.fp }

// Fact tags keep the three fact families in disjoint hash spaces.
const (
	tagMember uint64 = 1
	tagEdge   uint64 = 2
	tagConst  uint64 = 3
	// tagCanonReach labels var-less nodes in CanonState by the path that
	// reaches them, keeping those labels disjoint from seed labels.
	tagCanonReach uint64 = 4
)

func (g *Graph) vhash(v cir.Value) uint64 {
	if h, ok := g.valHash[v]; ok {
		return h
	}
	var h uint64
	if r, ok := v.(*cir.Register); ok {
		// Register strings are only unique within a function; qualify with
		// the owning function's name.
		fn := ""
		if r.Fn != nil {
			fn = r.Fn.Name
		}
		h = hmix.Mix2(hmix.Str(fn), uint64(r.ID))
	} else {
		h = hmix.Str(v.String())
	}
	g.valHash[v] = h
	return h
}

func (g *Graph) lhash(l Label) uint64 {
	if h, ok := g.labelHash[l]; ok {
		return h
	}
	h := hmix.Mix2(uint64(l.Kind), hmix.Str(l.Name))
	g.labelHash[l] = h
	return h
}

func (g *Graph) memberFact(v cir.Value, n *Node) uint64 {
	return hmix.Mix3(tagMember, g.vhash(v), uint64(n.ID))
}

func (g *Graph) edgeFact(from *Node, l Label, to *Node) uint64 {
	return hmix.Mix4(tagEdge, uint64(from.ID), g.lhash(l), uint64(to.ID))
}

func constHash(c *cir.Const) uint64 {
	switch {
	case c.IsNull:
		return hmix.Mix2(1, 0)
	case c.IsStr:
		return hmix.Mix2(2, hmix.Str(c.Str))
	default:
		return hmix.Mix2(3, uint64(c.Val))
	}
}

func (g *Graph) constFact(n *Node, c *cir.Const) uint64 {
	return hmix.Mix3(tagConst, uint64(n.ID), constHash(c))
}

// toggleConst XORs the binding fact n = c in or out; nil bindings carry no
// fact, so set/rollback stay symmetric.
func (g *Graph) toggleConst(n *Node, c *cir.Const) {
	if c != nil {
		g.fp ^= g.constFact(n, c)
	}
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
	g.fp ^= g.memberFact(v, n)
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
		g.fp ^= g.memberFact(v, from)
	}
	to.vars[v] = struct{}{}
	g.varOf[v] = to
	g.fp ^= g.memberFact(v, to)
	g.trail = append(g.trail, undo{kind: uVarMove, v: v, from: from, to: to})
}

func (g *Graph) addEdge(from *Node, l Label, to *Node) {
	from.out[l] = to
	g.fp ^= g.edgeFact(from, l, to)
	g.trail = append(g.trail, undo{kind: uEdgeAdd, from: from, to: to, label: l})
}

func (g *Graph) delEdge(from *Node, l Label) {
	to, ok := from.out[l]
	if !ok {
		return
	}
	delete(from.out, l)
	g.fp ^= g.edgeFact(from, l, to)
	g.trail = append(g.trail, undo{kind: uEdgeDel, from: from, to: to, label: l})
}

func (g *Graph) setConst(n *Node, c *cir.Const) {
	g.trail = append(g.trail, undo{kind: uConstSet, to: n, oldConst: n.ConstVal})
	g.toggleConst(n, n.ConstVal)
	n.ConstVal = c
	g.toggleConst(n, c)
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
			g.fp ^= g.memberFact(u.v, u.to)
			if u.from != nil {
				u.from.vars[u.v] = struct{}{}
				g.varOf[u.v] = u.from
				g.fp ^= g.memberFact(u.v, u.from)
			} else {
				delete(g.varOf, u.v)
			}
		case uEdgeAdd:
			delete(u.from.out, u.label)
			g.fp ^= g.edgeFact(u.from, u.label, u.to)
		case uEdgeDel:
			u.from.out[u.label] = u.to
			g.fp ^= g.edgeFact(u.from, u.label, u.to)
		case uNodeNew:
			g.nodes = g.nodes[:len(g.nodes)-1]
			// Rewind the ID counter too: node IDs feed the fingerprint, and
			// rewinding makes them reproducible across sibling subtrees of
			// the DFS (the next allocation after a rollback reuses the ID the
			// rolled-back node had, in the same structural position).
			g.nextID--
		case uConstSet:
			g.toggleConst(u.to, u.to.ConstVal)
			u.to.ConstVal = u.oldConst
			g.toggleConst(u.to, u.oldConst)
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

// CanonState returns a node-ID-independent digest of the graph portion
// reachable (forward, through labelled edges) from relevant program
// variables, together with the canonical per-node labels it derived. Two
// graphs holding the same relevant facts digest equal no matter how many
// nodes were allocated and rolled back on the way there — which the
// incremental Fingerprint, whose facts embed allocation-order node IDs,
// cannot promise. The engine's (block, state) memo needs exactly this
// ID-independence: different DFS prefixes that converge on the same logical
// configuration must produce the same key.
//
// relevant restricts the digest to the variables a caller can still observe
// (the engine passes "used by an instruction the subtree can reach"); nil
// means every variable is relevant. Irrelevant variables contribute no seed
// and no membership fact: a dead condition register absorbed into a class
// must not distinguish two otherwise-identical configurations, because no
// future graph query can name it. Nodes holding only irrelevant variables
// can still inherit a propagated label — the subtree can navigate to them
// through edges from relevant ones.
//
// Labels: a node holding relevant variables is seeded with the XOR of those
// members' hashes; other nodes inherit the minimum of Mix(label(pred),
// label(edge)) over their predecessors, propagated to a fixpoint. Nodes
// unreachable from every relevant variable stay unlabelled and contribute
// nothing — the subtree resolves objects only through values it uses, so it
// can never read their facts. Callers that hold their own node references
// (the typestate tracker) must treat a missing label as either droppable or
// "not canonicalizable" depending on whether the fact can fire without a
// variable naming it (see Tracker.CanonDigest).
//
// The digest XORs one hash per fact — membership (vhash, label), edge
// (label, edge hash, label), constant binding (label, const hash) — so it is
// independent of iteration order; the fixpoint makes it independent of node
// allocation order.
//
// The returned label map is scratch storage owned by the graph: it is valid
// only until the next CanonState call.
func (g *Graph) CanonState(relevant func(cir.Value) bool) (uint64, map[*Node]uint64) {
	if g.canonLabels == nil {
		g.canonLabels = make(map[*Node]uint64, len(g.varOf))
		g.canonSeeded = make(map[*Node]bool, len(g.varOf))
	}
	labels, seeded := g.canonLabels, g.canonSeeded
	clear(labels)
	clear(seeded)
	for v, n := range g.varOf {
		if relevant != nil && !relevant(v) {
			continue
		}
		labels[n] ^= hmix.Mix2(tagMember, g.vhash(v))
		seeded[n] = true
	}
	// Propagate labels into non-seeded nodes, min-combining so the result is
	// independent of visit order once the fixpoint is reached. Labels only
	// decrease; seeds are never overwritten. The round cap bounds
	// pathological cycles — an early exit there can only split one logical
	// configuration into several labels (missed memo hits), never merge two
	// distinct ones.
	for round := 0; round <= len(g.nodes); round++ {
		changed := false
		for _, n := range g.nodes {
			ln, ok := labels[n]
			if !ok {
				continue
			}
			for l, t := range n.out {
				if seeded[t] {
					continue
				}
				cand := hmix.Mix3(tagCanonReach, ln, g.lhash(l))
				if cur, ok := labels[t]; !ok || cand < cur {
					labels[t] = cand
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	var d uint64
	for v, n := range g.varOf {
		if relevant != nil && !relevant(v) {
			continue
		}
		d ^= hmix.Mix3(tagMember, g.vhash(v), labels[n])
	}
	for _, n := range g.nodes {
		ln, ok := labels[n]
		if !ok {
			continue
		}
		if n.ConstVal != nil {
			d ^= hmix.Mix3(tagConst, ln, constHash(n.ConstVal))
		}
		for l, t := range n.out {
			if lt, ok := labels[t]; ok {
				d ^= hmix.Mix4(tagEdge, ln, g.lhash(l), lt)
			}
		}
	}
	return d, labels
}

// CanonStateSeeded computes exactly what CanonState computes, but in time
// proportional to the seed-reachable subgraph instead of the whole graph.
// The caller passes the relevant variables directly (each exactly once —
// seeding XORs, so a duplicate would cancel itself; unbound variables are
// skipped) instead of having the graph filter every variable it has ever
// bound; the fixpoint and the digest then walk only the nodes reachable from
// the seeds. Since label propagation can only flow out of labelled nodes,
// every node CanonState would label lies in that reachable set, and
// iterating it in node-creation order with the same round cap replays the
// full loop's update sequence verbatim — the digest, the label map, and even
// the early-exit behaviour on pathological cycles are bit-identical
// (TestCanonSeededCrossCheck pins this against the full path on whole
// corpora).
//
// The returned label map is scratch storage owned by the graph, valid only
// until the next CanonState/CanonStateSeeded call; vars is borrowed only for
// the duration of the call.
func (g *Graph) CanonStateSeeded(vars []cir.Value) (uint64, map[*Node]uint64) {
	if g.canonLabels == nil {
		g.canonLabels = make(map[*Node]uint64, len(g.varOf))
		g.canonSeeded = make(map[*Node]bool, len(g.varOf))
	}
	if g.canonInSub == nil {
		g.canonInSub = make(map[*Node]bool, len(g.varOf))
	}
	labels, seeded, inSub := g.canonLabels, g.canonSeeded, g.canonInSub
	clear(labels)
	clear(seeded)
	clear(inSub)
	sub := g.canonSub[:0]
	for _, v := range vars {
		n := g.varOf[v]
		if n == nil {
			continue
		}
		labels[n] ^= hmix.Mix2(tagMember, g.vhash(v))
		if !seeded[n] {
			seeded[n] = true
			inSub[n] = true
			sub = append(sub, n)
		}
	}
	// Close the seed set under out-edges; sub doubles as the BFS queue.
	for i := 0; i < len(sub); i++ {
		for _, t := range sub[i].out {
			if !inSub[t] {
				inSub[t] = true
				sub = append(sub, t)
			}
		}
	}
	// Creation order = ID order: restricting the full loop's iteration to
	// this subset preserves the in-round update sequence exactly.
	slices.SortFunc(sub, func(a, b *Node) int { return a.ID - b.ID })
	// Same round cap as CanonState (the full node count, not the subset):
	// the cap only matters on pathological cycles, and both paths must give
	// up after the same number of rounds to stay bit-identical there.
	for round := 0; round <= len(g.nodes); round++ {
		changed := false
		for _, n := range sub {
			ln, ok := labels[n]
			if !ok {
				continue
			}
			for l, t := range n.out {
				if seeded[t] {
					continue
				}
				cand := hmix.Mix3(tagCanonReach, ln, g.lhash(l))
				if cur, ok := labels[t]; !ok || cand < cur {
					labels[t] = cand
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	var d uint64
	for _, v := range vars {
		n := g.varOf[v]
		if n == nil {
			continue
		}
		d ^= hmix.Mix3(tagMember, g.vhash(v), labels[n])
	}
	for _, n := range sub {
		ln, ok := labels[n]
		if !ok {
			continue
		}
		if n.ConstVal != nil {
			d ^= hmix.Mix3(tagConst, ln, constHash(n.ConstVal))
		}
		for l, t := range n.out {
			if lt, ok := labels[t]; ok {
				d ^= hmix.Mix4(tagEdge, ln, g.lhash(l), lt)
			}
		}
	}
	g.canonSub = sub[:0]
	return d, labels
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
