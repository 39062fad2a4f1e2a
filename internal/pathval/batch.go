// Batched Stage-2 validation: candidates emitted from one entry function
// share long path prefixes (they come from one DFS trail), so per-candidate
// validation re-replays and re-solves the same prefix over and over. The
// batch planner groups same-entry candidates into a trie keyed by path step,
// then walks the trie with ONE rollbackable replayer: every shared step is
// replayed once for the whole group, its atoms are pushed once into an
// incremental smt.Cursor session, and a cursor-refuted step screens every
// candidate below it as Unsat without replaying their suffixes or invoking
// the full solver at all. Candidates the screen cannot refute are solved at
// their leaf — through the ordinary full-solver path (verdict cache,
// singleflight, deadline rules) — using the shared replay state. A group of
// one is a one-item walk, so this is the only way a candidate is decided.
//
// Determinism: replay is a deterministic function of the step sequence, and
// both the alias graph (trail) and the term context (Rewind) restore exactly
// on rollback, so the constraint system assembled at a leaf — variable IDs
// included — is byte-for-byte what a fresh replay of that path alone would
// build. Every leaf solve runs under a checkpoint too, so the variables the
// solver interns in the replay's term context never shift a later leaf.
// Conjunction keys, cached verdicts, witness models, and trigger values
// therefore match a candidate validated on its own exactly.
//
// Soundness: the cursor applies the same rule functions the full solver
// runs on the whole conjunction, minus the solver's difference-bound check and
// fixpoint iteration (see smt.Cursor's contract), so its Unsat is a subset
// of the solver's; and refuting a prefix of a conjunction refutes every
// extension of it, so a screened candidate is one its own one-item walk
// would also have dropped. Everything else falls back to the full solve,
// so Sat verdicts are never manufactured by the screen.
package pathval

import (
	"context"
	"time"

	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/smt"
)

// screenDeadlineStride is how many cursor pushes the screen processes between
// wall-clock deadline polls. The context's done channel is polled on every
// push (a channel select is cheap; reading the clock is not).
const screenDeadlineStride = 32

// batchSessionReserve is the ID floor of the cursor session context: opaque
// variables the session interns for nonlinear subterms get IDs above it, so
// they can never collide with the replayer's candidate variables. If a
// replay ever allocates past the floor (it would take a ~million-step path),
// screening is disabled below that point rather than risk an unsound
// collision.
const batchSessionReserve = 1 << 20

// ValidateBatchCtx validates a group of candidates from one entry in one
// shared-replay walk; outcomes are positionally parallel to bugs. A group
// of one is a one-item walk: its trie has a single weight-1 edge, so it
// replays the path and solves it, the per-candidate semantics. A deadline
// or cancellation in the middle of the screen turns screening off for the
// rest of the batch and the walk goes on: every remaining leaf takes the
// ordinary leaf solve, whose own interrupt rules decide it (a verdict-cache
// hit, or an interrupted Unknown that keeps the bug and marks it TimedOut).
// The screen itself never marks a verdict interrupted and never memoizes.
func (v *Validator) ValidateBatchCtx(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
	return v.validateBatch(ctx, bugs, mode, (*batchWalk).walkTrie)
}

// validateBatch is ValidateBatchCtx with the walk of each round's paths
// passed in as round, which fills w.outs; tests pass a reference walk.
func (v *Validator) validateBatch(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode, round func(w *batchWalk)) []core.ValidationOutcome {
	outs := make([]core.ValidationOutcome, len(bugs))
	if len(bugs) == 0 {
		return outs
	}
	// One replayer for the whole group, reused across the primary round and
	// every alternate round: each walk fully rolls itself back, so every
	// round starts from the pristine root state a fresh replayer would have.
	r := v.acquireReplayer(mode)
	defer v.releaseReplayer(r)
	w := &batchWalk{v: v, ctx: ctx, r: r, done: ctx.Done()}
	w.deadline, _ = ctx.Deadline()

	// Witness paths go in rounds: round 0 holds every primary path, and
	// round k a candidate's k-th alternate iff its primary and first k-1
	// alternates all came back infeasible; the alternate's outcome folds
	// into the candidate's. Each round's paths form their own prefix trie,
	// so alternates, which share prefixes with each other just as primaries
	// do, get the same shared replay and screening.
	items := make([]pathItem, 0, len(bugs))
	for k := 0; ; k++ {
		items = items[:0]
		for i, bug := range bugs {
			switch {
			case k == 0:
				items = append(items, pathItem{bug: bug, path: bug.Path, cand: i})
			case !outs[i].Feasible && k <= len(bug.AltPaths):
				items = append(items, pathItem{bug: bug, path: bug.AltPaths[k-1], cand: i})
			}
		}
		if len(items) == 0 {
			break
		}
		w.items = items
		w.outs = append(w.outs[:0], make([]core.ValidationOutcome, len(items))...)
		round(w)
		for j, out := range w.outs {
			if k == 0 {
				outs[items[j].cand] = out
			} else {
				foldAlt(&outs[items[j].cand], out)
			}
		}
	}
	// Every leaf solve counts one cache hit or one miss. In a group of two
	// or more each is a fallback from the screen; a group of one has no
	// screen to fall back from.
	if len(bugs) > 1 {
		for i := range outs {
			outs[i].BatchFallbacks = outs[i].CacheHits + outs[i].CacheMisses
		}
	}
	// The shared-prefix count is a property of the whole batch; pin it to
	// the first outcome so the engine's summation counts it once.
	outs[0].PrefixAtomsShared = w.shared
	return outs
}

// pathItem is one witness path queued for a walk: the path to replay plus
// the candidate it belongs to (for its extra trigger constraint) and that
// candidate's index in the batch.
type pathItem struct {
	bug  *core.PossibleBug
	path []core.PathStep
	cand int
}

// walkTrie decides the round's items by building the trie over their paths
// and walking it from the root.
func (w *batchWalk) walkTrie() {
	w.r.trie.build(w.items)
	w.walk(0, true)
}

// stepTrie is the prefix trie over one round's witness paths. Steps are
// keyed by (instruction, taken direction, inlined callee): two paths whose
// key sequences agree produce identical replayer mutations for the shared
// prefix, so replaying it once is exact, not approximate.
//
// The trie is fully radix-compressed: every edge is a run of steps, a
// slice of keys, and a node exists only where paths diverge or a path
// ends, so it has at most two nodes per path whatever the path lengths.
// All of it lives in three slices that are truncated, not freed, between
// rounds and batches (the trie rides in the pooled replayer), so a warm
// build allocates nothing.
type stepTrie struct {
	keys     []stepKey  // every item's key sequence, back to back
	nodes    []trieNode // nodes[0] is the root, whose edge is empty
	leafNext []int      // per item: the next item ending at its node, or -1
}

// trieNode is one trie node: the edge into it, keys[lo:hi], and the items
// at or below it. Children and the items ending here (leaves) are linked
// lists in insertion order, so the walk's replay and push sequence is
// deterministic. Fan-out is tiny, so child lookup is a linear scan.
type trieNode struct {
	lo, hi         int
	weight         int // items whose path runs through the edge
	first, last    int // children, -1 if none
	next           int // next sibling, -1 if none
	leaf, lastLeaf int // items ending here, -1 if none
}

// build rebuilds the trie over items, reusing its storage.
func (t *stepTrie) build(items []pathItem) {
	t.keys = t.keys[:0]
	t.nodes = append(t.nodes[:0], trieNode{weight: len(items), first: -1, last: -1, next: -1, leaf: -1, lastLeaf: -1})
	t.leafNext = t.leafNext[:0]
	for i, it := range items {
		lo := len(t.keys)
		for j, st := range it.path {
			t.keys = append(t.keys, stepKey{in: st.Instr, taken: st.Taken, callee: stepCallee(st, it.path, j)})
		}
		t.leafNext = append(t.leafNext, -1)
		t.insert(lo, len(t.keys), i)
	}
}

// insert threads item leaf, whose keys are keys[lo:hi], into the trie: it
// follows the edges its keys match, splits the edge where they stop
// matching, and hangs the rest of its keys off the last node reached as
// one new edge.
func (t *stepTrie) insert(lo, hi, leaf int) {
	n, j := 0, lo
	for j < hi {
		c := t.nodes[n].first
		for c >= 0 && t.keys[t.nodes[c].lo] != t.keys[j] {
			c = t.nodes[c].next
		}
		if c < 0 {
			t.addChild(n, trieNode{lo: j, hi: hi, weight: 1, first: -1, last: -1, next: -1, leaf: leaf, lastLeaf: leaf})
			return
		}
		m := t.nodes[c].lo + 1
		for j++; m < t.nodes[c].hi && j < hi && t.keys[m] == t.keys[j]; j++ {
			m++
		}
		if m < t.nodes[c].hi {
			t.split(c, m)
		}
		t.nodes[c].weight++
		n = c
	}
	nd := &t.nodes[n]
	if nd.leaf < 0 {
		nd.leaf = leaf
	} else {
		t.leafNext[nd.lastLeaf] = leaf
	}
	nd.lastLeaf = leaf
}

// addChild appends ch as n's last child.
func (t *stepTrie) addChild(n int, ch trieNode) {
	c := len(t.nodes)
	t.nodes = append(t.nodes, ch)
	if p := &t.nodes[n]; p.first < 0 {
		p.first = c
	} else {
		t.nodes[p.last].next = c
	}
	t.nodes[n].last = c
}

// split cuts node c's edge before key m: c keeps the head of the edge and
// a new node, c's only child, takes the rest of it with c's weight,
// children and leaves.
func (t *stepTrie) split(c, m int) {
	old := t.nodes[c]
	d := len(t.nodes)
	t.nodes = append(t.nodes, trieNode{lo: m, hi: old.hi, weight: old.weight, first: old.first, last: old.last, next: -1, leaf: old.leaf, lastLeaf: old.lastLeaf})
	nd := &t.nodes[c]
	nd.hi = m
	nd.first, nd.last = d, d
	nd.leaf, nd.lastLeaf = -1, -1
}

// stepKey identifies one replayed step. The instruction pointer (not its
// GID) plus the branch direction and the resolved inlined callee fully
// determine applyStep's effect given equal prior state.
type stepKey struct {
	in     cir.Instr
	taken  bool
	callee *cir.Function
}

// apply replays the step k identifies.
func (k stepKey) apply(r *replayer) {
	r.applyStep(core.PathStep{Instr: k.in, Taken: k.taken}, k.callee)
}

// batchWalk is the state one batch's walks share: one replayer with its
// trie, the screen's cursor session, and the push/shared tallies. items
// and outs belong to the current round.
type batchWalk struct {
	v     *Validator
	ctx   context.Context
	r     *replayer
	items []pathItem
	outs  []core.ValidationOutcome
	// cur is the screen's session over a context that reserves IDs above
	// batchSessionReserve, so its opaque interns cannot collide with replay
	// variables. The first shared edge that screens creates it; a one-item
	// walk never does.
	cur *smt.Cursor
	// interrupted is set once a deadline or cancellation hits the screen,
	// which stays off for the rest of the batch.
	interrupted bool
	deadline    time.Time
	done        <-chan struct{}
	pushes      int
	shared      int64
}

// walk processes node n, whose edge has already been replayed (and, when
// screening, pushed): first the items ending at n, then each child edge.
// screening means the cursor session still mirrors the replayed prefix; it
// switches off below a node once the ID-floor guard trips.
func (w *batchWalk) walk(n int, screening bool) {
	t := &w.r.trie
	for idx := t.nodes[n].leaf; idx >= 0; idx = t.leafNext[idx] {
		w.solveLeaf(idx)
	}
	for c := t.nodes[n].first; c >= 0; c = t.nodes[c].next {
		w.edge(c, screening)
	}
}

// edge replays node c's edge under one replayer checkpoint and, when
// screening, one cursor checkpoint, decides everything below it, and rolls
// both back.
//
// An edge private to one candidate (weight 1) is replayed and its leaf
// solved without cursor work: a push there would serve exactly one leaf,
// costing about what the leaf's own solve does. A shared edge is replayed
// and pushed step by step, so a refutation stops at the step that refuted
// it; every candidate below is then screened out at that replay point,
// without replaying a single suffix step.
func (w *batchWalk) edge(c int, screening bool) {
	nd := w.r.trie.nodes[c]
	keys := w.r.trie.keys[nd.lo:nd.hi]
	m := w.r.checkpoint()
	defer w.r.rollback(m)
	if nd.weight == 1 {
		for _, k := range keys {
			k.apply(w.r)
		}
		w.solveLeaf(nd.leaf)
		return
	}
	screening = screening && !w.interrupted
	if screening {
		cmark := w.session().Checkpoint()
		defer w.cur.Rollback(cmark)
	}
	for _, k := range keys {
		screening = screening && w.r.ctx.NumVars() < batchSessionReserve
		before := len(w.r.atoms)
		k.apply(w.r)
		newAtoms := w.r.atoms[before:]
		// Each atom a shared edge contributes is built once instead of once
		// per candidate running through the edge.
		w.shared += int64(len(newAtoms)) * int64(nd.weight-1)
		if !screening {
			continue
		}
		for _, a := range newAtoms {
			if !w.pollPush() {
				screening = false
				break
			}
			if w.cur.Push(a) == smt.Unsat {
				// Constraint counts reflect the refutation point (a
				// scheduling detail, like cache counters); the verdicts and
				// empty triggers are exactly what solving the candidate
				// alone would report.
				w.screenSubtree(c)
				return
			}
		}
	}
	w.walk(c, screening)
}

// session returns the screen's cursor, creating it on first use.
func (w *batchWalk) session() *smt.Cursor {
	if w.cur == nil {
		sctx := smt.NewContext()
		sctx.Reserve(batchSessionReserve)
		w.cur = smt.NewCursor(sctx)
	}
	return w.cur
}

// pollPush runs the pre-push bookkeeping: the test hook, the cancellation
// select, and the strided wall-clock deadline check. It reports false, and
// turns the screen off for the rest of the batch, once the context is done.
func (w *batchWalk) pollPush() bool {
	if w.v.screenHook != nil {
		w.v.screenHook(w.pushes)
	}
	select {
	case <-w.done:
		w.interrupted = true
	default:
		if !w.deadline.IsZero() && w.pushes%screenDeadlineStride == 0 && time.Now().After(w.deadline) {
			w.interrupted = true
		}
	}
	if w.interrupted {
		return false
	}
	w.pushes++
	return true
}

// solveLeaf decides one candidate at its leaf through the ordinary full
// solve (verdict cache, singleflight, deadline rules) on the shared replay
// state. It runs under a replayer checkpoint: the candidate's extra
// constraint and whatever the solve interns in the replay's term context
// (opaque variables for nonlinear terms) are rolled back, so siblings and
// later replays number their variables as a fresh replay would.
func (w *batchWalk) solveLeaf(idx int) {
	m := w.r.checkpoint()
	if x := w.items[idx].bug.Extra; x != nil {
		w.r.addAtom(predAtom(x.Pred, w.r.termOf(x.Val), smt.Int(x.Bound)))
	}
	w.outs[idx] = w.v.solveReplayed(w.ctx, w.r)
	w.r.rollback(m)
}

// screenSubtree marks every candidate at or below node n as
// screened-infeasible at the current replay point.
func (w *batchWalk) screenSubtree(n int) {
	t := &w.r.trie
	for idx := t.nodes[n].leaf; idx >= 0; idx = t.leafNext[idx] {
		w.screenOut(idx)
	}
	for c := t.nodes[n].first; c >= 0; c = t.nodes[c].next {
		w.screenSubtree(c)
	}
}

// screenOut records one screened-infeasible verdict.
func (w *batchWalk) screenOut(idx int) {
	if w.v.screenOutHook != nil {
		w.v.screenOutHook(w.r.atoms, w.r.ctx.NumVars())
	}
	w.outs[idx] = core.ValidationOutcome{
		Feasible:           false,
		Constraints:        int64(len(w.r.atoms)),
		ConstraintsUnaware: w.r.unaware,
		BatchedSolves:      1,
	}
}
