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
// singleflight, deadline rules) — using the shared replay state.
//
// Determinism: replay is a deterministic function of the step sequence, and
// both the alias graph (trail) and the term context (Rewind) restore exactly
// on rollback, so the constraint system assembled at a leaf — variable IDs
// included — is byte-for-byte what a fresh per-candidate replay of that path
// would build. Formula keys, cached verdicts, witness models, and trigger
// values therefore match unbatched validation exactly.
//
// Soundness: the cursor applies the same rule functions the full solver
// runs on each cube, minus the solver's difference-bound check and
// fixpoint iteration (see smt.Cursor's contract), so its Unsat is a subset
// of the solver's; and refuting a prefix of a conjunction refutes every
// extension of it, so a screened candidate is one the per-candidate path
// would also have dropped. Everything else falls back to the full solve,
// so Sat verdicts are never manufactured by the screen.
package pathval

import (
	"context"
	"sync/atomic"
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
// screening is disabled for the rest of the batch rather than risk an
// unsound collision.
const batchSessionReserve = 1 << 20

// ValidateBatchCtx validates a group of candidates from one entry in a
// single shared-replay session, falling back to per-candidate solving for
// any candidate the walk leaves undecided. Outcomes are positionally
// parallel to bugs. An interrupted screen (deadline/cancellation) simply
// stops deciding: remaining candidates take the per-candidate path, whose
// own deadline handling decides TimedOut — the screen itself never marks a
// verdict interrupted and never memoizes anything.
func (v *Validator) ValidateBatchCtx(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
	outs := make([]core.ValidationOutcome, len(bugs))
	if len(bugs) == 0 {
		return outs
	}
	if len(bugs) == 1 {
		outs[0] = v.ValidateCtx(ctx, bugs[0], mode)
		return outs
	}

	// One replayer and one cursor session for the whole group, reused across
	// the primary pass and every alternate-witness round: each walk fully
	// rolls itself back, so every pass starts from the pristine root state a
	// fresh replayer would have. The session context reserves a high ID
	// floor so its opaque interns cannot collide with replayer variables
	// (see batchSessionReserve).
	sctx := smt.NewContext()
	sctx.Reserve(batchSessionReserve)
	r := v.acquireReplayer(mode)
	defer v.releaseReplayer(r)
	r.logging = true // checkpoint/rollback needs the undo logs from step one
	w := &batchWalk{
		v:    v,
		ctx:  ctx,
		r:    r,
		cur:  smt.NewCursor(sctx),
		done: ctx.Done(),
	}
	w.deadline, _ = ctx.Deadline()

	// Primary witness paths first.
	items := make([]pathItem, len(bugs))
	for i, bug := range bugs {
		items[i] = pathItem{bug: bug, path: bug.Path}
	}
	decided, got := w.run(items)
	for i, bug := range bugs {
		if decided[i] {
			outs[i] = got[i]
		} else {
			// The walk aborted (deadline/cancellation) before reaching this
			// candidate: ordinary per-candidate validation of the primary
			// path, fresh replay included.
			outs[i] = v.validateOne(ctx, bug, bug.Path, mode)
			outs[i].BatchFallbacks = 1
		}
	}

	// Alternate witnesses, in rounds that preserve ValidateCtx's order
	// semantics exactly: a candidate's k-th alternate is validated iff its
	// primary and first k-1 alternates all came back infeasible, and its
	// outcome folds in per the same accumulation. Each round's paths form
	// their own prefix trie, so alternates — which share prefixes with each
	// other just as primaries do — get the same shared replay and screening.
	altIdx := make([]int, len(bugs))
	for {
		items = items[:0]
		var owner []int
		for i, bug := range bugs {
			if outs[i].Feasible || altIdx[i] >= len(bug.AltPaths) {
				continue
			}
			items = append(items, pathItem{bug: bug, path: bug.AltPaths[altIdx[i]]})
			owner = append(owner, i)
			altIdx[i]++
		}
		if len(items) == 0 {
			break
		}
		decided, got = w.run(items)
		for j, i := range owner {
			var altOut core.ValidationOutcome
			if decided[j] {
				altOut = got[j]
			} else {
				altOut = v.validateOne(ctx, bugs[i], items[j].path, mode)
				altOut.BatchFallbacks = 1
			}
			foldAlt(&outs[i], altOut)
		}
	}
	// The shared-prefix count is a property of the whole batch; pin it to
	// the first outcome so the engine's summation counts it once.
	outs[0].PrefixAtomsShared = w.shared
	return outs
}

// pathItem is one witness path queued for a walk: the path to replay plus
// the candidate it belongs to (for its extra trigger constraint).
type pathItem struct {
	bug  *core.PossibleBug
	path []core.PathStep
}

// run validates one round of witness paths through the shared trie walk.
// It returns, positionally per item, whether the walk decided the item and
// the outcome when it did. Undecided items (only possible after an abort)
// are the caller's to fall back on. After a non-aborted run the replayer
// and cursor are fully rolled back, ready for the next round; once aborted,
// run refuses to touch them again and reports everything undecided.
func (w *batchWalk) run(items []pathItem) ([]bool, []core.ValidationOutcome) {
	w.items = items
	w.decided = make([]bool, len(items))
	w.outs = make([]core.ValidationOutcome, len(items))
	if !w.aborted {
		w.walk(buildStepTrie(items), true)
	}
	return w.decided, w.outs
}

// buildStepTrie builds the prefix trie over the items' paths. Steps are
// keyed by (instruction, taken direction, inlined callee): two paths whose
// key sequences agree produce identical replayer mutations for the shared
// prefix, so replaying it once is exact, not approximate.
//
// The trie is radix-compressed: a suffix private to a single candidate is
// stored as one flat key slice (tail) instead of a node per step, so a batch
// with little or no sharing — the common case on sparse corpora — allocates
// a handful of nodes rather than one per path step. Nodes materialize only
// where paths actually share steps or diverge.
func buildStepTrie(items []pathItem) *stepNode {
	root := &stepNode{weight: len(items)}
	for i, it := range items {
		keys := make([]stepKey, len(it.path))
		for j, st := range it.path {
			keys[j] = stepKey{in: st.Instr, taken: st.Taken, callee: stepCallee(st, it.path, j)}
		}
		root.insert(keys, i)
	}
	return root
}

// insert threads one candidate's key sequence into the trie, materializing
// compressed tails one step at a time while the new path keeps matching
// them. keys must not be mutated afterwards: tails alias it.
func (root *stepNode) insert(keys []stepKey, leaf int) {
	node := root
	for j := 0; ; j++ {
		if j == len(keys) {
			node.leaves = append(node.leaves, leaf)
			return
		}
		if len(node.tail) > 0 {
			// This subtree was private to one candidate; peel the first tail
			// step into a real child so the new path can match or diverge.
			ch := &stepNode{key: node.tail[0], weight: 1}
			if len(node.tail) == 1 {
				ch.leaves = []int{node.tailLeaf}
			} else {
				ch.tail, ch.tailLeaf = node.tail[1:], node.tailLeaf
			}
			node.tail, node.tailLeaf = nil, 0
			node.children = append(node.children, ch)
		}
		k := keys[j]
		var ch *stepNode
		for _, c := range node.children {
			if c.key == k {
				ch = c
				break
			}
		}
		if ch == nil {
			ch = &stepNode{key: k, weight: 1}
			if j+1 == len(keys) {
				ch.leaves = []int{leaf}
			} else {
				ch.tail, ch.tailLeaf = keys[j+1:], leaf
			}
			node.children = append(node.children, ch)
			return
		}
		ch.weight++
		node = ch
	}
}

// stepKey identifies one trie edge. The instruction pointer (not its GID)
// plus the branch direction and the resolved inlined callee fully determine
// applyStep's effect given equal prior state.
type stepKey struct {
	in     cir.Instr
	taken  bool
	callee *cir.Function
}

// step reconstructs the path step this key replays.
func (k stepKey) step() core.PathStep {
	return core.PathStep{Instr: k.in, Taken: k.taken}
}

// stepNode is one materialized trie node: the edge key into it, candidates
// whose step sequence ends here (leaves), and either children (shared or
// diverging steps below) or a compressed single-candidate tail. Children
// keep insertion order so the walk's replay and push sequence is
// deterministic. Fan-out is tiny, so child lookup is a linear scan.
type stepNode struct {
	key      stepKey
	children []*stepNode
	tail     []stepKey // compressed suffix private to tailLeaf (nil if none)
	tailLeaf int       // candidate owning tail; valid iff len(tail) > 0
	leaves   []int     // candidate indices ending at this node
	weight   int       // candidates whose path runs through this node
}

// batchWalk is the shared-session state across a batch's walks: one
// replayer, one cursor, the abort flag, and the push/shared tallies. The
// per-round fields (items, decided, outs) are reset by run.
type batchWalk struct {
	v        *Validator
	ctx      context.Context
	items    []pathItem
	r        *replayer
	cur      *smt.Cursor
	decided  []bool
	outs     []core.ValidationOutcome
	deadline time.Time
	done     <-chan struct{}
	aborted  bool
	pushes   int
	shared   int64
}

// walk processes node n, whose step has already been replayed (and, when
// screening, pushed). screening means the cursor session still mirrors the
// replayed prefix; it switches off — for a whole subtree — once the subtree
// is private to a single candidate (a push there would serve exactly one
// leaf, costing about what the leaf's own solve does) or the ID-floor guard
// trips.
func (w *batchWalk) walk(n *stepNode, screening bool) {
	for _, idx := range n.leaves {
		if w.aborted {
			return
		}
		w.solveLeaf(idx)
	}
	if len(n.tail) > 0 && !w.aborted {
		// Compressed single-candidate chain: replay it in one checkpointed
		// run. No per-step rollback granularity is needed when no sibling
		// branches off, and no cursor work either — a weight-1 push would
		// serve exactly one leaf, costing about what its own solve does.
		m := w.r.checkpoint()
		for _, k := range n.tail {
			w.r.applyStep(k.step(), k.callee)
		}
		w.solveLeaf(n.tailLeaf)
		w.r.rollback(m)
	}
	for _, ch := range n.children {
		if w.aborted {
			return
		}
		if ch.weight == 1 {
			// Divergence-point child private to one candidate: edge plus
			// compressed tail under a single checkpoint, skipping the
			// shared-prefix machinery entirely.
			m := w.r.checkpoint()
			w.r.applyStep(ch.key.step(), ch.key.callee)
			for _, k := range ch.tail {
				w.r.applyStep(k.step(), k.callee)
			}
			if len(ch.tail) > 0 {
				w.solveLeaf(ch.tailLeaf)
			} else {
				w.solveLeaf(ch.leaves[0])
			}
			w.r.rollback(m)
			continue
		}
		childScreen := screening && w.r.ctx.NumVars() < batchSessionReserve
		m := w.r.checkpoint()
		before := len(w.r.atoms)
		w.r.applyStep(ch.key.step(), ch.key.callee)
		newAtoms := w.r.atoms[before:]
		// Each atom a shared edge contributes is built once instead of once
		// per candidate running through the edge.
		w.shared += int64(len(newAtoms)) * int64(ch.weight-1)
		dead := false
		var cmark smt.CursorMark
		if childScreen {
			cmark = w.cur.Checkpoint()
			for _, a := range newAtoms {
				if !w.pollPush() {
					break
				}
				if w.cur.Push(a) == smt.Unsat {
					dead = true
					break
				}
			}
		}
		if w.aborted {
			w.r.rollback(m)
			if childScreen {
				w.cur.Rollback(cmark)
			}
			return
		}
		if dead {
			// The cursor refuted the shared prefix: every candidate below is
			// infeasible without replaying a single suffix step. Constraint
			// counts reflect the refutation point (a scheduling detail, like
			// cache counters); the verdicts and empty triggers are exactly
			// what per-candidate solving would report.
			w.screenSubtree(ch)
		} else {
			w.walk(ch, childScreen)
		}
		if childScreen {
			w.cur.Rollback(cmark)
		}
		w.r.rollback(m)
	}
}

// pollPush runs the pre-push bookkeeping: the test hook, the cancellation
// select, and the strided wall-clock deadline check. It reports false once
// the walk is aborted.
func (w *batchWalk) pollPush() bool {
	if w.v.screenHook != nil {
		w.v.screenHook(w.pushes)
	}
	if w.done != nil {
		select {
		case <-w.done:
			w.aborted = true
			return false
		default:
		}
	}
	if !w.deadline.IsZero() && w.pushes%screenDeadlineStride == 0 && time.Now().After(w.deadline) {
		w.aborted = true
		return false
	}
	w.pushes++
	return true
}

// solveLeaf decides one candidate at its leaf, reusing the shared replay
// state. The extra constraint (if any) is applied and rolled back around the
// solve, so siblings see the unextended state. The solve itself is the
// ordinary full-solver path: verdict cache, singleflight, backend, deadline
// rules all apply unchanged.
func (w *batchWalk) solveLeaf(idx int) {
	bug := w.items[idx].bug
	// solveReplayed reads the replayer without mutating it, so the solve
	// itself needs no bracket; only an extra trigger atom does.
	if bug.Extra == nil {
		out := w.v.solveReplayed(w.ctx, w.r)
		out.BatchFallbacks = 1
		w.decided[idx] = true
		w.outs[idx] = out
		return
	}
	m := w.r.checkpoint()
	w.r.addAtom(predAtom(bug.Extra.Pred, w.r.termOf(bug.Extra.Val), smt.Int(bug.Extra.Bound)))
	out := w.v.solveReplayed(w.ctx, w.r)
	out.BatchFallbacks = 1
	w.r.rollback(m)
	w.decided[idx] = true
	w.outs[idx] = out
}

// screenSubtree marks every candidate at or below n as screened-infeasible
// at the current replay point, compressed tail owners included.
func (w *batchWalk) screenSubtree(n *stepNode) {
	for _, idx := range n.leaves {
		w.screenOut(idx)
	}
	if len(n.tail) > 0 {
		w.screenOut(n.tailLeaf)
	}
	for _, ch := range n.children {
		w.screenSubtree(ch)
	}
}

// screenOut records one screened-infeasible verdict.
func (w *batchWalk) screenOut(idx int) {
	if w.v.screenOutHook != nil {
		w.v.screenOutHook(w.r.atoms, w.r.ctx.NumVars())
	}
	atomic.AddInt64(&w.v.Queries, 1)
	atomic.AddInt64(&w.v.Unsat, 1)
	w.decided[idx] = true
	w.outs[idx] = core.ValidationOutcome{
		Feasible:           false,
		Constraints:        int64(len(w.r.atoms)),
		ConstraintsUnaware: w.r.unaware,
		BatchedSolves:      1,
	}
}
