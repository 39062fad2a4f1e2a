package pathval

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/smt"
)

// fanSrc has three NPD candidates behind one contradictory shared prefix
// (n > 100 && n < 50): the batch screen can refute the whole fan from two
// cursor pushes without replaying a single arm.
const fanSrc = `
void func(char *p, int n, int m) {
	if (n > 100) {
		if (n < 50) {
			if (m == 1) {
				if (!p)
					use(*p);
			}
			if (m == 2) {
				if (!p)
					use(*p);
			}
			if (m == 3) {
				if (!p)
					use(*p);
			}
		}
	}
}`

// mixedSrc has two feasible candidates on a shared feasible prefix plus one
// candidate behind a contradictory guard pair, so a batch contains both
// screened and fallback leaves.
const mixedSrc = `
void func(char *p, int n, int m) {
	if (n > 0) {
		if (m == 1) {
			if (!p)
				use(*p);
		}
		if (m == 2) {
			if (!p)
				use(*p);
		}
	}
	if (n > 10) {
		if (n < 5) {
			if (!p)
				use(*p);
		}
	}
}`

// perCandidateOutcomes validates each candidate through a fresh validator's
// unbatched path, giving the reference verdicts batching must reproduce.
func perCandidateOutcomes(cands []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
	outs := make([]core.ValidationOutcome, len(cands))
	for i, pb := range cands {
		outs[i] = New().Validate(pb, mode)
	}
	return outs
}

// calleeSrc inlines helper on every path, so its witness paths carry a
// call step whose inlined callee the next step decides.
const calleeSrc = `
int helper(int x) {
	if (x > 5)
		return 1;
	return 0;
}
void func(char *p, int n) {
	int r = helper(n);
	if (r == 1) {
		if (!p)
			use(*p);
	}
	if (n < 3) {
		if (!p)
			use(*p);
	}
}`

// trieShapeCase is one candidate group for the batch-versus-reference
// comparisons.
type trieShapeCase struct {
	name  string
	cands []*core.PossibleBug
}

// withPath returns a copy of pb that witnesses path instead, with the
// given alternates.
func withPath(pb *core.PossibleBug, path []core.PathStep, alts ...[]core.PathStep) *core.PossibleBug {
	cp := *pb
	cp.Path, cp.AltPaths = path, alts
	return &cp
}

// trieShapeCases builds candidate groups whose tries take every shape the
// radix compression handles: the analyzed corpora as they come, duplicate
// paths, a path that is a strict prefix of another (inserted before and
// after it), paths that split only on an inlined callee, alternate rounds
// of a single item, and a screen refutation in the middle of a multi-step
// shared edge (fanSrc; TestBatchScreensMidEdge checks where it lands).
func trieShapeCases(t *testing.T) []trieShapeCase {
	t.Helper()
	var cases []trieShapeCase
	for _, c := range []struct{ name, src string }{{"fan", fanSrc}, {"mixed", mixedSrc}, {"infeasible", infeasibleSrc}, {"callee", calleeSrc}} {
		cands, _ := analyze(t, c.src, core.ModePATA)
		if len(cands) < 2 {
			t.Fatalf("%s: want a batchable group, got %d candidates", c.name, len(cands))
		}
		cases = append(cases, trieShapeCase{c.name, cands})
	}
	mixed, callee := cases[1].cands, cases[3].cands

	var dups []*core.PossibleBug
	for _, pb := range mixed {
		dups = append(dups, pb, withPath(pb, pb.Path))
	}
	cases = append(cases, trieShapeCase{"duplicates", dups})

	long := mixed[0]
	short := withPath(long, long.Path[:len(long.Path)/2])
	cases = append(cases,
		trieShapeCase{"prefix-first", []*core.PossibleBug{short, long, mixed[1]}},
		trieShapeCase{"prefix-last", []*core.PossibleBug{long, mixed[1], short}})

	// Two witnesses that end at the same call step, one with the callee's
	// entry after it: same instruction and direction, different callee.
	var split []*core.PossibleBug
	for _, pb := range callee {
		for i, st := range pb.Path {
			if stepCallee(st, pb.Path, i) != nil && split == nil {
				split = []*core.PossibleBug{withPath(pb, pb.Path[:i+1]), withPath(pb, pb.Path[:i+2]), pb}
				if stepCallee(st, split[0].Path, i) != nil {
					t.Fatal("a call step that ends its path must not resolve a callee")
				}
			}
		}
	}
	if split == nil {
		t.Fatal("callee: no witness inlines a call")
	}
	cases = append(cases, trieShapeCase{"callee-only", split})

	// A group of two feasible candidates and an infeasible one whose
	// alternates are therefore tried, each in a round of its own: a prefix
	// of its own path, then a feasible candidate's path.
	var feasible, infeasible []*core.PossibleBug
	for i, out := range perCandidateOutcomes(mixed, core.ModePATA) {
		if out.Feasible {
			feasible = append(feasible, mixed[i])
		} else {
			infeasible = append(infeasible, mixed[i])
		}
	}
	if len(feasible) < 2 || len(infeasible) == 0 {
		t.Fatalf("mixed: want two feasible candidates and an infeasible one, got %d and %d", len(feasible), len(infeasible))
	}
	x := infeasible[0]
	alt := withPath(x, x.Path, x.Path[:len(x.Path)-1], feasible[0].Path)
	cases = append(cases, trieShapeCase{"one-item-alt-rounds", []*core.PossibleBug{feasible[0], feasible[1], alt}})
	return cases
}

// refRound is the reference walk of one round: an uncompressed trie, a
// node per path step, walked with the same primitives and policy as
// walkTrie. Items ending at a node are solved first, then its children in
// insertion order. A step on two or more paths is replayed and pushed under
// checkpoints of its own; a path's private rest is replayed under one
// checkpoint and solved without pushes.
func refRound(w *batchWalk) {
	type node struct {
		key      stepKey
		children []*node
		leaves   []int
		weight   int
	}
	root := &node{weight: len(w.items)}
	for i, it := range w.items {
		n := root
		for j, st := range it.path {
			k := stepKey{in: st.Instr, taken: st.Taken, callee: stepCallee(st, it.path, j)}
			var ch *node
			for _, c := range n.children {
				if c.key == k {
					ch = c
					break
				}
			}
			if ch == nil {
				ch = &node{key: k}
				n.children = append(n.children, ch)
			}
			ch.weight++
			n = ch
		}
		n.leaves = append(n.leaves, i)
	}
	var screenAll func(n *node)
	screenAll = func(n *node) {
		for _, idx := range n.leaves {
			w.screenOut(idx)
		}
		for _, ch := range n.children {
			screenAll(ch)
		}
	}
	var walk func(n *node, screening bool)
	walk = func(n *node, screening bool) {
		for _, idx := range n.leaves {
			if w.aborted {
				return
			}
			w.solveLeaf(idx)
		}
		for _, ch := range n.children {
			if w.aborted {
				return
			}
			m := w.r.checkpoint()
			if ch.weight == 1 {
				c := ch
				for ; ; c = c.children[0] {
					c.key.apply(w.r)
					if len(c.children) == 0 {
						break
					}
				}
				w.solveLeaf(c.leaves[0])
				w.r.rollback(m)
				continue
			}
			screen := screening && w.r.ctx.NumVars() < batchSessionReserve
			cm := w.cur.Checkpoint()
			before := len(w.r.atoms)
			ch.key.apply(w.r)
			w.shared += int64(len(w.r.atoms)-before) * int64(ch.weight-1)
			dead := false
			for _, a := range w.r.atoms[before:] {
				if !screen || dead || !w.pollPush() {
					break
				}
				dead = w.cur.Push(a) == smt.Unsat
			}
			switch {
			case w.aborted:
			case dead:
				screenAll(ch)
			default:
				walk(ch, screen)
			}
			w.cur.Rollback(cm)
			w.r.rollback(m)
		}
	}
	walk(root, true)
}

// TestBatchMatchesPerCandidate checks batched validation on every trie
// shape: verdicts and triggers against per-candidate validation, and every
// outcome field — batched solves, fallbacks, shared prefix atoms, constraint
// and cache counters — against the reference walk over an uncompressed
// trie.
func TestBatchMatchesPerCandidate(t *testing.T) {
	for _, tc := range trieShapeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := perCandidateOutcomes(tc.cands, core.ModePATA)
			got := New().ValidateBatchCtx(context.Background(), tc.cands, core.ModePATA)
			ref := New().validateBatch(context.Background(), tc.cands, core.ModePATA, refRound)
			for i := range tc.cands {
				if got[i].Feasible != want[i].Feasible {
					t.Errorf("candidate %d at %s: batched feasible=%v, per-candidate %v",
						i, tc.cands[i].BugInstr.Position(), got[i].Feasible, want[i].Feasible)
				}
				if !reflect.DeepEqual(got[i].Trigger, want[i].Trigger) {
					t.Errorf("candidate %d: batched trigger %v, per-candidate %v",
						i, got[i].Trigger, want[i].Trigger)
				}
				if got[i].TimedOut {
					t.Errorf("candidate %d: spurious TimedOut without a deadline", i)
				}
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("candidate %d: batched outcome\n%+v\nreference walk\n%+v", i, got[i], ref[i])
				}
			}
		})
	}
}

// TestBatchScreensMidEdge pins the fan's shape: its three candidates share
// one multi-step edge, and the screen refutes it at a step before the
// edge's last, so the walk must stop replaying there.
func TestBatchScreensMidEdge(t *testing.T) {
	cands, v := analyze(t, fanSrc, core.ModePATA)
	items := make([]pathItem, len(cands))
	for i, pb := range cands {
		// Primary paths only, so each outcome is one screened path's.
		cands[i] = withPath(pb, pb.Path)
		items[i] = pathItem{bug: pb, path: pb.Path}
	}
	var tr stepTrie
	tr.build(items)
	first := tr.nodes[0].first
	if first < 0 || tr.nodes[first].next >= 0 || tr.nodes[first].weight != len(cands) {
		t.Fatalf("want one edge shared by all %d candidates below the root, got %+v", len(cands), tr.nodes)
	}
	edge := tr.nodes[first]
	outs := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
	r := newReplayer(core.ModePATA)
	step := -1
	for i, k := range tr.keys[edge.lo:edge.hi] {
		k.apply(r)
		if int64(len(r.atoms)) == outs[0].Constraints {
			step = i
			break
		}
	}
	for i, out := range outs {
		if out.BatchedSolves != 1 || out.Constraints != outs[0].Constraints {
			t.Errorf("candidate %d: want screened at the shared refutation, got %+v", i, out)
		}
	}
	if step < 0 || step >= edge.hi-edge.lo-1 {
		t.Errorf("refuted at step %d of a %d-step edge, want before its last", step, edge.hi-edge.lo)
	}
}

// TestBatchCancelMidEdgeMatchesReference cancels batched validation at
// every push in turn, a cancellation in the middle of a multi-step shared
// edge included, and requires the same outcomes as the reference walk
// cancelled at the same push.
func TestBatchCancelMidEdgeMatchesReference(t *testing.T) {
	for _, tc := range trieShapeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for k := 0; ; k++ {
				cancelled := false
				validate := func(round func(*batchWalk)) []core.ValidationOutcome {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					v := New()
					v.screenHook = func(pushes int) {
						if pushes == k {
							cancel()
							cancelled = true
						}
					}
					return v.validateBatch(ctx, tc.cands, core.ModePATA, round)
				}
				got := validate((*batchWalk).walkTrie)
				gotCancelled := cancelled
				cancelled = false
				ref := validate(refRound)
				if gotCancelled != cancelled {
					t.Fatalf("cancel at push %d: batched walk cancelled=%v, reference %v", k, gotCancelled, cancelled)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("cancel at push %d: batched outcomes\n%+v\nreference walk\n%+v", k, got, ref)
				}
				if !cancelled {
					return
				}
			}
		})
	}
}

func TestBatchScreensSharedDeadPrefix(t *testing.T) {
	cands, v := analyze(t, fanSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 fan candidates, got %d", len(cands))
	}
	outs := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
	var screened, fallbacks, shared int64
	for _, out := range outs {
		if out.Feasible {
			t.Error("fan candidate under contradictory prefix must be infeasible")
		}
		screened += out.BatchedSolves
		fallbacks += out.BatchFallbacks
		shared += out.PrefixAtomsShared
	}
	if screened == 0 {
		t.Error("expected the cursor screen to refute the shared dead prefix")
	}
	if shared == 0 {
		t.Error("expected shared prefix atoms to be counted")
	}
	// Screened leaves never touch the full solver or its cache.
	if hits, misses := v.CacheHits, v.CacheMisses; hits+misses >= int64(len(cands)) {
		t.Errorf("screened batch should skip most solves: %d hits + %d misses for %d candidates (fallbacks %d)",
			hits, misses, len(cands), fallbacks)
	}
}

func TestBatchCancelledMidScreenStaysConservative(t *testing.T) {
	cands, v := analyze(t, fanSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 fan candidates, got %d", len(cands))
	}
	want := perCandidateOutcomes(cands, core.ModePATA)

	ctx, cancel := context.WithCancel(context.Background())
	v.screenHook = func(pushes int) {
		if pushes >= 1 {
			cancel()
		}
	}
	outs := v.ValidateBatchCtx(ctx, cands, core.ModePATA)
	for i, out := range outs {
		// A cancelled batch may only err on the side of keeping bugs: every
		// verdict is either the true one or a conservative kept-Unknown
		// marked TimedOut. It must never invent an Unsat.
		if out.Feasible != want[i].Feasible && !(out.Feasible && out.TimedOut) {
			t.Errorf("candidate %d: cancelled batch returned feasible=%v timedOut=%v, want %v or conservative keep",
				i, out.Feasible, out.TimedOut, want[i].Feasible)
		}
	}

	// Interrupted answers must not be memoized: the same validator, given a
	// clean context, must now produce the true verdicts.
	v.screenHook = nil
	clean := v.ValidateBatchCtx(context.Background(), cands, core.ModePATA)
	for i := range cands {
		if clean[i].Feasible != want[i].Feasible {
			t.Errorf("candidate %d: verdict after interruption feasible=%v, want %v (poisoned cache?)",
				i, clean[i].Feasible, want[i].Feasible)
		}
		if clean[i].TimedOut {
			t.Errorf("candidate %d: TimedOut persisted past the interrupted run", i)
		}
	}
}

func TestVerdictCacheLRUBound(t *testing.T) {
	cands, v := analyze(t, mixedSrc, core.ModePATA)
	if len(cands) < 3 {
		t.Fatalf("want 3 candidates, got %d", len(cands))
	}
	// Single shard: with one global stripe the per-shard bound equals the
	// validator bound, so the test pins the exact pre-sharding LRU behavior.
	v.cacheShards = 1
	v.maxCacheEntries = 1
	want := perCandidateOutcomes(cands, core.ModePATA)
	for round := 0; round < 2; round++ {
		for i, pb := range cands {
			out := v.Validate(pb, core.ModePATA)
			if out.Feasible != want[i].Feasible {
				t.Errorf("round %d candidate %d: feasible=%v under eviction, want %v",
					round, i, out.Feasible, want[i].Feasible)
			}
		}
	}
	if v.CacheEvictions == 0 {
		t.Error("maxCacheEntries=1 over distinct systems should evict")
	}
	if n := v.cacheEntries(); n > 1 {
		t.Errorf("cache holds %d entries, bound is 1", n)
	}
}

func TestVerdictCacheHitRateUnaffectedByBound(t *testing.T) {
	// With a bound comfortably above the working set, re-validating the same
	// candidates must hit the cache exactly as an unbounded cache would.
	cands, v := analyze(t, mixedSrc, core.ModePATA)
	for _, pb := range cands {
		v.Validate(pb, core.ModePATA)
	}
	missesAfterWarmup := v.CacheMisses
	for _, pb := range cands {
		v.Validate(pb, core.ModePATA)
	}
	if v.CacheMisses != missesAfterWarmup {
		t.Errorf("bounded cache missed %d times on re-validation, want 0",
			v.CacheMisses-missesAfterWarmup)
	}
	if v.CacheHits == 0 {
		t.Error("expected cache hits on re-validation")
	}
	if v.CacheEvictions != 0 {
		t.Errorf("default bounds should not evict on this workload, got %d", v.CacheEvictions)
	}
}
