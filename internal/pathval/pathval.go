// Package pathval implements the paper's alias-aware path-validation method
// (§3.3). For each candidate bug, the recorded control-flow path is replayed
// with a fresh alias graph; instructions translate into SMT constraints per
// Table 3, with all variables of one alias set mapped to ONE SMT symbol
// (Definitions 4–5). Assignments between aliases therefore produce no
// constraints at all, and the implicit field-equality constraints of Figure
// 9(b) vanish, which is the mechanism behind the paper's 87.3% constraint
// reduction (Table 5). The conjunction is then decided by internal/smt; an
// unsatisfiable path is infeasible and the bug is dropped.
package pathval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/smt"
)

// Default verdict-cache bounds: enough for every corpus in the repo to run
// without a single eviction, small enough that a long residency (a future
// daemon revalidating forever) cannot grow without limit.
const (
	defaultMaxCacheEntries = 4096
	defaultMaxCacheBytes   = 4 << 20
)

// Validator validates candidate bug paths. Safe for reuse across bugs and
// for concurrent use (RunParallel's Stage-2 workers call it from several
// goroutines): the verdict cache is internally synchronized. Its work is
// counted per call, in the ValidationOutcome each validation returns.
type Validator struct {
	// stepsReplayed counts path steps applied by released replayers, shared
	// steps once per replay; the Stage-2 allocation guard divides by it.
	stepsReplayed int64

	// maxCacheEntries/maxCacheBytes bound the verdict cache; New sets the
	// defaults above, and zero or negative values mean unbounded. The bounds
	// are split evenly across shards (see shard.go), so eviction order is
	// per-shard LRU rather than global.
	maxCacheEntries int
	maxCacheBytes   int64

	// cacheShards picks the verdict-cache stripe count before first use:
	// 0 selects the default (16), 1 the single global-mutex layout (for
	// tests that want exact global LRU order). Rounded up to a power of two.
	// Ignored after the first validation.
	cacheShards int

	shardOnce sync.Once
	shards    []*vshard

	// rpool recycles replayer state (alias graph, term context, undo logs)
	// across validations; see pool.go.
	rpool sync.Pool

	// screenHook, when non-nil, runs before each batch-screen push with the
	// number of pushes made so far; tests use it to cancel mid-screen.
	screenHook func(pushes int)
	// screenOutHook, when non-nil, sees each candidate the batch screen
	// drops, with the path-condition atoms the cursor refuted (valid only
	// during the call) and the replay context's variable count; the
	// solver oracle test re-decides them.
	screenOutHook func(atoms []*smt.Atom, numVars int)
	// solve, when non-nil, replaces builtinSolve for final solves; tests
	// use it to park or record solves.
	solve func(ctx *smt.Context, atoms []*smt.Atom, deadline time.Time, done <-chan struct{}) (smt.Result, smt.Model, bool)
}

// centry is one verdict-cache slot: the key it is filed under (needed to
// unlink on eviction) plus the memoized answer.
type centry struct {
	key   string
	bytes int64
	v     *verdict
}

// verdict is one memoized solver answer. The first goroutine to need a key
// inserts the entry and solves; later goroutines wait on ready and reuse
// the answer, so a system is never solved twice even under concurrency.
type verdict struct {
	ready chan struct{}
	res   smt.Result
	model smt.Model
}

// New returns a Validator with the default cache bounds. The verdict-cache
// shard table is built lazily on first use.
func New() *Validator {
	return &Validator{
		maxCacheEntries: defaultMaxCacheEntries,
		maxCacheBytes:   defaultMaxCacheBytes,
	}
}

// builtinSolve decides the conjunction of atoms with smt.Solver, the
// in-process decision procedure (§3.3's Z3 stand-in). It reports whether
// deadline/done interrupted the solve, in which case the answer is a
// conservative Unknown.
func builtinSolve(ctx *smt.Context, atoms []*smt.Atom, deadline time.Time, done <-chan struct{}) (smt.Result, smt.Model, bool) {
	s := smt.NewSolver(ctx)
	s.Deadline = deadline
	s.Done = done
	res, model := s.Solve(atoms)
	return res, model, s.Interrupted
}

// solveCached decides the conjunction of atoms with smt.Solver, memoizing
// by its ordered structural key (smt.Key): candidate paths sharing the same
// constraints — common for bugs on shared path prefixes and for AltPath
// re-validations — skip the solver entirely. The replay that produced the
// atoms is deterministic and the key keeps their order, so a cached model
// is exactly the model a cold solve would find, variable IDs and all, and
// the trigger values come out identical. Returns whether the verdict came
// from the cache, whether the solve was interrupted by deadline/done, and
// the evictions this call produced. An interrupted Unknown is a timing
// artifact, so it is evicted from the cache before waiters are released;
// concurrent waiters of that entry still observe the conservative Unknown
// (without the interrupted flag), which only ever keeps a bug.
//
// The cache is LRU-bounded by maxCacheEntries/maxCacheBytes, split across
// lock-striped shards (shard.go) so concurrent workers rarely contend; a key
// always maps to one shard, keeping singleflight and counter exactness.
// Eviction only forgets verdicts — a later identical conjunction re-solves
// and re-caches — so hit/miss semantics are unchanged apart from the extra
// misses; in-flight entries (singleflight waiters pending) are never evicted.
func (v *Validator) solveCached(ctx *smt.Context, atoms []*smt.Atom, deadline time.Time, done <-chan struct{}) (res smt.Result, model smt.Model, hit, interrupted bool, evictions int64) {
	key := smt.Key(atoms)
	s := v.shardFor(key)
	s.mu.Lock()
	if elem, ok := s.cache[key]; ok {
		s.lru.MoveToFront(elem)
		e := elem.Value.(*centry).v
		s.mu.Unlock()
		<-e.ready
		return e.res, e.model, true, false, 0
	}
	e := &verdict{ready: make(chan struct{})}
	ent := &centry{key: key, bytes: int64(len(key)) + 64, v: e}
	elem := s.lru.PushFront(ent)
	s.cache[key] = elem
	s.bytes += ent.bytes
	evictions = v.evictLocked(s)
	s.mu.Unlock()

	solve := v.solve
	if solve == nil {
		solve = builtinSolve
	}
	e.res, e.model, interrupted = solve(ctx, atoms, deadline, done)
	s.mu.Lock()
	if interrupted {
		// Drop the timing artifact before releasing waiters.
		v.removeLocked(s, elem)
	} else if n := int64(len(e.model)) * 24; n > 0 {
		ent.bytes += n
		s.bytes += n
		evictions += v.evictLocked(s)
	}
	s.mu.Unlock()
	close(e.ready)
	return e.res, e.model, false, interrupted, evictions
}

// Install wires the validator into an engine config as its one Stage-2
// hook, which the engine calls once per same-entry candidate group.
func (v *Validator) Install(cfg *core.Config) {
	cfg.ValidateBatch = v.ValidateBatchCtx
}

// validateCandidate decides a batch of one, and is the reference the batch
// walk must match: the primary witness path is replayed and solved; when
// it is proven infeasible, the alternate witnesses are tried in turn, and
// the bug survives if any witness path is feasible. An interrupted solve
// answers Unknown, which keeps the bug and marks the outcome TimedOut.
func (v *Validator) validateCandidate(ctx context.Context, bug *core.PossibleBug, mode core.Mode) core.ValidationOutcome {
	out := v.validateOne(ctx, bug, bug.Path, mode)
	for _, alt := range bug.AltPaths {
		if out.Feasible {
			break
		}
		foldAlt(&out, v.validateOne(ctx, bug, alt, mode))
	}
	return out
}

// foldAlt folds an alternate witness's outcome into its candidate's: the
// alternate decides feasibility, and every counter accumulates. Both the
// per-candidate and the batched path fold through it, so they count alike.
func foldAlt(out *core.ValidationOutcome, alt core.ValidationOutcome) {
	out.Feasible = alt.Feasible
	out.Constraints += alt.Constraints
	out.ConstraintsUnaware += alt.ConstraintsUnaware
	out.CacheHits += alt.CacheHits
	out.CacheMisses += alt.CacheMisses
	out.CacheEvictions += alt.CacheEvictions
	out.BatchedSolves += alt.BatchedSolves
	out.BatchFallbacks += alt.BatchFallbacks
	out.TimedOut = out.TimedOut || alt.TimedOut
}

// FeasibleVerdict maps a solver result to the validator's keep/drop
// decision: only a proven-unsatisfiable path is infeasible. Sat keeps the
// bug, and so does Unknown, which the solver returns only when a deadline
// or cancellation interrupted it; an interrupted solve proves nothing, so
// dropping on it would be unsound for a bug finder. The batched screen
// relies on the same asymmetry from the other side: it drops a candidate
// only on Unsat.
func FeasibleVerdict(res smt.Result) bool { return res != smt.Unsat }

// newReplayer returns a fresh replay state: its own alias graph and term
// context, so identical path-step prefixes deterministically produce
// identical atoms with identical variable IDs.
func newReplayer(mode core.Mode) *replayer {
	return &replayer{
		mode:  mode,
		g:     aliasgraph.New(),
		ctx:   smt.NewContext(),
		syms:  make(map[*aliasgraph.Node]*smt.Var),
		slot:  make(map[cir.Value]*smt.Var),
		execs: make(map[int]int),
	}
}

func (v *Validator) validateOne(ctx context.Context, bug *core.PossibleBug, path []core.PathStep, mode core.Mode) core.ValidationOutcome {
	r := v.acquireReplayer(mode)
	r.replay(bug, path)
	out := v.solveReplayed(ctx, r)
	v.releaseReplayer(r)
	return out
}

// solveReplayed runs the cached solve over an already-replayed path
// and assembles the outcome. The batch planner calls it directly for
// fallback leaves so a fallback does not replay the path a second time.
func (v *Validator) solveReplayed(ctx context.Context, r *replayer) core.ValidationOutcome {
	deadline, _ := ctx.Deadline()
	res, model, hit, interrupted, evictions := v.solveCached(r.ctx, r.atoms, deadline, ctx.Done())
	out := core.ValidationOutcome{
		Feasible:           FeasibleVerdict(res),
		Constraints:        int64(len(r.atoms)),
		ConstraintsUnaware: r.unaware,
		Trigger:            r.triggerValues(model),
		TimedOut:           interrupted,
		CacheEvictions:     evictions,
	}
	if hit {
		out.CacheHits = 1
	} else {
		out.CacheMisses = 1
	}
	return out
}

// triggerValues renders the solver model as "name = value" pairs for
// source-named variables, giving reports concrete inputs that drive the
// witness path. Alias classes are visited in symbol-ID order, so when two
// classes carry the same source name (e.g. a local reassigned along the
// path) the first-created one names the value on every run.
func (r *replayer) triggerValues(model smt.Model) []string {
	if len(model) == 0 {
		return nil
	}
	nodes := make([]*aliasgraph.Node, 0, len(r.syms))
	for node := range r.syms {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return r.syms[nodes[i]].ID < r.syms[nodes[j]].ID })
	var out []string
	seen := map[string]bool{}
	for _, node := range nodes {
		val, ok := model[r.syms[node].ID]
		if !ok {
			continue
		}
		reg := sourceRegister(node)
		if reg == nil || seen[reg.Name] {
			continue
		}
		seen[reg.Name] = true
		out = append(out, fmt.Sprintf("%s = %d", reg.Name, val))
	}
	sort.Strings(out)
	if len(out) > 6 {
		out = out[:6]
	}
	return out
}

// sourceRegister returns the register that names node's value in a
// trigger: of the class's source-named registers (compiler temporaries and
// dotted names excluded), the one whose String() sorts first, or nil when
// the class has none.
func sourceRegister(node *aliasgraph.Node) *cir.Register {
	var best *cir.Register
	var bestKey string
	for i := range node.NumVars() {
		reg, isReg := node.Var(i).(*cir.Register)
		if !isReg || reg.Name == "" || strings.Contains(reg.Name, ".") || isTempName(reg.Name) {
			continue
		}
		if key := reg.String(); best == nil || key < bestKey {
			best, bestKey = reg, key
		}
	}
	return best
}

// isTempName reports compiler-generated register hints.
func isTempName(n string) bool {
	switch n {
	case "cond", "cmp", "ld", "deref", "bin", "not", "neg", "bnot", "old",
		"inc", "idx", "cast", "ptradd", "sw", "bool", "t":
		return true
	}
	return false
}

// replayer re-simulates a recorded path, building constraints.
type replayer struct {
	mode    core.Mode
	steps   int // applyStep calls since the last reset
	g       *aliasgraph.Graph
	ctx     *smt.Context
	syms    map[*aliasgraph.Node]*smt.Var
	slot    map[cir.Value]*smt.Var // PATA-NA: versioned local-slot symbols
	atoms   []*smt.Atom
	unaware int64
	frames  []*cir.Call
	execs   map[int]int // per-instruction execution count on this path

	// Undo logs for checkpoint/rollback: the batched validator replays the
	// shared prefix of a candidate group once and rolls the replayer back
	// between sibling suffixes. Each log records the mutations the maps
	// above cannot replay backwards on their own; the alias graph and the
	// term context carry their own rewind machinery. Logging is off by
	// default so one-shot per-candidate replays pay nothing for it; the
	// batch walk switches it on before its first step.
	logging bool
	symLog  []*aliasgraph.Node
	slotLog []slotUndo
	execLog []int

	// trie is the batch walk's prefix trie, kept here so its storage is
	// pooled and reused along with the rest of the replay state.
	trie stepTrie
}

// slotUndo records one PATA-NA slot-map write so rollback can restore the
// overwritten version symbol (slots are versioned: a store replaces the
// previous symbol rather than inserting a fresh key).
type slotUndo struct {
	addr cir.Value
	old  *smt.Var
	had  bool
}

// rmark is a checkpoint of the full replayer state.
type rmark struct {
	g       aliasgraph.Mark
	vars    int
	atoms   int
	unaware int64
	frames  []*cir.Call
	syms    int
	slots   int
	execs   int
}

// checkpoint snapshots the replayer so a later rollback restores it
// exactly. Replay is deterministic in the step sequence, so rolling back
// and applying a different suffix leaves the replayer in precisely the
// state a fresh replay of prefix+suffix would produce — including variable
// IDs, which both the alias graph and the term context rewind.
func (r *replayer) checkpoint() rmark {
	return rmark{
		g:       r.g.Checkpoint(),
		vars:    r.ctx.NumVars(),
		atoms:   len(r.atoms),
		unaware: r.unaware,
		frames:  append([]*cir.Call(nil), r.frames...),
		syms:    len(r.symLog),
		slots:   len(r.slotLog),
		execs:   len(r.execLog),
	}
}

func (r *replayer) rollback(m rmark) {
	r.g.Rollback(m.g)
	r.ctx.Rewind(m.vars)
	r.atoms = r.atoms[:m.atoms]
	r.unaware = m.unaware
	// Copy, don't alias: a rolled-back frames slice gets appended to again,
	// and a pop-then-push after restore would otherwise scribble over the
	// checkpoint's saved elements, corrupting any second rollback to m.
	r.frames = append(r.frames[:0:0], m.frames...)
	for len(r.symLog) > m.syms {
		n := r.symLog[len(r.symLog)-1]
		r.symLog = r.symLog[:len(r.symLog)-1]
		delete(r.syms, n)
	}
	for len(r.slotLog) > m.slots {
		u := r.slotLog[len(r.slotLog)-1]
		r.slotLog = r.slotLog[:len(r.slotLog)-1]
		if u.had {
			r.slot[u.addr] = u.old
		} else {
			delete(r.slot, u.addr)
		}
	}
	for len(r.execLog) > m.execs {
		gid := r.execLog[len(r.execLog)-1]
		r.execLog = r.execLog[:len(r.execLog)-1]
		if r.execs[gid]--; r.execs[gid] == 0 {
			delete(r.execs, gid)
		}
	}
}

// symOf returns the single SMT symbol of an alias class (Definition 4).
func (r *replayer) symOf(n *aliasgraph.Node) *smt.Var {
	if s, ok := r.syms[n]; ok {
		return s
	}
	s := r.ctx.Var("as")
	r.syms[n] = s
	if r.logging {
		r.symLog = append(r.symLog, n)
	}
	return s
}

// termOf is R(v) of Definition 5: constants map to literals; variables map
// to their alias class's symbol (or, alias-unawarely, to per-slot symbols).
func (r *replayer) termOf(v cir.Value) smt.Term {
	if c, ok := v.(*cir.Const); ok {
		if c.IsNull {
			return smt.Int(0)
		}
		if c.IsStr {
			return r.ctx.OpaqueFor(smt.Bin("str", smt.Int(int64(len(c.Str))), smt.Int(0)))
		}
		return smt.Int(c.Val)
	}
	n := r.g.NodeOf(v)
	if n.ConstVal != nil && !n.ConstVal.IsStr {
		if n.ConstVal.IsNull {
			return smt.Int(0)
		}
		return smt.Int(n.ConstVal.Val)
	}
	return r.symOf(n)
}

func (r *replayer) addAtom(a *smt.Atom) { r.atoms = append(r.atoms, a) }

// countUnaware accounts what the alias-unaware encoding would emit for a
// data-flow fact over a value of type t: one explicit constraint plus one
// implicit equality per struct field reachable at the first level
// (Figure 9b).
func (r *replayer) countUnaware(t cir.Type) {
	r.unaware += 1 + int64(cir.NumFields(t))
}

func (r *replayer) replay(bug *core.PossibleBug, steps []core.PathStep) {
	for i, st := range steps {
		r.applyStep(st, stepCallee(st, steps, i))
	}
	if bug.Extra != nil {
		r.addAtom(predAtom(bug.Extra.Pred, r.termOf(bug.Extra.Val), smt.Int(bug.Extra.Bound)))
	}
}

// stepCallee resolves the inlined callee of step i: a call is inlined iff the
// next step is the callee's entry instruction. Resolving it from the step
// sequence up front keeps applyStep lookahead-free, which is what lets the
// batched validator drive steps from a prefix trie instead of a flat slice.
func stepCallee(st core.PathStep, steps []core.PathStep, i int) *cir.Function {
	call, ok := st.Instr.(*cir.Call)
	if !ok || i+1 >= len(steps) {
		return nil
	}
	fn, ok := calleeFor(call, steps[i+1].Instr)
	if !ok {
		return nil
	}
	return fn
}

// applyStep replays one path step against the current state. callee is the
// resolved inlined callee for a Call step (nil when the call is not inlined);
// the caller resolves it, typically via stepCallee. Every mutation is either
// trailed by the alias graph / term context or recorded in the replayer's
// undo logs, so checkpoint/rollback brackets any sequence of applySteps.
func (r *replayer) applyStep(st core.PathStep, callee *cir.Function) {
	r.steps++
	in := st.Instr
	if r.execs[in.GID()] > 0 {
		// Loop unrolling beyond once: a re-executed definition is a new
		// dynamic instance (fresh class, fresh symbol).
		if dst := in.Dest(); dst != nil {
			r.g.Detach(dst)
		}
	}
	r.execs[in.GID()]++
	if r.logging {
		r.execLog = append(r.execLog, in.GID())
	}
	switch t := in.(type) {
	case *cir.Move:
		r.applyMoveLike(t.Dst, t.Src)
	case *cir.Load:
		r.replayLoad(t)
	case *cir.Store:
		r.replayStore(t)
	case *cir.FieldAddr:
		if r.mode != core.ModeNoAlias {
			r.g.GEP(t.Dst, t.Base, aliasgraph.FieldLabel(t.Field))
		}
		r.countUnaware(t.Dst.Typ)
	case *cir.IndexAddr:
		if r.mode != core.ModeNoAlias {
			r.g.GEP(t.Dst, t.Base, aliasgraph.IndexLabel(t))
		}
		r.countUnaware(t.Dst.Typ)
	case *cir.BinOp:
		r.replayBinOp(t)
	case *cir.Cmp:
		// Encoded at the branch that consumes it.
	case *cir.CondBr:
		r.replayBranch(t, st.Taken)
	case *cir.Call:
		if callee != nil {
			for ai, p := range callee.Params {
				if ai >= len(t.Args) {
					break
				}
				r.applyMoveLike(p, t.Args[ai])
			}
			r.frames = append(r.frames, t)
		}
	case *cir.Ret:
		if len(r.frames) > 0 {
			call := r.frames[len(r.frames)-1]
			r.frames = r.frames[:len(r.frames)-1]
			if call.Dst != nil && t.Val != nil {
				r.applyMoveLike(call.Dst, t.Val)
			}
		}
	}
}

// calleeFor reports whether next is the entry instruction of call's callee.
func calleeFor(call *cir.Call, next cir.Instr) (*cir.Function, bool) {
	blk := next.Block()
	if blk == nil || blk.Fn == nil || blk.Fn.Name != call.Callee {
		return nil, false
	}
	entry := blk.Fn.Entry()
	if entry == nil || len(entry.Instrs) == 0 || entry.Instrs[0] != next {
		return nil, false
	}
	return blk.Fn, true
}

// applyMoveLike records v1 = v2 (MOVE, parameter binding or return binding).
// Alias-aware: the graph merge makes the constraint a tautology, so nothing
// is emitted (the explicit-constraint drop of Figure 9c). Alias-unaware: an
// explicit equality between the two symbols is emitted.
func (r *replayer) applyMoveLike(dst *cir.Register, src cir.Value) {
	r.countUnaware(dst.Typ)
	if r.mode == core.ModeNoAlias {
		if _, isConst := src.(*cir.Const); isConst {
			r.g.Move(dst, src) // constant binding is still visible
		} else {
			d := r.symOf(r.g.NodeOf(dst))
			s := r.termOf(src)
			r.addAtom(smt.Eq(d, s))
		}
		return
	}
	r.g.Move(dst, src)
}

func (r *replayer) replayLoad(t *cir.Load) {
	r.countUnaware(t.Dst.Typ)
	if r.mode == core.ModeNoAlias {
		if isAllocaReg(t.Addr) {
			if s, ok := r.slot[t.Addr]; ok {
				r.addAtom(smt.Eq(r.symOf(r.g.NodeOf(t.Dst)), s))
			}
		}
		return
	}
	r.g.Load(t.Dst, t.Addr)
}

func (r *replayer) replayStore(t *cir.Store) {
	if c, ok := t.Val.(*cir.Const); ok && !c.IsStr {
		r.unaware++
	} else {
		r.countUnaware(t.Val.Type())
	}
	if r.mode == core.ModeNoAlias {
		if isAllocaReg(t.Addr) {
			// A fresh version symbol per store keeps flow-sensitivity for
			// direct slots even without aliasing.
			s := r.ctx.Var("slot")
			old, had := r.slot[t.Addr]
			r.slot[t.Addr] = s
			if r.logging {
				r.slotLog = append(r.slotLog, slotUndo{addr: t.Addr, old: old, had: had})
			}
			r.addAtom(smt.Eq(s, r.termOf(t.Val)))
		}
		return
	}
	r.g.Store(t.Addr, t.Val)
}

func (r *replayer) replayBinOp(t *cir.BinOp) {
	r.unaware++
	x := r.termOf(t.X)
	y := r.termOf(t.Y)
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
	r.addAtom(smt.Eq(r.symOf(r.g.NodeOf(t.Dst)), term))
}

// replayBranch emits the Table 3 brt/brf constraint for the taken direction.
func (r *replayer) replayBranch(br *cir.CondBr, taken bool) {
	r.unaware++
	reg, ok := br.Cond.(*cir.Register)
	if !ok || reg.Def == nil {
		return
	}
	cmp, ok := reg.Def.(*cir.Cmp)
	if !ok {
		return
	}
	pred := cmp.Pred
	if !taken {
		pred = pred.Negate()
	}
	r.addAtom(predAtom(pred, r.termOf(cmp.X), r.termOf(cmp.Y)))
}

// predAtom encodes x p y. Every predicate reaching Stage 2 is one of cir's
// six: the frontend emits only those, the checker specs are built in, and
// the capsule decoder rejects any other.
func predAtom(p cir.Pred, x, y smt.Term) *smt.Atom {
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
	panic("pathval: unknown predicate " + string(p))
}

func isAllocaReg(v cir.Value) bool {
	r, ok := v.(*cir.Register)
	if !ok || r.Def == nil {
		return false
	}
	_, isAlloca := r.Def.(*cir.Alloca)
	return isAlloca
}
