package smt

// Cursor is an incremental satisfiability front-end over a growing
// conjunction of atoms. It wraps the same offset union-find + interval
// machinery conjSolver uses for batch queries, but exposes it through
// Push/Checkpoint/Rollback with an undo trail, mirroring the alias graph's
// trail so a walk over a tree of paths can assert one branch condition,
// descend, backtrack, and assert the other — all in O(changed facts)
// instead of re-solving the whole conjunction at every fork.
//
// Soundness contract: Push returns Unsat only when the accumulated
// conjunction is provably unsatisfiable by rules that are a strict subset of
// conjSolver's (equality absorption, one-shot interval propagation,
// singleton disequality checks). Anything the cursor cannot decide is
// reported as Sat ("not proven unsat"). This subset property is what lets
// the batched Stage-2 screen (pathval) drop every candidate below a refuted
// path prefix without changing the validated bug set: a cursor-UNSAT prefix
// extends only to paths whose full Table-3 constraint system the full
// solver would also refute.
//
// Propagation is batched and change-driven: each stored constraint caches
// its canonicalized form plus the event counter it was last propagated at,
// and recheck revisits only constraints whose variables' intervals (or the
// union-find shape) changed since. A Push that adds nothing new costs a
// handful of integer compares instead of a full re-propagation sweep —
// which is what keeps per-instruction asserts (one equality per
// arithmetic definition) from turning each path into an O(atoms²) solve.
// The skip rule is exact, not heuristic: interval propagation is a
// deterministic monotone function of a constraint's canonical form and its
// variables' current intervals, so re-running it with unchanged inputs is a
// no-op and eliding the run leaves every derived bound — and therefore
// every Sat/Unsat answer — identical to the eager sweep.
type Cursor struct {
	ctx    *Context
	parent map[int]int
	offset map[int]int64 // var = parent + offset
	ivs    map[int]interval
	ineqs  []*lin // each lin <= 0, stored raw and canonicalized at use
	diseqs []*lin // each lin != 0, stored raw
	trail  []cundo
	unsat  bool

	// epoch is a monotone event counter bumped whenever a root's interval
	// changes (forward or via rollback); ivMark records, per root, the epoch
	// of its last interval change. unionEpoch bumps whenever the union-find
	// shape changes (a union or its rollback), invalidating every cached
	// canonical form at once — unions are rare next to interval updates, and
	// a per-root scheme could miss cancellations (two raw variables merging
	// into one root can erase a variable from a canonical form entirely).
	// Marks are never rolled back: a stale-high mark only costs a no-op
	// re-propagation, never a missed one.
	epoch      uint64
	unionEpoch uint64
	ivMark     map[int]uint64
	ineqC      []constrCache // parallel to ineqs
	diseqC     []constrCache // parallel to diseqs

	// Pushes counts Push calls; Unsats counts those answered Unsat.
	Pushes int64
	Unsats int64
}

// constrCache is the per-constraint incremental-recheck state: the
// canonicalized form (raw variables rewritten through the union-find), its
// sorted variable ids, and the epochs it was canonicalized/last processed
// at. "Processed" means propagated for an inequality, evaluated for a
// disequality.
type constrCache struct {
	canon      *lin
	roots      []int
	canonEpoch uint64 // unionEpoch when canon was computed
	doneEpoch  uint64 // epoch when last propagated/evaluated
}

// CursorMark is a checkpoint into the cursor's undo trail.
type CursorMark int

type cundoKind uint8

const (
	cuIv    cundoKind = iota // interval narrowed on a root
	cuUnion                  // root attached under another root
	cuIneq                   // inequality appended
	cuDiseq                  // disequality appended
	cuUnsat                  // unsat flag raised
)

type cundo struct {
	kind       cundoKind
	x, y       int
	xIv, yIv   interval
	xHad, yHad bool
}

// NewCursor returns an empty cursor bound to ctx (used to intern opaque
// subterms exactly as the batch solver does).
func NewCursor(ctx *Context) *Cursor {
	return &Cursor{
		ctx:    ctx,
		parent: make(map[int]int),
		offset: make(map[int]int64),
		ivs:    make(map[int]interval),
		ivMark: make(map[int]uint64),
	}
}

// Checkpoint returns a mark for Rollback.
func (c *Cursor) Checkpoint() CursorMark { return CursorMark(len(c.trail)) }

// Rollback undoes every Push-induced mutation made after mark.
func (c *Cursor) Rollback(mark CursorMark) {
	for len(c.trail) > int(mark) {
		u := c.trail[len(c.trail)-1]
		c.trail = c.trail[:len(c.trail)-1]
		switch u.kind {
		case cuIv:
			if u.xHad {
				c.ivs[u.x] = u.xIv
			} else {
				delete(c.ivs, u.x)
			}
			c.epoch++
			c.ivMark[u.x] = c.epoch
		case cuUnion:
			delete(c.parent, u.x)
			delete(c.offset, u.x)
			if u.xHad {
				c.ivs[u.x] = u.xIv
			} else {
				delete(c.ivs, u.x)
			}
			if u.yHad {
				c.ivs[u.y] = u.yIv
			} else {
				delete(c.ivs, u.y)
			}
			c.unionEpoch++
			c.epoch++
			c.ivMark[u.x] = c.epoch
			c.ivMark[u.y] = c.epoch
		case cuIneq:
			c.ineqs = c.ineqs[:len(c.ineqs)-1]
			c.ineqC = c.ineqC[:len(c.ineqC)-1]
		case cuDiseq:
			c.diseqs = c.diseqs[:len(c.diseqs)-1]
			c.diseqC = c.diseqC[:len(c.diseqC)-1]
		case cuUnsat:
			c.unsat = false
		}
	}
}

// Push asserts f as a new conjunct and reports whether the conjunction so
// far is still possibly satisfiable. Unsat is definitive (and sound);
// Sat means "not proven unsat". Unsupported formula shapes (negations,
// disjunctions) are dropped, which only weakens the conjunction and so is
// conservative. The mutation stays on the trail either way: callers that
// prune on Unsat roll back to their checkpoint.
func (c *Cursor) Push(f Formula) Result {
	c.Pushes++
	c.pushF(f)
	c.recheck()
	if c.unsat {
		c.Unsats++
		return Unsat
	}
	return Sat
}

func (c *Cursor) pushF(f Formula) {
	switch ff := f.(type) {
	case *BoolLit:
		if !ff.Val {
			c.setUnsat()
		}
	case *AndF:
		for _, g := range ff.Fs {
			c.pushF(g)
		}
	case *Atom:
		c.pushAtom(ff)
	}
}

func (c *Cursor) pushAtom(a *Atom) {
	x := linearizeTerm(c.ctx, a.X)
	y := linearizeTerm(c.ctx, a.Y)
	d := newLin()
	d.add(x, 1)
	d.add(y, -1) // d = X - Y
	switch a.Pred {
	case "==":
		c.pushEq(d)
	case "!=":
		c.pushDiseq(d)
	case "<": // X - Y < 0  =>  X - Y + 1 <= 0
		d.k++
		c.pushIneq(d)
	case "<=":
		c.pushIneq(d)
	case ">": // X - Y > 0  =>  Y - X + 1 <= 0
		n := newLin()
		n.add(d, -1)
		n.k++
		c.pushIneq(n)
	case ">=":
		n := newLin()
		n.add(d, -1)
		c.pushIneq(n)
	}
}

// pushEq mirrors conjSolver's phase-2 equality absorption: constants refute
// directly, single unit-coefficient variables pin an interval, two-variable
// unit differences merge union-find classes, and everything else degrades to
// an inequality pair.
func (c *Cursor) pushEq(d *lin) {
	e := c.canon(d)
	ids := e.vars()
	switch {
	case len(ids) == 0:
		if e.k != 0 {
			c.setUnsat()
		}
	case len(ids) == 1 && abs64(e.coef[ids[0]]) == 1:
		v := -e.k / e.coef[ids[0]]
		c.intersect(ids[0], interval{lo: v, hi: v})
	case len(ids) == 2 && e.coef[ids[0]]*e.coef[ids[1]] == -1:
		x, y := ids[0], ids[1]
		if e.coef[x] == 1 {
			c.union(x, y, -e.k)
		} else { // coef[x] == -1, coef[y] == 1
			c.union(y, x, -e.k)
		}
	default:
		n := newLin()
		n.add(d, -1)
		c.pushIneq(d)
		c.pushIneq(n)
	}
}

// pushIneq stores the inequality, caches its canonical form, and propagates
// it once immediately (so the same Push can already observe its bounds);
// recheck then revisits it only when its inputs change.
func (c *Cursor) pushIneq(l *lin) {
	c.ineqs = append(c.ineqs, l)
	c.trail = append(c.trail, cundo{kind: cuIneq})
	cc := constrCache{canon: c.canon(l), canonEpoch: c.unionEpoch}
	cc.roots = cc.canon.vars()
	cc.doneEpoch = c.epoch
	c.ineqC = append(c.ineqC, cc)
	c.propagateCanon(cc.canon, cc.roots)
}

func (c *Cursor) pushDiseq(l *lin) {
	c.diseqs = append(c.diseqs, l)
	c.trail = append(c.trail, cundo{kind: cuDiseq})
	cc := constrCache{canon: c.canon(l), canonEpoch: c.unionEpoch}
	cc.roots = cc.canon.vars()
	// doneEpoch 0 forces the first evaluation in the recheck below.
	c.diseqC = append(c.diseqC, cc)
}

// propagateCanon applies one round of the phase-3 bound-derivation rule for
// a single already-canonicalized inequality sum(ci*xi) + k <= 0, with ids
// holding its variables in deterministic order.
func (c *Cursor) propagateCanon(l *lin, ids []int) {
	if c.unsat {
		return
	}
	if len(ids) == 0 {
		if l.k > 0 {
			c.setUnsat()
		}
		return
	}
	for _, xi := range ids {
		rest := -l.k
		for _, xj := range ids {
			if xj == xi {
				continue
			}
			r := mulRange(l.coef[xj], c.iv(xj))
			rest = satAdd(rest, -r.lo)
		}
		ci := l.coef[xi]
		nv := fullInterval()
		if ci > 0 {
			nv.hi = floorDiv(rest, ci)
		} else {
			nv.lo = ceilDiv(rest, ci)
		}
		c.intersect(xi, nv)
		if c.unsat {
			return
		}
	}
}

// refreshCanon re-canonicalizes constraint cc when the union-find shape
// changed since its cached form was computed; doneEpoch resets so the next
// staleness check reprocesses it under the new form.
func (c *Cursor) refreshCanon(raw *lin, cc *constrCache) {
	if cc.canon != nil && cc.canonEpoch == c.unionEpoch {
		return
	}
	cc.canon = c.canon(raw)
	cc.roots = cc.canon.vars()
	cc.canonEpoch = c.unionEpoch
	cc.doneEpoch = 0
}

// stale reports whether any of the constraint's variables changed interval
// since it was last processed.
func (c *Cursor) stale(cc *constrCache) bool {
	for _, r := range cc.roots {
		if c.ivMark[r] > cc.doneEpoch {
			return true
		}
	}
	return false
}

// recheck runs one propagation round over the stored inequalities whose
// inputs changed (so a new bound flows through older constraints) and
// re-evaluates the disequalities whose variables have collapsed to
// singletons. Constraints with unchanged canonical form and unchanged
// variable intervals are skipped: reprocessing them is provably a no-op, so
// the derived bounds — and every Sat/Unsat answer — match what an
// unconditional sweep would produce.
func (c *Cursor) recheck() {
	if c.unsat {
		return
	}
	for i := range c.ineqs {
		cc := &c.ineqC[i]
		c.refreshCanon(c.ineqs[i], cc)
		if !c.stale(cc) && cc.doneEpoch != 0 {
			continue
		}
		cc.doneEpoch = c.epoch
		c.propagateCanon(cc.canon, cc.roots)
		if c.unsat {
			return
		}
	}
	for i := range c.diseqs {
		cc := &c.diseqC[i]
		c.refreshCanon(c.diseqs[i], cc)
		if !c.stale(cc) && cc.doneEpoch != 0 {
			continue
		}
		cc.doneEpoch = c.epoch
		l := cc.canon
		val := l.k
		fixed := true
		for _, id := range cc.roots {
			v, ok := c.iv(id).singleton()
			if !ok {
				fixed = false
				break
			}
			val += l.coef[id] * v
		}
		if fixed && val == 0 {
			c.setUnsat()
			return
		}
	}
}

// find returns (root, offsetToRoot) without path compression: compression
// would complicate the undo trail, and cursor chains stay shallow because a
// path pushes at most a few dozen equalities.
func (c *Cursor) find(x int) (int, int64) {
	var off int64
	for {
		p, ok := c.parent[x]
		if !ok || p == x {
			return x, off
		}
		off += c.offset[x]
		x = p
	}
}

// union records x = y + d, merging intervals like conjSolver.union but with
// every mutation trailed.
func (c *Cursor) union(x, y int, d int64) {
	rx, ox := c.find(x) // x = rx + ox
	ry, oy := c.find(y) // y = ry + oy
	if rx == ry {
		// x = y + d  =>  rx + ox = ry + oy + d  =>  ox == oy + d
		if ox != oy+d {
			c.setUnsat()
		}
		return
	}
	u := cundo{kind: cuUnion, x: rx, y: ry}
	u.xIv, u.xHad = c.ivs[rx]
	u.yIv, u.yHad = c.ivs[ry]
	c.trail = append(c.trail, u)
	off := oy + d - ox // rx = ry + off
	c.parent[rx] = ry
	c.offset[rx] = off
	c.unionEpoch++
	if u.xHad {
		// rx = ry + off  =>  ry's interval is rx's shifted by -off.
		delete(c.ivs, rx)
		shifted := interval{lo: satAdd(u.xIv.lo, -off), hi: satAdd(u.xIv.hi, -off)}
		cur := u.yIv
		if !u.yHad {
			cur = fullInterval()
		}
		if shifted.lo > cur.lo {
			cur.lo = shifted.lo
		}
		if shifted.hi < cur.hi {
			cur.hi = shifted.hi
		}
		c.ivs[ry] = cur
		c.epoch++
		c.ivMark[ry] = c.epoch
		if cur.empty() {
			c.setUnsat()
		}
	}
}

func (c *Cursor) iv(x int) interval {
	if iv, ok := c.ivs[x]; ok {
		return iv
	}
	return fullInterval()
}

// intersect narrows x's interval to its meet with nv, trailing the change.
func (c *Cursor) intersect(x int, nv interval) {
	cur, had := c.ivs[x]
	if !had {
		cur = fullInterval()
	}
	next := cur
	if nv.lo > next.lo {
		next.lo = nv.lo
	}
	if nv.hi < next.hi {
		next.hi = nv.hi
	}
	if next == cur {
		return
	}
	c.trail = append(c.trail, cundo{kind: cuIv, x: x, xIv: cur, xHad: had})
	c.ivs[x] = next
	c.epoch++
	c.ivMark[x] = c.epoch
	if next.empty() {
		c.setUnsat()
	}
}

func (c *Cursor) setUnsat() {
	if c.unsat {
		return
	}
	c.unsat = true
	c.trail = append(c.trail, cundo{kind: cuUnsat})
}

// canon rewrites l in terms of current representatives.
func (c *Cursor) canon(l *lin) *lin {
	out := newLin()
	out.k = l.k
	for id, coef := range l.coef {
		r, o := c.find(id)
		out.addVar(int64(r), coef)
		out.k += coef * o
	}
	return out
}
