package smt

// Cursor holds the package's one decision core: an offset union-find over
// equalities, per-class intervals, and stored inequalities and
// disequalities, every mutation recorded on an undo trail. It serves two
// drivers:
//
//   - Push/Checkpoint/Rollback assert one conjunct at a time, mirroring the
//     alias graph's trail, so a walk over a tree of paths can assert one
//     branch condition, descend, backtrack, and assert the other — all in
//     O(changed facts) instead of re-solving the whole conjunction at every
//     fork.
//   - Solver runs a whole conjunction on a fresh Cursor in batch order
//     (classify every atom, absorb equalities, check difference bounds,
//     propagate to a fixpoint, check disequalities), calling the same rule
//     functions.
//
// Soundness contract: Push returns Unsat only when the accumulated
// conjunction is provably unsatisfiable. Its rules — atom classification,
// equality absorption, the interval bound rule and the singleton
// disequality check — are the functions the Solver calls; the Solver adds
// difference-bound cycles and propagation to a fixpoint on top. So every
// cursor Unsat is a Solver Unsat by construction, which is what lets the
// batched Stage-2 screen (pathval) drop every candidate below a refuted
// path prefix without changing the validated bug set. Anything the cursor
// cannot decide is reported as Sat ("not proven unsat").
//
// Propagation under Push is batched and change-driven: each stored
// constraint caches its canonicalized form plus the event counter it was
// last propagated at, and recheck revisits only constraints whose
// variables' intervals (or the union-find shape) changed since. A Push that
// adds nothing new costs a handful of integer compares instead of a full
// re-propagation sweep — which is what keeps per-instruction asserts (one
// equality per arithmetic definition) from turning each path into an
// O(atoms²) solve. The skip rule is exact, not heuristic: interval
// propagation is a deterministic monotone function of a constraint's
// canonical form and its variables' current intervals, so re-running it
// with unchanged inputs is a no-op and eliding the run leaves every derived
// bound — and therefore every Sat/Unsat answer — identical to the eager
// sweep.
type Cursor struct {
	ctx    *Context
	links  map[int]link // var = parent + off; roots have no entry
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
}

// link is a non-root variable's union-find edge: var = parent + off.
type link struct {
	parent int
	off    int64
}

// constrCache is the per-constraint incremental-recheck state: the
// canonicalized form (raw variables rewritten through the union-find), its
// sorted variable ids, and the epochs it was canonicalized/last processed
// at. "Processed" means propagated for an inequality, evaluated for a
// disequality. A nil canon has not been computed yet.
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
	cuLink                   // find re-pointed a link at its root
	cuIneq                   // inequality appended
	cuDiseq                  // disequality appended
	cuUnsat                  // unsat flag raised
)

// cundo is one trail entry. x is the variable it concerns; iv/had hold x's
// interval before the change (cuIv, cuUnion) and old its link (cuLink).
type cundo struct {
	kind cundoKind
	had  bool
	x    int
	iv   interval
	old  link
}

// NewCursor returns an empty cursor that interns opaque subterms in ctx.
func NewCursor(ctx *Context) *Cursor {
	return &Cursor{
		ctx:    ctx,
		links:  make(map[int]link),
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
		case cuIv, cuUnion:
			if u.had {
				c.ivs[u.x] = u.iv
			} else {
				delete(c.ivs, u.x)
			}
			if u.kind == cuUnion {
				delete(c.links, u.x)
				c.unionEpoch++
			}
			c.epoch++
			c.ivMark[u.x] = c.epoch
		case cuLink:
			c.links[u.x] = u.old
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

// Push asserts a as a new conjunct and reports whether the conjunction so
// far is still possibly satisfiable. Unsat is definitive (and sound); Sat
// means "not proven unsat". The mutation stays on the trail either way:
// callers that prune on Unsat roll back to their checkpoint.
func (c *Cursor) Push(a *Atom) Result {
	splitAtom(c.ctx, a, c.pushEq, c.pushIneq, c.addDiseq)
	c.recheck()
	if c.unsat {
		return Unsat
	}
	return Sat
}

// splitAtom linearizes a as d = X - Y and hands it to the callback for its
// class: eq receives d for d == 0, diseq receives d for d != 0, and ineq
// receives l with l <= 0 (strict comparisons tightened by one).
func splitAtom(ctx *Context, a *Atom, eq, ineq, diseq func(*lin)) {
	d := linearizeTerm(ctx, a.X)
	d.add(linearizeTerm(ctx, a.Y), -1)
	switch a.Pred {
	case "==":
		eq(d)
	case "!=":
		diseq(d)
	case "<": // X - Y < 0  =>  X - Y + 1 <= 0
		d.k++
		ineq(d)
	case "<=":
		ineq(d)
	case ">": // X - Y > 0  =>  Y - X + 1 <= 0
		n := d.neg()
		n.k++
		ineq(n)
	case ">=":
		ineq(d.neg())
	}
}

// absorbEq absorbs the canonical equality e == 0: a constant refutes or
// holds, a single unit-coefficient variable pins an interval, and a
// two-variable unit difference merges union-find classes. It returns false,
// changing nothing, for any other shape.
func (c *Cursor) absorbEq(e *lin) bool {
	ids := e.vars()
	switch {
	case len(ids) == 0:
		if e.k != 0 {
			c.setUnsat()
		}
	case len(ids) == 1 && abs64(e.coef[ids[0]]) == 1:
		// c*x + k == 0 => x = -k/c
		v := -e.k / e.coef[ids[0]]
		c.intersect(ids[0], interval{lo: v, hi: v})
	case len(ids) == 2 && e.coef[ids[0]]*e.coef[ids[1]] == -1:
		// x - y + k == 0 (up to sign) => x = y - k/cx
		x, y := ids[0], ids[1]
		if e.coef[x] == 1 {
			c.union(x, y, -e.k)
		} else { // coef[x] == -1, coef[y] == 1
			c.union(y, x, -e.k)
		}
	default:
		return false
	}
	return true
}

// pushEq absorbs d == 0, degrading to the inequality pair d <= 0, -d <= 0
// when absorbEq cannot.
func (c *Cursor) pushEq(d *lin) {
	if !c.absorbEq(c.canon(d)) {
		c.pushIneq(d)
		c.pushIneq(d.neg())
	}
}

// addIneq stores l <= 0 without propagating it.
func (c *Cursor) addIneq(l *lin) {
	c.ineqs = append(c.ineqs, l)
	c.ineqC = append(c.ineqC, constrCache{})
	c.trail = append(c.trail, cundo{kind: cuIneq})
}

// pushIneq stores the inequality and propagates it once immediately (so the
// same Push can already observe its bounds); recheck then revisits it only
// when its inputs change.
func (c *Cursor) pushIneq(l *lin) {
	c.addIneq(l)
	cc := &c.ineqC[len(c.ineqC)-1]
	c.refreshCanon(l, cc)
	cc.doneEpoch = c.epoch
	c.propagateCanon(cc.canon, cc.roots)
}

// addDiseq stores l != 0; its doneEpoch of 0 makes the next recheck
// evaluate it.
func (c *Cursor) addDiseq(l *lin) {
	c.diseqs = append(c.diseqs, l)
	c.diseqC = append(c.diseqC, constrCache{})
	c.trail = append(c.trail, cundo{kind: cuDiseq})
}

// propagateCanon applies the bound rule once to a canonical inequality
// sum(ci*xi) + k <= 0, with ids holding its variables in deterministic
// order: each xi is narrowed to ci*xi <= -k - sum_{j != i} min(cj*xj).
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

// diseqViolated reports whether the canonical disequality l != 0 over roots
// is refuted: every variable is pinned to a single value and the sum is 0.
func (c *Cursor) diseqViolated(l *lin, roots []int) bool {
	val := l.k
	for _, id := range roots {
		v, ok := c.iv(id).singleton()
		if !ok {
			return false
		}
		val += l.coef[id] * v
	}
	return val == 0
}

// refreshCanon (re)canonicalizes constraint cc when it has no form yet or
// the union-find shape changed since its form was computed; doneEpoch
// resets so the next staleness check reprocesses it under the new form.
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
// re-evaluates the disequalities whose variables changed. Constraints with
// unchanged canonical form and unchanged variable intervals are skipped:
// reprocessing them is provably a no-op, so the derived bounds — and every
// Sat/Unsat answer — match what an unconditional sweep would produce.
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
		if c.diseqViolated(cc.canon, cc.roots) {
			c.setUnsat()
			return
		}
	}
}

// find returns (root, offsetToRoot). It compresses the path it walks,
// trailing every re-pointed link so Rollback restores the exact shape:
// without compression, each find on a long equality chain costs the
// chain's length.
func (c *Cursor) find(x int) (int, int64) {
	root, off := x, int64(0)
	for {
		l, ok := c.links[root]
		if !ok {
			break
		}
		off += l.off
		root = l.parent
	}
	for rem := off; x != root; {
		l := c.links[x]
		if l.parent != root {
			c.trail = append(c.trail, cundo{kind: cuLink, x: x, old: l})
			c.links[x] = link{parent: root, off: rem}
		}
		rem -= l.off
		x = l.parent
	}
	return root, off
}

// union records x = y + d, attaching x's root under y's and moving its
// interval across.
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
	off := oy + d - ox // rx = ry + off
	u := cundo{kind: cuUnion, x: rx}
	u.iv, u.had = c.ivs[rx]
	c.trail = append(c.trail, u)
	c.links[rx] = link{parent: ry, off: off}
	c.unionEpoch++
	if u.had {
		// rx = ry + off  =>  ry's interval is rx's shifted by -off.
		delete(c.ivs, rx)
		c.intersect(ry, interval{lo: satAdd(u.iv.lo, -off), hi: satAdd(u.iv.hi, -off)})
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
	c.trail = append(c.trail, cundo{kind: cuIv, x: x, iv: cur, had: had})
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
