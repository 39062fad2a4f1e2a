package smt

import "time"

// Result of a satisfiability query.
type Result int

// Query results. Unsat is sound; Sat may over-approximate.
const (
	Unsat Result = iota
	Sat
	Unknown
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Stats accumulates solver work counters.
type Stats struct {
	// DeadlinePolls counts interrupt checks taken inside a propagation pass
	// (every pollStride inequalities), in addition to the checks between
	// passes. Tests pin the in-pass granularity with it.
	DeadlinePolls int
}

// pollStride is how many inequalities a propagation pass processes between
// interrupt polls. Large conjunctions (batched Stage-2 sessions) can make a
// single pass long enough that polling only at pass boundaries overshoots a
// deadline by a full pass; polling every few dozen inequalities keeps the
// overshoot to one bounded slice of work.
const pollStride = 16

// maxIters bounds interval-propagation rounds per conjunction.
const maxIters = 50

// Solver decides conjunctions of atoms built from the constructors in this
// package.
type Solver struct {
	ctx *Context
	// Deadline, when non-zero, makes the solver give up with Unknown once
	// the wall clock passes it. Checked before and during each interval
	// propagation round, so a query stops within one bounded unit of work.
	Deadline time.Time
	// Done, when non-nil, interrupts the query with Unknown once the
	// channel is closed (typically a context's Done channel).
	Done <-chan struct{}
	// Interrupted reports whether the most recent query gave up because of
	// Deadline or Done. Such an Unknown is a timing artifact, not a fact
	// about the formula, and must not be memoized.
	Interrupted bool
	Stats       Stats
	// pollHook, when non-nil, runs immediately before each in-pass interrupt
	// poll. Tests use it to trip a deadline deterministically mid-pass.
	pollHook func()
}

// interrupted polls the deadline and done channel, latching Interrupted.
func (s *Solver) interrupted() bool {
	if s.Interrupted {
		return true
	}
	if s.Done != nil {
		select {
		case <-s.Done:
			s.Interrupted = true
			return true
		default:
		}
	}
	if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
		s.Interrupted = true
		return true
	}
	return false
}

// NewSolver returns a solver bound to ctx.
func NewSolver(ctx *Context) *Solver {
	return &Solver{ctx: ctx}
}

// Model is a witness assignment for a Sat verdict: variable ID → value.
// Values are derived from the final intervals (a candidate, not a verified
// model — the solver is sound for Unsat, approximate for Sat), which is
// exactly what a bug report needs: plausible concrete trigger values.
type Model map[int]int64

// Solve decides the conjunction of atoms and, when it is satisfiable,
// returns candidate witness values for its variables. Unknown means the
// query was interrupted (see Interrupted).
func (s *Solver) Solve(atoms []*Atom) (Result, Model) {
	s.Interrupted = false
	if s.interrupted() {
		return Unknown, nil
	}
	return s.solveConjModel(atoms)
}

// solveConjModel decides a conjunction on a fresh Cursor in batch order: every
// atom is classified first, equalities are absorbed in two passes (so
// substitutions expose new unions), and only then do the difference-bound
// check, interval propagation to a fixpoint and the disequality check run.
// The order fixes which variables become union-find roots, and with them
// the witness models.
func (s *Solver) solveConjModel(atoms []*Atom) (Result, Model) {
	c := NewCursor(s.ctx)

	var eqs []*lin
	addEq := func(d *lin) { eqs = append(eqs, d) }
	for _, a := range atoms {
		splitAtom(s.ctx, a, addEq, c.addIneq, c.addDiseq)
	}

	// Two absorption passes let substitutions expose new unions; the
	// equalities absorbEq still cannot take become inequality pairs.
	for pass := 0; pass < 2 && !c.unsat; pass++ {
		rest := eqs[:0]
		for _, e := range eqs {
			if e = c.canon(e); !c.absorbEq(e) {
				rest = append(rest, e)
			}
		}
		eqs = rest
	}
	for _, e := range eqs {
		c.addIneq(e)
		c.addIneq(e.neg())
	}
	if c.unsat || !c.differenceConsistent() {
		return Unsat, nil
	}

	// Interval propagation to a fixpoint: a round changed something iff it
	// moved the cursor's epoch.
	for iter := 0; iter < maxIters && !c.unsat; iter++ {
		if s.interrupted() {
			return Unknown, nil
		}
		start := c.epoch
		for i := range c.ineqs {
			if i > 0 && i%pollStride == 0 {
				if s.pollHook != nil {
					s.pollHook()
				}
				s.Stats.DeadlinePolls++
				if s.interrupted() {
					return Unknown, nil
				}
			}
			cc := &c.ineqC[i]
			c.refreshCanon(c.ineqs[i], cc)
			c.propagateCanon(cc.canon, cc.roots)
		}
		if c.epoch == start {
			break
		}
	}
	if c.unsat {
		return Unsat, nil
	}

	for i := range c.diseqs {
		cc := &c.diseqC[i]
		c.refreshCanon(c.diseqs[i], cc)
		if c.diseqViolated(cc.canon, cc.roots) {
			return Unsat, nil
		}
	}
	return Sat, c.model()
}

// model derives witness values from the final state: roots take a value
// inside their interval (preferring 0, then the nearest bound); other
// variables follow via their offsets. The key set is part of the answer —
// pathval prints a trigger only for variables the model covers — so it
// covers every root with an interval, every root of an inequality's
// canonical form (an unbounded one takes 0) and every union-find member
// with its root.
func (c *Cursor) model() Model {
	m := make(Model)
	pickVal := func(iv interval) int64 {
		switch {
		case iv.lo <= 0 && iv.hi >= 0:
			return 0
		case iv.lo > 0:
			return iv.lo
		default:
			return iv.hi
		}
	}
	for id, iv := range c.ivs {
		m[id] = pickVal(iv)
	}
	for i := range c.ineqC {
		for _, r := range c.ineqC[i].roots {
			if _, ok := m[r]; !ok {
				m[r] = pickVal(c.iv(r))
			}
		}
	}
	for id := range c.links {
		r, off := c.find(id)
		rv, ok := m[r]
		if !ok {
			rv = pickVal(c.iv(r))
			m[r] = rv
		}
		m[id] = rv + off
	}
	return m
}

// differenceConsistent checks the difference-bound fragment: every
// inequality of the form x - y + k <= 0 (unit coefficients, two variables)
// becomes an edge y →(−k)… in the constraint graph; the system is
// inconsistent iff the graph has a negative cycle.
func (c *Cursor) differenceConsistent() bool {
	type edge struct {
		from, to int
		w        int64
	}
	var edges []edge
	nodes := map[int]bool{}
	for i := range c.ineqs {
		cc := &c.ineqC[i]
		c.refreshCanon(c.ineqs[i], cc)
		l, ids := cc.canon, cc.roots
		if len(ids) != 2 {
			continue
		}
		x, y := ids[0], ids[1]
		if l.coef[x] == 1 && l.coef[y] == -1 {
			// x - y <= -k  ⇒  edge y → x with weight -k.
			edges = append(edges, edge{from: y, to: x, w: -l.k})
		} else if l.coef[x] == -1 && l.coef[y] == 1 {
			// y - x <= -k  ⇒  edge x → y with weight -k.
			edges = append(edges, edge{from: x, to: y, w: -l.k})
		} else {
			continue
		}
		nodes[x] = true
		nodes[y] = true
	}
	if len(edges) == 0 {
		return true
	}
	// Bellman-Ford from a virtual source connected to every node with
	// weight 0; a relaxation on pass |V| reveals a negative cycle.
	dist := make(map[int]int64, len(nodes))
	for n := range nodes {
		dist[n] = 0
	}
	for i := 0; i <= len(nodes); i++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.from] + e.w; d < dist[e.to] {
				dist[e.to] = d
				changed = true
				if i == len(nodes) {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	if a == posInf || a == negInf {
		return a
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b < 0 usage in bound derivation.
func ceilDiv(a, b int64) int64 {
	if a == posInf {
		if b < 0 {
			return negInf
		}
		return posInf
	}
	if a == negInf {
		if b < 0 {
			return posInf
		}
		return negInf
	}
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}
