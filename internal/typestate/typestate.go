// Package typestate implements the paper's alias-aware typestate-tracking
// method (§3.2). A typestate property is a finite state machine (Definition
// 2); the tracker maintains ONE state per alias class — all variables in the
// same alias set share the state (Definition 3) — which is the mechanism
// that halves the paper's typestate count versus per-variable tracking
// (Table 5) and removes the synchronization transitions of Figure 8(a).
//
// A checker is a Spec: plain data holding its FSM and the event each
// shared event source emits (a NULL assignment, a dereference, a
// pointer-vs-NULL branch, a matched call, a resource leaving its frame...).
// One interpreter implements every source once, so a new bug type costs a
// small table, as §5.5 argues. Seven specs ship with the package: NPD, UVA
// and ML (Table 2), the §5.5 extension checkers for double lock/unlock,
// array-index underflow and division by zero, and use-after-free; Pair
// builds one more per API-pairing rule.
package typestate

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/hmix"
)

// BugType names a class of bugs.
type BugType string

// Bug types detected by the built-in checkers.
const (
	NPD BugType = "NPD" // null-pointer dereference
	UVA BugType = "UVA" // uninitialized-variable access
	ML  BugType = "ML"  // memory leak
	DL  BugType = "DL"  // double lock/unlock
	AIU BugType = "AIU" // array index underflow
	DBZ BugType = "DBZ" // division by zero
	UAF BugType = "UAF" // use after free
	API BugType = "API" // API-pairing violation (configurable rules)
)

// State is an FSM state.
type State string

// Event is an FSM input symbol.
type Event string

// FSM is the finite state machine of Definition 2, by name. The tracker
// runs it compiled (see machine).
type FSM struct {
	Name        string
	Initial     State
	Bug         State
	Transitions map[State]map[Event]State
}

// machine is an FSM compiled for the tracker: states and events interned
// to small ints, so a transition is one table read and a record's state is
// a byte. State ID 0 is a record's zero value, an object that never moved:
// it reads as the initial state, which also holds an ID of its own.
type machine struct {
	states       []State // by ID; states[0] is the initial state
	events       []Event // by ID, sorted
	next         []uint8 // next[s*len(events)+e]: the successor's ID, 0 for none
	initial, bug uint8
}

// compile interns f's states (the initial and the bug state first, then
// the rest in sorted order) and events (in sorted order) and fills the
// transition table.
func compile(f *FSM) *machine {
	states := []State{f.Initial, f.Bug}
	evs := make(map[Event]int)
	for from, row := range f.Transitions {
		states = append(states, from)
		for ev, to := range row {
			states = append(states, to)
			evs[ev] = 0
		}
	}
	slices.Sort(states[2:])
	m := &machine{states: []State{f.Initial}, events: sortedKeys(evs)}
	ids := make(map[State]uint8)
	for _, s := range states {
		if _, ok := ids[s]; ok {
			continue
		}
		if len(m.states) > math.MaxUint8 {
			panic(fmt.Sprintf("typestate: FSM %s has more than %d states", f.Name, math.MaxUint8))
		}
		ids[s] = uint8(len(m.states))
		m.states = append(m.states, s)
	}
	m.initial, m.bug = ids[f.Initial], ids[f.Bug]
	for i, ev := range m.events {
		evs[ev] = i
	}
	m.next = make([]uint8, len(m.states)*len(m.events))
	for from, row := range f.Transitions {
		for ev, to := range row {
			m.next[int(ids[from])*len(m.events)+evs[ev]] = ids[to]
		}
	}
	return m
}

// step returns the successor of state cur (0 reads as the initial state)
// under event e, and 0 when the FSM defines no transition. An emission
// names its event, which is matched among the machine's few (two to five
// in the shipped specs), so specs and custom checkers keep emitting names.
func (m *machine) step(cur uint8, e Event) uint8 {
	if cur == 0 {
		cur = m.initial
	}
	for i, ev := range m.events {
		if ev == e {
			return m.next[int(cur)*len(m.events)+i]
		}
	}
	return 0
}

// ExtraConstraint lets a checker attach a bug condition beyond path
// feasibility (e.g. "index value < 0" for AIU); the path validator conjoins
// it with the path constraints.
type ExtraConstraint struct {
	Val   cir.Value
	Pred  cir.Pred // bug fires when Val Pred Bound is satisfiable
	Bound int64
}

// Emission is one event applied to one abstract object.
type Emission struct {
	Obj   *aliasgraph.Node
	Event Event
	// Instr is the instruction the event stems from (the bug point when
	// the transition reaches the FSM's bug state).
	Instr cir.Instr
	// Extra optionally strengthens the path-validation query.
	Extra *ExtraConstraint
}

// Intrinsic classifies external/library callees the checkers care about.
type Intrinsic int

// Intrinsic kinds.
const (
	IntrNone Intrinsic = iota
	IntrAlloc
	IntrZeroAlloc
	IntrFree
	IntrLock
	IntrUnlock
	IntrMemInit // memset-like: initializes the region behind arg 0
)

// Intrinsics maps callee names to their classification. The defaults cover
// the allocator/lock spellings of the four OSes the paper evaluates.
type Intrinsics struct {
	byName map[string]Intrinsic
}

// NewIntrinsics returns an empty table.
func NewIntrinsics() *Intrinsics {
	return &Intrinsics{byName: make(map[string]Intrinsic)}
}

// Add registers names under kind.
func (t *Intrinsics) Add(kind Intrinsic, names ...string) *Intrinsics {
	for _, n := range names {
		t.byName[n] = kind
	}
	return t
}

// Classify returns the intrinsic kind of callee.
func (t *Intrinsics) Classify(callee string) Intrinsic { return t.byName[callee] }

// Digest returns an order-independent content hash of the table: sorted
// (name, kind) pairs. The incremental analysis cache folds it into every
// entry key, so adding, removing or reclassifying an intrinsic invalidates
// all cached results.
func (t *Intrinsics) Digest() uint64 {
	names := make([]string, 0, len(t.byName))
	for n := range t.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	h := uint64(len(names))
	for _, n := range names {
		h = hmix.Mix3(h, hmix.Str(n), uint64(t.byName[n]))
	}
	return h
}

// DefaultIntrinsics returns the allocator/lock table for Linux-style and
// IoT-OS-style code (kmalloc, k_malloc, tos_mmheap_alloc, ...).
func DefaultIntrinsics() *Intrinsics {
	t := NewIntrinsics()
	t.Add(IntrAlloc, "malloc", "kmalloc", "kzalloc_nocheck", "vmalloc",
		"k_malloc", "tos_mmheap_alloc", "pvPortMalloc", "devm_kmalloc")
	t.Add(IntrZeroAlloc, "calloc", "kzalloc", "k_calloc", "tos_mmheap_calloc")
	t.Add(IntrFree, "free", "kfree", "vfree", "k_free", "tos_mmheap_free",
		"vPortFree", "devm_kfree")
	t.Add(IntrLock, "spin_lock", "mutex_lock", "k_mutex_lock", "tos_mutex_pend",
		"spin_lock_irqsave", "raw_spin_lock")
	t.Add(IntrUnlock, "spin_unlock", "mutex_unlock", "k_mutex_unlock",
		"tos_mutex_post", "spin_unlock_irqrestore", "raw_spin_unlock")
	t.Add(IntrMemInit, "memset", "bzero", "memcpy")
	return t
}

// Ctx is the engine context handed to checkers.
type Ctx interface {
	// Graph is the current alias graph (already updated for the
	// instruction being inspected, per Figure 6 lines 30–31).
	Graph() *aliasgraph.Graph
	// Tracker gives access to object states and properties.
	Tracker() *Tracker
	// IsStackAddr reports whether v is an address rooted at an alloca
	// (dereferencing it cannot be a null-pointer dereference).
	IsStackAddr(v cir.Value) bool
	// Intrinsic classifies call's callee, as Intrinsics.Classify does its
	// name.
	Intrinsic(call *cir.Call) Intrinsic
	// Depth is the current call depth (0 in the entry function).
	Depth() int
	// FrameID identifies the current function activation on this path.
	FrameID() int
	// CallerFrameID identifies the activation that will resume when the
	// current one returns (meaningful when Depth() > 0).
	CallerFrameID() int
	// IsDefined reports whether call's callee has a body in the module
	// (calls to undefined functions are treated as opaque by escape
	// analysis).
	IsDefined(call *cir.Call) bool
	// Checker is the tracker index of the checker whose hook is running.
	Checker() int
}

// Checker is a typestate property plus its event extraction. Every hook
// appends its emissions to out and returns the extended slice; the engine
// passes one reused buffer, so a hook must not retain out.
type Checker interface {
	Name() string
	Type() BugType
	FSM() *FSM
	// OnInstr inspects an instruction (after the alias-graph update).
	OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission
	// OnBranch inspects a conditional branch taken in one direction, given
	// the comparison facts that direction implies (BranchFacts), which the
	// engine computes once for all checkers.
	OnBranch(br *cir.CondBr, facts []BranchFact, ctx Ctx, out []Emission) []Emission
	// OnReturn inspects a return at the current depth (ML and Pair fire
	// their leak event on the returning frame's resources).
	OnReturn(ret *cir.Ret, ctx Ctx, out []Emission) []Emission
	// OnBind inspects the binding of an actual argument to a formal
	// parameter when the engine descends into a defined callee (the
	// HandleCALL MOVEs of Figure 6), and of a callee's return value to the
	// call's result. The alias graph has already recorded the MOVE.
	OnBind(param *cir.Register, arg cir.Value, site *cir.Call, ctx Ctx, out []Emission) []Emission
}

// ---- tracker ----

// objRec is the per-(checker, object) record.
type objRec struct {
	// origin is the GID of the instruction that put the object into its
	// current state: the "origin" half of the paper's repeated-bug key (P3).
	origin int32
	// frame and escaped belong to the resource-ownership source: the frame
	// that owns a held resource, and whether it outlives static tracking.
	frame int32
	// state is the machine's state ID, 0 until the object's first
	// transition: the FSM's initial state.
	state   uint8
	escaped bool
}

// tundo restores one record slot.
type tundo struct {
	slot int32
	old  objRec
}

// BugSink receives bug-state transitions as they happen during tracking.
type BugSink func(checkerIdx int, em Emission, from State)

// Stats are the typestate cost counters of Table 5.
type Stats struct {
	// Transitions counts alias-aware state transitions (one per alias set).
	Transitions int64
	// TransitionsUnaware counts what per-variable tracking would cost: one
	// transition per variable in the alias set, plus the synchronization
	// updates merged away by alias awareness (Figure 8).
	TransitionsUnaware int64
}

// Tracker holds the per-alias-class records of all checkers, with
// trail-based checkpoint/rollback mirroring the alias graph's.
//
// The record of object n under checker ci sits in slot
// n.ID*len(Checkers)+ci of recs, which grows on demand; a slot past its end
// or holding the zero record belongs to an object that never moved. Node
// IDs are dense and LIFO, and the engine rolls the tracker back together
// with the alias graph, so by the time a node is retired its slots are
// zero again and the node that next takes its ID starts clean. All objects
// of one tracker must come from one graph.
type Tracker struct {
	Checkers []Checker
	machines []*machine // compiled Checkers[ci].FSM()
	recs     []objRec
	// touched lists, per checker and in insertion order, the objects whose
	// state has left the initial state.
	touched [][]*aliasgraph.Node
	trail   []tundo
	Stats   Stats
	Sink    BugSink
}

// NewTracker returns a tracker over the given checkers, compiling each
// checker's FSM once.
func NewTracker(checkers []Checker, sink BugSink) *Tracker {
	t := &Tracker{
		Checkers: checkers,
		machines: make([]*machine, len(checkers)),
		touched:  make([][]*aliasgraph.Node, len(checkers)),
		Sink:     sink,
	}
	for ci, c := range checkers {
		t.machines[ci] = compile(c.FSM())
	}
	return t
}

// Mark is a trail checkpoint.
type Mark int

// Checkpoint returns a rollback mark.
func (t *Tracker) Checkpoint() Mark { return Mark(len(t.trail)) }

// Rollback undoes all tracking state changes after mark.
func (t *Tracker) Rollback(mark Mark) {
	for len(t.trail) > int(mark) {
		u := t.trail[len(t.trail)-1]
		t.trail = t.trail[:len(t.trail)-1]
		if u.old.state == 0 && t.recs[u.slot].state != 0 {
			ci := int(u.slot) % len(t.Checkers)
			t.touched[ci] = t.touched[ci][:len(t.touched[ci])-1]
		}
		t.recs[u.slot] = u.old
	}
}

func (t *Tracker) rec(ci int, obj *aliasgraph.Node) objRec {
	if k := obj.ID*len(t.Checkers) + ci; k < len(t.recs) {
		return t.recs[k]
	}
	return objRec{}
}

// set replaces obj's record under checker ci, trailing the old one.
func (t *Tracker) set(ci int, obj *aliasgraph.Node, r objRec) {
	k := obj.ID*len(t.Checkers) + ci
	if k >= len(t.recs) {
		t.recs = append(t.recs, make([]objRec, k+1-len(t.recs))...)
	}
	old := t.recs[k]
	t.trail = append(t.trail, tundo{slot: int32(k), old: old})
	t.recs[k] = r
	if old.state == 0 && r.state != 0 {
		t.touched[ci] = append(t.touched[ci], obj)
	}
}

// moved reports whether r, a record under checker ci, has made a
// transition into state s.
func (t *Tracker) moved(ci int, r objRec, s State) bool {
	return r.state != 0 && t.machines[ci].states[r.state] == s
}

// StateOf returns the current state of obj under checker ci.
func (t *Tracker) StateOf(ci int, obj *aliasgraph.Node) State {
	return t.machines[ci].states[t.rec(ci, obj).state]
}

// Origin returns the GID of the instruction that put obj into its current
// state under checker ci (0 when it never left the initial state).
func (t *Tracker) Origin(ci int, obj *aliasgraph.Node) int { return int(t.rec(ci, obj).origin) }

// Apply feeds one emission through checker ci's FSM, counting costs and
// reporting bug-state entries through the sink.
func (t *Tracker) Apply(ci int, em Emission) {
	m := t.machines[ci]
	r := t.rec(ci, em.Obj)
	next := m.step(r.state, em.Event)
	if next == 0 {
		return
	}
	cur := r.state
	if cur == 0 {
		cur = m.initial
	}
	t.Stats.Transitions++
	// Alias-unaware cost: one update per variable in the class plus one
	// synchronization per extra variable (Figure 8a).
	nvars := int64(em.Obj.NumVars())
	if nvars == 0 {
		nvars = 1
	}
	t.Stats.TransitionsUnaware += 2*nvars - 1
	if next != cur {
		r.state = next
		if next != m.bug && em.Instr != nil {
			r.origin = int32(em.Instr.GID())
		}
		t.set(ci, em.Obj, r)
	}
	if next == m.bug && t.Sink != nil {
		t.Sink(ci, em, m.states[cur])
	}
}
