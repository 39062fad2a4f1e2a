package typestate

import (
	"testing"
	"testing/quick"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
)

func mkNode(g *aliasgraph.Graph, name string) *aliasgraph.Node {
	return g.NodeOf(&cir.Register{Name: name, Typ: cir.PointerTo(cir.I64)})
}

// next steps the compiled m from the state named s under event e, by name;
// ok is false when no transition is defined (the state is unchanged).
func next(m *machine, s State, e Event) (State, bool) {
	if n := m.step(stateID(m, s), e); n != 0 {
		return m.states[n], true
	}
	return s, false
}

// stateID returns the ID of the state named s in m.
func stateID(m *machine, s State) uint8 {
	for id, name := range m.states[1:] {
		if name == s {
			return uint8(id + 1)
		}
	}
	panic("unknown state " + s)
}

// sid returns the ID of the state named s in checker ci's compiled machine.
func sid(tr *Tracker, ci int, s State) uint8 { return stateID(tr.machines[ci], s) }

func TestFSMNext(t *testing.T) {
	m := compile(NewNPD().FSM())
	s, ok := next(m, "S0", "br_null")
	if !ok || s != "S_N" {
		t.Errorf("S0 --br_null--> %s (%v)", s, ok)
	}
	s, ok = next(m, "S_N", "deref")
	if !ok || s != "S_NPD" {
		t.Errorf("S_N --deref--> %s (%v)", s, ok)
	}
	// Undefined transitions keep the state.
	s, ok = next(m, "S_NPD", "br_null")
	if ok || s != "S_NPD" {
		t.Errorf("undefined transition moved: %s (%v)", s, ok)
	}
	// So do events the FSM does not know.
	if s, ok = next(m, "S0", "no_such_event"); ok || s != "S0" {
		t.Errorf("unknown event moved: %s (%v)", s, ok)
	}
}

// TestCompiledMachinesMatchTables: every compiled machine takes exactly the
// transitions its FSM's table lists, from every state under every event.
func TestCompiledMachinesMatchTables(t *testing.T) {
	for _, c := range allSpecs() {
		fsm := c.FSM()
		m := compile(fsm)
		if m.states[0] != fsm.Initial || m.states[m.initial] != fsm.Initial || m.states[m.bug] != fsm.Bug {
			t.Errorf("%s: initial/bug states interned wrong", c.Name())
		}
		for _, s := range m.states[1:] {
			for _, e := range m.events {
				want, wantOK := fsm.Transitions[s][e]
				if got, ok := next(m, s, e); ok != wantOK || (ok && got != want) {
					t.Errorf("%s: %s --%s--> %s (%v), table says %s (%v)", c.Name(), s, e, got, ok, want, wantOK)
				}
			}
		}
	}
}

// specEvents lists every event s's sources can emit.
func specEvents(s *Spec) []Event {
	evs := []Event{s.AssNull, s.BrNull, s.BrNonNull, s.Deref, s.AssBad, s.AssGood,
		s.StoreBad, s.IndexUse, s.DivUse, s.Alloc, s.Write, s.Read, s.OpaqueInit, s.Leak}
	for _, f := range s.BrConst {
		evs = append(evs, f.Event)
	}
	for _, r := range s.Calls {
		evs = append(evs, r.Event)
	}
	return evs
}

// allSpecs returns every built-in spec plus one per common pairing rule.
func allSpecs() []*Spec {
	var out []*Spec
	for _, c := range AllCheckers() {
		out = append(out, c.(*Spec))
	}
	out = append(out, NewUVAThreadUnaware())
	for _, r := range CommonPairRules() {
		out = append(out, NewPair(r))
	}
	return out
}

func TestAllFSMsWellFormed(t *testing.T) {
	for _, c := range allSpecs() {
		fsm := c.FSM()
		// Every event a source emits must drive some transition, or the
		// source is dead weight (a misspelled event name).
		used := map[Event]bool{}
		for _, m := range fsm.Transitions {
			for e := range m {
				used[e] = true
			}
		}
		for _, e := range specEvents(c) {
			if e != "" && !used[e] {
				t.Errorf("%s: emitted event %q has no transition", c.Name(), e)
			}
		}
		for _, s := range []State{c.Region, c.Held} {
			if _, ok := fsm.Transitions[s]; s != "" && !ok {
				t.Errorf("%s: state %s has no transitions", c.Name(), s)
			}
		}
		if fsm.Initial == "" || fsm.Bug == "" || fsm.Name == "" {
			t.Errorf("%s: incomplete FSM", c.Name())
		}
		if _, ok := fsm.Transitions[fsm.Initial]; !ok {
			t.Errorf("%s: initial state has no transitions", c.Name())
		}
		// Every transition target must be a known state or the bug state.
		states := map[State]bool{fsm.Initial: true, fsm.Bug: true}
		for s := range fsm.Transitions {
			states[s] = true
		}
		for s, m := range fsm.Transitions {
			for e, n := range m {
				if !states[n] {
					t.Errorf("%s: %s --%s--> unknown state %s", c.Name(), s, e, n)
				}
			}
		}
	}
}

func TestTrackerTransitionsAndSink(t *testing.T) {
	g := aliasgraph.New()
	var bugs []Emission
	tr := NewTracker([]Checker{NewNPD()}, func(ci int, em Emission, from State) {
		bugs = append(bugs, em)
	})
	obj := mkNode(g, "p")
	in := &cir.Store{} // placeholder instruction (nil position is fine)

	tr.Apply(0, Emission{Obj: obj, Event: "br_null", Instr: in})
	if got := tr.StateOf(0, obj); got != "S_N" {
		t.Fatalf("state = %s, want S_N", got)
	}
	tr.Apply(0, Emission{Obj: obj, Event: "deref", Instr: in})
	if len(bugs) != 1 {
		t.Fatalf("bug sink fired %d times, want 1", len(bugs))
	}
	// Re-entrant bug state fires again for each unsafe use.
	tr.Apply(0, Emission{Obj: obj, Event: "deref", Instr: in})
	if len(bugs) != 2 {
		t.Errorf("second deref should fire again, got %d", len(bugs))
	}
	if tr.Stats.Transitions != 3 {
		t.Errorf("transitions = %d, want 3", tr.Stats.Transitions)
	}
}

func TestTrackerUnawareCountScalesWithAliasSet(t *testing.T) {
	g := aliasgraph.New()
	tr := NewTracker([]Checker{NewNPD()}, nil)
	a := &cir.Register{Name: "a", Typ: cir.PointerTo(cir.I64)}
	b := &cir.Register{Name: "b", Typ: cir.PointerTo(cir.I64)}
	c := &cir.Register{Name: "c", Typ: cir.PointerTo(cir.I64)}
	g.NodeOf(a)
	g.Move(b, a)
	g.Move(c, a) // class of size 3
	obj := g.NodeOf(a)
	tr.Apply(0, Emission{Obj: obj, Event: "br_null", Instr: &cir.Store{}})
	if tr.Stats.Transitions != 1 {
		t.Errorf("aware transitions = %d, want 1", tr.Stats.Transitions)
	}
	if tr.Stats.TransitionsUnaware != 5 { // 2*3 - 1
		t.Errorf("unaware transitions = %d, want 5", tr.Stats.TransitionsUnaware)
	}
}

func TestTrackerRollback(t *testing.T) {
	g := aliasgraph.New()
	tr := NewTracker([]Checker{NewNPD(), NewML()}, nil)
	obj := mkNode(g, "p")
	in := &cir.Store{}

	m := tr.Checkpoint()
	tr.Apply(0, Emission{Obj: obj, Event: "br_null", Instr: in})
	tr.set(1, obj, objRec{frame: 7})
	if tr.StateOf(0, obj) != "S_N" || tr.rec(1, obj).frame != 7 {
		t.Fatal("mutations not visible")
	}
	tr.Rollback(m)
	if tr.StateOf(0, obj) != "S0" {
		t.Error("state not rolled back")
	}
	if tr.rec(1, obj).frame != 0 {
		t.Error("ownership field not rolled back")
	}
	if len(tr.touched[0]) != 0 {
		t.Error("touched list not rolled back")
	}
}

// TestTrackerRollbackRestoresOverwrites: Rollback restores overwritten
// states and record fields exactly, and replaying the writes reproduces
// them.
func TestTrackerRollbackRestoresOverwrites(t *testing.T) {
	g := aliasgraph.New()
	obj1, obj2 := mkNode(g, "p"), mkNode(g, "q")
	tr := NewTracker([]Checker{NewNPD()}, nil)
	tr.set(0, obj1, objRec{state: sid(tr, 0, "S_N"), frame: 7})

	m := tr.Checkpoint()
	mutate := func() {
		tr.set(0, obj1, objRec{state: sid(tr, 0, "S_NON"), frame: 9}) // overwrite
		tr.set(0, obj2, objRec{state: sid(tr, 0, "S_N")})
	}
	mutate()
	if tr.rec(0, obj1).frame != 9 || tr.StateOf(0, obj1) != "S_NON" || tr.StateOf(0, obj2) != "S_N" {
		t.Fatal("mutations not visible")
	}
	tr.Rollback(m)
	if got := tr.rec(0, obj1).frame; got != 7 {
		t.Errorf("frame after rollback = %d, want 7", got)
	}
	if got := tr.StateOf(0, obj1); got != "S_N" {
		t.Errorf("obj1 state after rollback = %s, want S_N", got)
	}
	if got := tr.touched[0]; len(got) != 1 || got[0] != obj1 {
		t.Errorf("touched after rollback = %v, want only obj1", got)
	}
	mutate()
	if tr.rec(0, obj1).frame != 9 || tr.StateOf(0, obj1) != "S_NON" || tr.StateOf(0, obj2) != "S_N" {
		t.Error("replayed mutations not visible")
	}
}

// TestObjectsInState: the leak sweep visits exactly the touched objects
// still in the held state.
func TestObjectsInState(t *testing.T) {
	ml := NewML()
	m := newMockCtx(ml)
	a, b := preg("a"), preg("b")
	feed(m, ml, mkCall("malloc", a, cir.IntConst(cir.I64, 8)))
	feed(m, ml, mkCall("malloc", b, cir.IntConst(cir.I64, 8)))
	feed(m, ml, mkCall("free", nil, b))
	ems := ml.OnReturn(&cir.Ret{}, m, nil)
	if len(ems) != 1 || ems[0].Obj != m.g.NodeOf(a) {
		t.Errorf("leak sweep emissions = %v, want one on a", ems)
	}
}

func TestBranchFacts(t *testing.T) {
	fn := &cir.Function{Name: "f"}
	blkT := &cir.Block{Name: "t", Fn: fn}
	blkF := &cir.Block{Name: "f", Fn: fn}
	p := &cir.Register{Name: "p", Typ: cir.PointerTo(cir.I64)}
	null := cir.NullConst(cir.PointerTo(cir.I64))
	cmp := &cir.Cmp{Dst: &cir.Register{Name: "c", Typ: cir.I1}, Pred: cir.PredEQ, X: p, Y: null}
	cmp.Dst.Def = cmp
	br := &cir.CondBr{Cond: cmp.Dst, True: blkT, False: blkF}

	facts, n := BranchFacts(br, true)
	if n != 1 || facts[0].Pred != cir.PredEQ || facts[0].Val != p {
		t.Fatalf("taken facts = %+v", facts[:n])
	}
	facts, n = BranchFacts(br, false)
	if n != 1 || facts[0].Pred != cir.PredNE {
		t.Fatalf("not-taken facts = %+v", facts[:n])
	}
	// Constant on the left gets the swapped predicate.
	cmp2 := &cir.Cmp{Dst: &cir.Register{Name: "c2", Typ: cir.I1}, Pred: cir.PredLT, X: cir.IntConst(cir.I64, 0), Y: p}
	cmp2.Dst.Def = cmp2
	br2 := &cir.CondBr{Cond: cmp2.Dst, True: blkT, False: blkF}
	facts, n = BranchFacts(br2, true) // 0 < p  =>  p > 0
	if n != 1 || facts[0].Pred != cir.PredGT {
		t.Fatalf("swapped facts = %+v", facts[:n])
	}
	if allocs := testing.AllocsPerRun(10, func() { BranchFacts(br2, true) }); allocs != 0 {
		t.Errorf("BranchFacts allocates %.0f times, want 0", allocs)
	}
}

func TestIntrinsicsTable(t *testing.T) {
	tbl := DefaultIntrinsics()
	cases := map[string]Intrinsic{
		"malloc":           IntrAlloc,
		"kmalloc":          IntrAlloc,
		"tos_mmheap_alloc": IntrAlloc,
		"kzalloc":          IntrZeroAlloc,
		"kfree":            IntrFree,
		"mutex_lock":       IntrLock,
		"mutex_unlock":     IntrUnlock,
		"memset":           IntrMemInit,
		"printf":           IntrNone,
	}
	for name, want := range cases {
		if got := tbl.Classify(name); got != want {
			t.Errorf("Classify(%s) = %v, want %v", name, got, want)
		}
	}
}

// Property: tracker rollback after a random emission sequence restores the
// initial state for every touched object.
func TestTrackerRollbackProperty(t *testing.T) {
	events := []Event{"br_null", "br_nonnull", "ass_null", "deref"}
	f := func(choices []uint8) bool {
		g := aliasgraph.New()
		tr := NewTracker([]Checker{NewNPD()}, nil)
		objs := []*aliasgraph.Node{mkNode(g, "a"), mkNode(g, "b"), mkNode(g, "c")}
		in := &cir.Store{}
		m := tr.Checkpoint()
		for _, ch := range choices {
			obj := objs[int(ch)%len(objs)]
			ev := events[int(ch/4)%len(events)]
			tr.Apply(0, Emission{Obj: obj, Event: ev, Instr: in})
		}
		tr.Rollback(m)
		for _, obj := range objs {
			if tr.StateOf(0, obj) != "S0" {
				return false
			}
		}
		for _, r := range tr.recs {
			if r != (objRec{}) {
				return false
			}
		}
		return len(tr.touched[0]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the unaware transition count always dominates the aware count.
func TestUnawareDominatesProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		g := aliasgraph.New()
		tr := NewTracker([]Checker{NewNPD()}, nil)
		in := &cir.Store{}
		for i, sz := range sizes {
			if i > 20 {
				break
			}
			base := &cir.Register{ID: i, Name: "v", Typ: cir.PointerTo(cir.I64)}
			g.NodeOf(base)
			for j := 0; j < int(sz%5); j++ {
				g.Move(&cir.Register{ID: 1000 + i*10 + j, Name: "w", Typ: cir.PointerTo(cir.I64)}, base)
			}
			tr.Apply(0, Emission{Obj: g.NodeOf(base), Event: "br_null", Instr: in})
		}
		return tr.Stats.TransitionsUnaware >= tr.Stats.Transitions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: in every checker's FSM, the bug state is reachable from the
// initial state (otherwise the checker can never report).
func TestBugStateReachable(t *testing.T) {
	for _, c := range allSpecs() {
		fsm := c.FSM()
		seen := map[State]bool{fsm.Initial: true}
		frontier := []State{fsm.Initial}
		for len(frontier) > 0 {
			s := frontier[0]
			frontier = frontier[1:]
			for _, next := range fsm.Transitions[s] {
				if !seen[next] {
					seen[next] = true
					frontier = append(frontier, next)
				}
			}
		}
		if !seen[fsm.Bug] {
			t.Errorf("%s: bug state %s unreachable", c.Name(), fsm.Bug)
		}
	}
}
