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

func TestFSMNext(t *testing.T) {
	fsm := NewNPD().FSM()
	s, ok := fsm.Next(npdS0, evBrNull)
	if !ok || s != npdN {
		t.Errorf("S0 --br_null--> %s (%v)", s, ok)
	}
	s, ok = fsm.Next(npdN, evDeref)
	if !ok || s != npdBug {
		t.Errorf("S_N --deref--> %s (%v)", s, ok)
	}
	// Undefined transitions keep the state.
	s, ok = fsm.Next(npdBug, evBrNull)
	if ok || s != npdBug {
		t.Errorf("undefined transition moved: %s (%v)", s, ok)
	}
}

func TestAllFSMsWellFormed(t *testing.T) {
	for _, c := range AllCheckers() {
		fsm := c.FSM()
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

	tr.Apply(0, Emission{Obj: obj, Event: evBrNull, Instr: in})
	if got := tr.StateOf(0, obj); got != npdN {
		t.Fatalf("state = %s, want S_N", got)
	}
	tr.Apply(0, Emission{Obj: obj, Event: evDeref, Instr: in})
	if len(bugs) != 1 {
		t.Fatalf("bug sink fired %d times, want 1", len(bugs))
	}
	// Re-entrant bug state fires again for each unsafe use.
	tr.Apply(0, Emission{Obj: obj, Event: evDeref, Instr: in})
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
	tr.Apply(0, Emission{Obj: obj, Event: evBrNull, Instr: &cir.Store{}})
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
	tr.Apply(0, Emission{Obj: obj, Event: evBrNull, Instr: in})
	tr.SetProp(1, obj, propFrame, 7)
	if tr.StateOf(0, obj) != npdN || tr.PropOf(1, obj, propFrame) != 7 {
		t.Fatal("mutations not visible")
	}
	tr.Rollback(m)
	if tr.StateOf(0, obj) != npdS0 {
		t.Error("state not rolled back")
	}
	if tr.PropOf(1, obj, propFrame) != 0 {
		t.Error("prop not rolled back")
	}
	if len(tr.ObjectsInState(0, npdN)) != 0 {
		t.Error("touched list not rolled back")
	}
}

// TestTrackerRollbackRestoresOverwrites: Rollback restores overwritten
// states and property values exactly, and replaying the writes reproduces
// them.
func TestTrackerRollbackRestoresOverwrites(t *testing.T) {
	g := aliasgraph.New()
	obj1, obj2 := mkNode(g, "p"), mkNode(g, "q")
	tr := NewTracker([]Checker{NewNPD()}, nil)
	tr.setState(0, obj1, npdN)
	tr.SetProp(0, obj1, "k", 7)

	m := tr.Checkpoint()
	mutate := func() {
		tr.SetProp(0, obj1, "k", 9) // prop overwrite
		tr.setState(0, obj1, npdS0) // state overwrite
		tr.setState(0, obj2, npdN)
	}
	mutate()
	if tr.PropOf(0, obj1, "k") != 9 || tr.StateOf(0, obj1) != npdS0 || tr.StateOf(0, obj2) != npdN {
		t.Fatal("mutations not visible")
	}
	tr.Rollback(m)
	if got := tr.PropOf(0, obj1, "k"); got != 7 {
		t.Errorf("prop after rollback = %d, want 7", got)
	}
	if got := tr.StateOf(0, obj1); got != npdN {
		t.Errorf("obj1 state after rollback = %s, want %s", got, npdN)
	}
	if got := tr.ObjectsInState(0, npdN); len(got) != 1 || got[0] != obj1 {
		t.Errorf("objects in %s after rollback = %v, want only obj1", npdN, got)
	}
	mutate()
	if tr.PropOf(0, obj1, "k") != 9 || tr.StateOf(0, obj1) != npdS0 || tr.StateOf(0, obj2) != npdN {
		t.Error("replayed mutations not visible")
	}
}

func TestObjectsInState(t *testing.T) {
	g := aliasgraph.New()
	tr := NewTracker([]Checker{NewML()}, nil)
	in := &cir.Store{}
	a, b := mkNode(g, "a"), mkNode(g, "b")
	tr.Apply(0, Emission{Obj: a, Event: evMalloc, Instr: in})
	tr.Apply(0, Emission{Obj: b, Event: evMalloc, Instr: in})
	tr.Apply(0, Emission{Obj: b, Event: evFree, Instr: in})
	nf := tr.ObjectsInState(0, mlNF)
	if len(nf) != 1 || nf[0] != a {
		t.Errorf("ObjectsInState(S_NF) = %v", nf)
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

	facts := BranchFacts(br, true)
	if len(facts) != 1 || facts[0].Pred != cir.PredEQ || facts[0].Val != p {
		t.Fatalf("taken facts = %+v", facts)
	}
	facts = BranchFacts(br, false)
	if len(facts) != 1 || facts[0].Pred != cir.PredNE {
		t.Fatalf("not-taken facts = %+v", facts)
	}
	// Constant on the left gets the swapped predicate.
	cmp2 := &cir.Cmp{Dst: &cir.Register{Name: "c2", Typ: cir.I1}, Pred: cir.PredLT, X: cir.IntConst(cir.I64, 0), Y: p}
	cmp2.Dst.Def = cmp2
	br2 := &cir.CondBr{Cond: cmp2.Dst, True: blkT, False: blkF}
	facts = BranchFacts(br2, true) // 0 < p  =>  p > 0
	if len(facts) != 1 || facts[0].Pred != cir.PredGT {
		t.Fatalf("swapped facts = %+v", facts)
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
	events := []Event{evBrNull, evBrNonNull, evAssNull, evDeref}
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
			if tr.StateOf(0, obj) != npdS0 {
				return false
			}
		}
		return len(tr.ObjectsInState(0, npdN)) == 0
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
			tr.Apply(0, Emission{Obj: g.NodeOf(base), Event: evBrNull, Instr: in})
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
	checkers := AllCheckers()
	for _, r := range CommonPairRules() {
		checkers = append(checkers, NewPair(r))
	}
	for _, c := range checkers {
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
