package smt

import "testing"

func TestCursorEqualityConflict(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y := ctx.Var("x"), ctx.Var("y")

	m := c.Checkpoint()
	if got := c.Push(Eq(x, Int(3))); got != Sat {
		t.Fatalf("x==3: got %v, want Sat", got)
	}
	if got := c.Push(Eq(y, Int(4))); got != Sat {
		t.Fatalf("y==4: got %v, want Sat", got)
	}
	if got := c.Push(Eq(x, y)); got != Unsat {
		t.Fatalf("x==y under x==3,y==4: got %v, want Unsat", got)
	}
	c.Rollback(m)
	if got := c.Push(Eq(x, y)); got != Sat {
		t.Fatalf("x==y after rollback: got %v, want Sat", got)
	}
}

func TestCursorIntervalNarrowing(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x := ctx.Var("x")

	if got := c.Push(Eq(x, Int(5))); got != Sat {
		t.Fatalf("x==5: got %v", got)
	}
	m := c.Checkpoint()
	if got := c.Push(Lt(x, Int(3))); got != Unsat {
		t.Fatalf("x<3 under x==5: got %v, want Unsat", got)
	}
	c.Rollback(m)
	if got := c.Push(Lt(x, Int(10))); got != Sat {
		t.Fatalf("x<10 under x==5: got %v, want Sat", got)
	}
	if got := c.Push(Ge(x, Int(5))); got != Sat {
		t.Fatalf("x>=5 under x==5: got %v, want Sat", got)
	}
}

func TestCursorUnionOffsets(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")

	// x = y + 1, y = z, so x = z + 1; asserting x == z must refute.
	if got := c.Push(Eq(x, Add(y, Int(1)))); got != Sat {
		t.Fatalf("x==y+1: got %v", got)
	}
	if got := c.Push(Eq(y, z)); got != Sat {
		t.Fatalf("y==z: got %v", got)
	}
	m := c.Checkpoint()
	if got := c.Push(Eq(x, z)); got != Unsat {
		t.Fatalf("x==z under x==z+1: got %v, want Unsat", got)
	}
	c.Rollback(m)
	if got := c.Push(Eq(x, Add(z, Int(1)))); got != Sat {
		t.Fatalf("x==z+1 (consistent) after rollback: got %v, want Sat", got)
	}
}

func TestCursorDisequalitySingleton(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x := ctx.Var("x")

	if got := c.Push(Ne(x, Int(0))); got != Sat {
		t.Fatalf("x!=0 alone: got %v", got)
	}
	// Collapsing x to the excluded value must refute, in either order.
	if got := c.Push(Eq(x, Int(0))); got != Unsat {
		t.Fatalf("x==0 under x!=0: got %v, want Unsat", got)
	}
}

func TestCursorBoolLitAndNestedAnd(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y := ctx.Var("x"), ctx.Var("y")

	m := c.Checkpoint()
	if got := c.Push(And(Eq(x, Int(1)), Eq(y, Int(2)), Eq(x, y))); got != Unsat {
		t.Fatalf("conjunction with embedded conflict: got %v, want Unsat", got)
	}
	c.Rollback(m)
	if got := c.Push(False); got != Unsat {
		t.Fatalf("false literal: got %v, want Unsat", got)
	}
	c.Rollback(m)
	if got := c.Push(True); got != Sat {
		t.Fatalf("true literal: got %v, want Sat", got)
	}
}

// TestCursorRollbackRestoresExactly re-runs the same push sequence after a
// rollback and checks the verdicts repeat, i.e. the trail restores union-find
// attachments, intervals, and the stored (dis)equality lists exactly.
func TestCursorRollbackRestoresExactly(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")

	seq := []Formula{
		Eq(x, Add(y, Int(2))),
		Le(y, Int(10)),
		Gt(z, Int(0)),
		Eq(z, y),
		Lt(x, Int(2)), // y < 0 combined with z = y > 0: unsat
	}
	run := func() []Result {
		m := c.Checkpoint()
		var got []Result
		for _, f := range seq {
			got = append(got, c.Push(f))
		}
		c.Rollback(m)
		return got
	}
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("push %d: first run %v, second run %v", i, first[i], second[i])
		}
	}
	if first[len(first)-1] != Unsat {
		t.Fatalf("final push: got %v, want Unsat", first[len(first)-1])
	}
	if len(c.trail) != 0 || len(c.ineqs) != 0 || len(c.diseqs) != 0 || c.unsat {
		t.Fatalf("cursor not fully rolled back: trail=%d ineqs=%d diseqs=%d unsat=%v",
			len(c.trail), len(c.ineqs), len(c.diseqs), c.unsat)
	}
}

// TestCursorSoundnessSubset checks the cursor's soundness contract on a grid
// of atom sequences: whenever the cursor answers Unsat for a prefix, the
// batch solver must also answer Unsat for the same conjunction. (The
// converse need not hold — the cursor may answer Sat where the batch solver
// proves Unsat.)
func TestCursorSoundnessSubset(t *testing.T) {
	mkAtoms := func(ctx *Context) [][]Formula {
		x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
		return [][]Formula{
			{Eq(x, Int(0)), Ne(x, Int(0))},
			{Lt(x, y), Lt(y, z), Lt(z, x)},
			{Eq(x, Add(y, Int(5))), Le(x, Int(3)), Ge(y, Int(0))},
			{Ge(x, Int(1)), Le(x, Int(1)), Ne(x, Int(1))},
			{Eq(Mul(x, Int(2)), Int(7)), Ge(x, Int(0))},
			{Eq(x, y), Eq(y, z), Ne(x, z)},
			{Gt(Add(x, y), Int(10)), Le(x, Int(2)), Le(y, Int(2))},
			{Eq(x, Int(-3)), Gt(x, Int(0))},
		}
	}
	for si, seq := range mkAtoms(NewContext()) {
		// Fresh context per sequence so cursor and solver agree on var IDs.
		ctx := NewContext()
		seq = mkAtoms(ctx)[si]
		c := NewCursor(ctx)
		s := NewSolver(ctx)
		var prefix []Formula
		for ai, f := range seq {
			prefix = append(prefix, f)
			res := c.Push(f)
			if res != Unsat {
				continue
			}
			batch := s.Solve(And(prefix...))
			if batch != Unsat {
				t.Errorf("seq %d atom %d: cursor Unsat but batch solver says %v", si, ai, batch)
			}
		}
	}
}

func TestCursorStatsCounters(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x := ctx.Var("x")
	c.Push(Eq(x, Int(1)))
	c.Push(Eq(x, Int(2)))
	if c.Pushes != 2 {
		t.Fatalf("Pushes = %d, want 2", c.Pushes)
	}
	if c.Unsats != 1 {
		t.Fatalf("Unsats = %d, want 1", c.Unsats)
	}
}
