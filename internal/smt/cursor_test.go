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

// TestCursorRollbackRestoresExactly re-runs the same push sequence after a
// rollback and checks the verdicts repeat, i.e. the trail restores union-find
// attachments, intervals, and the stored (dis)equality lists exactly.
func TestCursorRollbackRestoresExactly(t *testing.T) {
	ctx := NewContext()
	c := NewCursor(ctx)
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")

	seq := []*Atom{
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
