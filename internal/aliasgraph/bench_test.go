package aliasgraph

import (
	"testing"

	"repro/internal/cir"
)

// BenchmarkUpdateRules measures the four Figure 5 operations plus rollback,
// the inner loop of the path DFS.
func BenchmarkUpdateRules(b *testing.B) {
	g := New()
	vars := make([]cir.Value, 64)
	for i := range vars {
		vars[i] = &cir.Register{ID: i, Name: "v", Typ: cir.PointerTo(cir.I64)}
		g.NodeOf(vars[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := g.Checkpoint()
		for j := 0; j+3 < len(vars); j += 4 {
			g.Move(vars[j], vars[j+1])
			g.Store(vars[j+1], vars[j+2])
			g.Load(vars[j+2], vars[j+1])
			g.GEP(vars[j+3], vars[j], FieldLabel("f"))
		}
		g.Rollback(m)
	}
}

// BenchmarkCheckpointRollback measures trail overhead for deep nesting, the
// branch-heavy DFS pattern.
func BenchmarkCheckpointRollback(b *testing.B) {
	g := New()
	vars := make([]cir.Value, 32)
	for i := range vars {
		vars[i] = &cir.Register{ID: i, Name: "v", Typ: cir.PointerTo(cir.I64)}
		g.NodeOf(vars[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marks := make([]Mark, 0, 16)
		for d := 0; d < 16; d++ {
			marks = append(marks, g.Checkpoint())
			g.Move(vars[d], vars[d+1])
		}
		for d := len(marks) - 1; d >= 0; d-- {
			g.Rollback(marks[d])
		}
	}
}

// canonBenchGraph builds a graph shaped like a deep DFS state: many bound
// variables, chains of field edges, and a small relevant subset — the shape
// where the seeded canonicalization should beat the full scan.
func canonBenchGraph() (*Graph, []cir.Value) {
	g := New()
	vars := make([]cir.Value, 256)
	for i := range vars {
		vars[i] = &cir.Register{ID: i, Name: "v", Typ: cir.PointerTo(cir.I64)}
		g.NodeOf(vars[i])
	}
	for i := 0; i+1 < len(vars); i += 2 {
		g.GEP(vars[i+1], vars[i], FieldLabel("f"))
	}
	for i := 0; i+4 < len(vars); i += 4 {
		g.Store(vars[i], vars[i+2])
	}
	// A 16-variable relevant slice, as a join-point memo key would see.
	return g, vars[:16]
}

// BenchmarkCanonState compares the two canonicalization paths the engine
// chooses between when computing memo keys: the full CanonState
// scan (filter every variable, fixpoint over every node) and the
// seed-restricted CanonStateSeeded walk. The seeded path is the default;
// its allocs/op must stay at zero so join-heavy entries don't churn.
func BenchmarkCanonState(b *testing.B) {
	g, relevant := canonBenchGraph()
	rel := make(map[cir.Value]bool, len(relevant))
	for _, v := range relevant {
		rel[v] = true
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d, _ := g.CanonState(func(v cir.Value) bool { return rel[v] }); d == 0 {
				b.Fatal("zero digest")
			}
		}
	})
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d, _ := g.CanonStateSeeded(relevant); d == 0 {
				b.Fatal("zero digest")
			}
		}
	})
}

// TestCanonStateSeededSteadyStateAllocs guards the seeded path's hot-loop
// allocation behavior: after scratch warm-up, a digest query must not
// allocate (the engine runs one per CFG join it enters).
func TestCanonStateSeededSteadyStateAllocs(t *testing.T) {
	g, relevant := canonBenchGraph()
	g.CanonStateSeeded(relevant) // warm the scratch maps/slices
	if avg := testing.AllocsPerRun(100, func() { g.CanonStateSeeded(relevant) }); avg > 0 {
		t.Errorf("CanonStateSeeded allocates %.1f/op in steady state, want 0", avg)
	}
}

// BenchmarkAccessPaths measures alias-set extraction for reporting.
func BenchmarkAccessPaths(b *testing.B) {
	g := New()
	base := &cir.Register{ID: 0, Name: "base", Typ: cir.PointerTo(cir.I64)}
	cur := cir.Value(base)
	for i := 1; i <= 8; i++ {
		next := &cir.Register{ID: i, Name: "n", Typ: cir.PointerTo(cir.I64)}
		g.GEP(next, cur, FieldLabel("f"))
		cur = next
	}
	target := g.Lookup(cur)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := g.AccessPaths(target, 3); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
