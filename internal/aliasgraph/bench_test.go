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
