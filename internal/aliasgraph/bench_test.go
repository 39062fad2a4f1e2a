package aliasgraph

import (
	"testing"

	"repro/internal/cir"
)

// numberedRegs returns n pointer registers of a function a module numbered,
// which a graph keeps in its value-ID table, as it does the engine's.
func numberedRegs(n int) []cir.Value {
	m := cir.NewModule("m")
	fn := m.NewFunction("f", &cir.FuncType{Result: cir.Void})
	vars := make([]cir.Value, n)
	for i := range vars {
		vars[i] = fn.AddParam("v", cir.PointerTo(cir.I64))
	}
	m.AssignGIDs()
	return vars
}

// BenchmarkUpdateRules measures the four Figure 5 operations plus rollback,
// the inner loop of the path DFS.
func BenchmarkUpdateRules(b *testing.B) {
	g := New()
	vars := numberedRegs(64)
	for _, v := range vars {
		g.NodeOf(v)
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
	vars := numberedRegs(32)
	for _, v := range vars {
		g.NodeOf(v)
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
	vars := numberedRegs(9)
	cur := vars[0]
	for _, next := range vars[1:] {
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
