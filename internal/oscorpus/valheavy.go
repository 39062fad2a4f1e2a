package oscorpus

import (
	"repro/internal/typestate"
)

// Validation-heavy cluster shapes: each emission is one entry function whose
// Stage-1 exploration is trivial (few branches, so every syntactic path
// reaches Stage 2 cheaply) but whose candidate set hammers the Stage-2
// solver. Same-entry candidates share long path-condition prefixes, the
// access pattern the batched prefix-sharing validator exists for: a fan of
// contradictory arms under one shared dead guard is refuted with a handful of
// cursor pushes instead of one full solve per arm, while the feasible ladders
// check that fallback solves stay byte-identical. Real-OS precedent: probe
// functions whose error ladder re-tests a mode word a register read already
// constrained, and option fans where one config guard dominates many arms.
//
// Every shape returns its seeded bugs (sat — the deref really happens) and
// traps (unsat — the guard chain is contradictory, a path-validating tool
// must drop them) so corpus scoring stays mechanical.
var validationShapes = []func(tc *templateCtx) ([]GroundTruth, []Trap){
	// Shared-guard unsat fan: the null assignment needs n > K, the fan
	// guard needs n < k < K, so one contradiction kills all four arms. The
	// batch screen refutes the subtree at the second push; the
	// per-candidate path pays four full solves.
	func(tc *templateCtx) ([]GroundTruth, []Trap) {
		f := tc.f
		n := tc.id("opt_fan")
		st := tc.id("optdev")
		hi := 100 + tc.rng.Intn(50)
		lo := 5 + tc.rng.Intn(20)
		f.w("struct %s { int a; int b; int c; int d; };", st)
		f.w("static int %s(struct %s *p, int n, int mode) {", n, st)
		f.w("\tint rc = 0;")
		f.w("\tif (n > %d)", hi)
		f.w("\t\tp = NULL;")
		f.w("\tif (n < %d) {", lo)
		f.w("\t\tif (mode & 1)")
		l0 := f.w("\t\t\trc = rc + p->a;")
		f.w("\t\tif (mode & 2)")
		l1 := f.w("\t\t\trc = rc + p->b;")
		f.w("\t\tif (mode & 4)")
		l2 := f.w("\t\t\trc = rc + p->c;")
		f.w("\t\tif (mode & 8)")
		l3 := f.w("\t\t\trc = rc + p->d;")
		f.w("\t}")
		f.w("\treturn rc;")
		f.w("}")
		f.blank()
		var ts []Trap
		for _, l := range []int{l0, l1, l2, l3} {
			ts = append(ts, Trap{Type: typestate.NPD, File: f.name, Line: l, Category: tc.category, Mechanism: "shared-guard-fan"})
		}
		return nil, ts
	},
	// Deep error-path ladder, feasible: the null-checked pointer is
	// dereferenced at three rungs of a nested threshold ladder. All three
	// are real bugs with one long shared prefix but DISTINCT trailing
	// atoms, so the verdict cache cannot collapse them and each one pays a
	// full solve in per-candidate mode; in batched mode they exercise the
	// screen-then-fall-back path that must keep verdicts, witness models
	// and triggers byte-identical.
	func(tc *templateCtx) ([]GroundTruth, []Trap) {
		f := tc.f
		n := tc.id("ladder")
		st := tc.id("lddev")
		base := 4 + tc.rng.Intn(4)
		f.w("struct %s { int a; int b; int c; };", st)
		f.w("static int %s(struct %s *d, int n, int mode) {", n, st)
		f.w("\tint rc = 0;")
		f.w("\tif (d == NULL)")
		f.w("\t\trc = -22;")
		f.w("\tif (n > %d) {", base)
		f.w("\t\trc = rc + 1;")
		f.w("\t\tif (n > %d) {", base+4)
		f.w("\t\t\trc = rc + 2;")
		f.w("\t\t\tif (n > %d) {", base+8)
		f.w("\t\t\t\tif (mode > n)")
		l0 := f.w("\t\t\t\t\trc = rc + d->a;")
		l1 := f.w("\t\t\t\trc = rc + d->b;")
		f.w("\t\t\t}")
		l2 := f.w("\t\t\trc = rc + d->c;")
		f.w("\t\t}")
		f.w("\t}")
		f.w("\treturn rc;")
		f.w("}")
		f.blank()
		var gs []GroundTruth
		for _, l := range []int{l0, l1, l2} {
			gs = append(gs, GroundTruth{Type: typestate.NPD, File: f.name, Line: l, Category: tc.category})
		}
		return gs, nil
	},
	// Mixed fan: one shared guard dominates a feasible arm AND two
	// contradictory ones, so one batch carries screened leaves and
	// fallback leaves side by side — the composition the equivalence
	// tests care most about.
	func(tc *templateCtx) ([]GroundTruth, []Trap) {
		f := tc.f
		n := tc.id("route")
		st := tc.id("rtdev")
		k := 60 + tc.rng.Intn(20)
		f.w("struct %s { int a; int b; int c; };", st)
		f.w("static int %s(struct %s *q, int n) {", n, st)
		f.w("\tint rc = 0;")
		f.w("\tif (n > %d)", k)
		f.w("\t\tq = NULL;")
		f.w("\tif (n > %d) {", k+36)
		f.w("\t\tif (n < %d)", k+16)
		l0 := f.w("\t\t\trc = rc + q->a;")
		l1 := f.w("\t\trc = rc + q->b;")
		f.w("\t}")
		f.w("\tif (n < %d)", k-20)
		l2 := f.w("\t\trc = rc + q->c;")
		f.w("\treturn rc;")
		f.w("}")
		f.blank()
		gs := []GroundTruth{{Type: typestate.NPD, File: f.name, Line: l1, Category: tc.category}}
		ts := []Trap{
			{Type: typestate.NPD, File: f.name, Line: l0, Category: tc.category, Mechanism: "shared-guard-fan"},
			{Type: typestate.NPD, File: f.name, Line: l2, Category: tc.category, Mechanism: "shared-guard-fan"},
		}
		return gs, ts
	},
	// Wide fan under a deep dead prefix: three nested guards narrow n
	// upward before a contradictory cap, then five arms fan out below it.
	// The screen pays four pushes for the whole cluster; per-candidate
	// validation pays five full solves that each re-derive the same
	// bounds.
	func(tc *templateCtx) ([]GroundTruth, []Trap) {
		f := tc.f
		n := tc.id("probe_fan")
		st := tc.id("pfdev")
		base := 200 + tc.rng.Intn(40)
		f.w("struct %s { int a; int b; int c; int d; int e; };", st)
		f.w("static int %s(struct %s *q, int n, int mode) {", n, st)
		f.w("\tint rc = 0;")
		f.w("\tif (n > %d)", base)
		f.w("\t\tq = NULL;")
		f.w("\tif (n > %d) {", base+10)
		f.w("\t\tif (n > %d) {", base+20)
		f.w("\t\t\tif (n < %d) {", base-100)
		f.w("\t\t\t\tif (mode & 1)")
		l0 := f.w("\t\t\t\t\trc = rc + q->a;")
		f.w("\t\t\t\tif (mode & 2)")
		l1 := f.w("\t\t\t\t\trc = rc + q->b;")
		f.w("\t\t\t\tif (mode & 4)")
		l2 := f.w("\t\t\t\t\trc = rc + q->c;")
		f.w("\t\t\t\tif (mode & 8)")
		l3 := f.w("\t\t\t\t\trc = rc + q->d;")
		f.w("\t\t\t\tif (mode & 16)")
		l4 := f.w("\t\t\t\t\trc = rc + q->e;")
		f.w("\t\t\t}")
		f.w("\t\t}")
		f.w("\t}")
		f.w("\treturn rc;")
		f.w("}")
		f.blank()
		var ts []Trap
		for _, l := range []int{l0, l1, l2, l3, l4} {
			ts = append(ts, Trap{Type: typestate.NPD, File: f.name, Line: l, Category: tc.category, Mechanism: "shared-guard-fan"})
		}
		return nil, ts
	},
}

// ValidationHeavySpec is the dedicated Stage-2 workload corpus: clusters of
// same-entry candidates with long shared path-condition prefixes dominate,
// with a sprinkle of ordinary bugs and traps so the post-validation bug
// report the equivalence tests compare is shaped like the other corpora. It
// is not part of AllSpecs — the Table 4/5 experiments keep the paper's four
// OSes — and is consumed by the validation bench and the batching tests.
func ValidationHeavySpec() OSSpec {
	return OSSpec{
		Name: "validate-heavy", Version: "1.0", Seed: 9901,
		AllocFn: "kmalloc", FreeFn: "kfree",
		Cats: []CatSpec{
			{
				Name: "drivers", Files: 3, Filler: 8, Validation: 24,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 3, typestate.ML: 1},
				Traps: map[string]int{"guarded": 2, "infeasible-const": 1},
			},
		},
	}
}
