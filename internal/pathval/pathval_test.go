package pathval

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/smt"
	"repro/internal/typestate"
)

// analyze runs Stage 1 only and returns candidates plus a validator.
func analyze(t *testing.T, src string, mode core.Mode) ([]*core.PossibleBug, *Validator) {
	t.Helper()
	mod, err := minicc.LowerAll("m", map[string]string{"t.c": src})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	res := core.RunParallel(mod, core.Config{Mode: mode}, 1)
	return res.Possible, New()
}

const infeasibleSrc = `
struct s { int f; };
void func(struct s *p, char *q) {
	struct s *t;
	if (q == 0)
		p->f = 0;
	t = p;
	if (t->f != 0) {
		if (q == 0)
			use(*q);
	}
}`

func TestInfeasiblePathUnsatAware(t *testing.T) {
	cands, v := analyze(t, infeasibleSrc, core.ModePATA)
	var target *core.PossibleBug
	for _, pb := range cands {
		if pb.BugInstr.Position().Line == 10 {
			target = pb
		}
	}
	if target == nil {
		t.Fatalf("stage 1 did not produce the candidate; got %d candidates", len(cands))
	}
	out := v.validateSingle(context.Background(), target, core.ModePATA)
	if out.Feasible {
		t.Error("alias-aware validation should prove the path infeasible")
	}
	if out.Constraints == 0 || out.ConstraintsUnaware <= out.Constraints {
		t.Errorf("constraint counts: aware=%d unaware=%d", out.Constraints, out.ConstraintsUnaware)
	}
}

func TestFeasiblePathKept(t *testing.T) {
	cands, v := analyze(t, `
struct s { int f; };
int func(struct s *p) {
	if (!p)
		return p->f;
	return 0;
}`, core.ModePATA)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	out := v.validateSingle(context.Background(), cands[0], core.ModePATA)
	if !out.Feasible {
		t.Error("feasible NPD path must be kept")
	}
}

func TestContradictingGuardsDropped(t *testing.T) {
	// x is set to 3 and then tested against 5: the deref is dead code.
	cands, v := analyze(t, `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
}`, core.ModePATA)
	unsat := 0
	for _, pb := range cands {
		out := v.validateSingle(context.Background(), pb, core.ModePATA)
		if out.Feasible {
			t.Errorf("candidate at %s survived although x==5 contradicts x=3", pb.BugInstr.Position())
		} else {
			unsat++
		}
	}
	if unsat == 0 {
		t.Error("expected unsat verdicts")
	}
}

func TestArithmeticPathConstraint(t *testing.T) {
	// y = x + 1; x > 0 makes y == 0 impossible; the guarded deref is dead.
	cands, v := analyze(t, `
void func(char *p, int x) {
	int y;
	if (x > 0) {
		y = x + 1;
		if (y == 0) {
			if (!p)
				use(*p);
		}
	}
}`, core.ModePATA)
	dropped := 0
	for _, pb := range cands {
		if !v.validateSingle(context.Background(), pb, core.ModePATA).Feasible {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("arithmetic contradiction not detected")
	}
}

func TestNAValidationMissesAliasContradiction(t *testing.T) {
	// Two distinct candidates reach line 10 (one per direction of the first
	// branch). The q!=0/q==0 path is refutable even without aliasing, but
	// the alias-dependent one (q==0 taken, then t->f != 0 vs p->f = 0) must
	// survive NA validation — that is the Figure 9(b) false positive.
	cands, _ := analyze(t, infeasibleSrc, core.ModeNoAlias)
	v := New()
	kept := 0
	seen := 0
	for _, pb := range cands {
		if pb.BugInstr.Position().Line != 10 {
			continue
		}
		seen++
		if v.validateSingle(context.Background(), pb, core.ModeNoAlias).Feasible {
			kept++
		}
	}
	if seen == 0 {
		t.Fatal("NA stage 1 produced no candidate at line 10")
	}
	if kept == 0 {
		t.Error("NA validation should keep the alias-dependent false positive (Figure 9b)")
	}
}

func TestValidatorStats(t *testing.T) {
	cands, v := analyze(t, `
struct s { int f; };
int func(struct s *p) {
	if (!p)
		return p->f;
	return 0;
}`, core.ModePATA)
	var queries int64
	for _, pb := range cands {
		out := v.validateSingle(context.Background(), pb, core.ModePATA)
		queries += out.CacheHits + out.CacheMisses
	}
	if queries != int64(len(cands)) || queries == 0 {
		t.Errorf("queries = %d, candidates = %d", queries, len(cands))
	}
}

func TestInstallWiresConfig(t *testing.T) {
	var cfg core.Config
	v := New()
	v.Install(&cfg)
	if cfg.ValidateBatch == nil {
		t.Error("Install must enable validation")
	}
}

func TestExtraConstraintDecides(t *testing.T) {
	// AIU with a non-negative guard: index_use still emits inside the
	// guarded region, but the extra constraint i < 0 conflicts with the
	// path constraint i >= 10, so validation drops it.
	mod, err := minicc.LowerAll("m", map[string]string{"t.c": `
int pick(int *a, int i) {
	if (i >= 10)
		return a[i];
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: []typestate.Checker{typestate.NewAIU()}}, 1)
	v := New()
	for _, pb := range res.Possible {
		if pb.Extra == nil {
			continue
		}
		if v.validateSingle(context.Background(), pb, core.ModePATA).Feasible {
			t.Errorf("i >= 10 path with i < 0 extra constraint kept at %s", pb.BugInstr.Position())
		}
	}
}

func TestTriggerValues(t *testing.T) {
	cands, v := analyze(t, `
struct s { int f; };
int func(struct s *p, int n) {
	if (n > 5) {
		if (!p)
			return p->f;
	}
	return 0;
}`, core.ModePATA)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var got []string
	for _, pb := range cands {
		out := v.validateSingle(context.Background(), pb, core.ModePATA)
		if out.Feasible {
			got = out.Trigger
		}
	}
	joined := strings.Join(got, "; ")
	// The witness must set p to NULL and n above 5.
	if !strings.Contains(joined, "p = 0") {
		t.Errorf("trigger should pin p to NULL: %v", got)
	}
	if !strings.Contains(joined, "n = 6") {
		t.Errorf("trigger should pick the smallest n above the guard: %v", got)
	}
}

func TestAltPathsRescueFeasibleBug(t *testing.T) {
	// The first-recorded witness for the (origin, bug) pair is infeasible
	// (x==3 vs x==5), but an alternate witness is feasible; validation must
	// keep the bug by trying the alternates.
	cands, v := analyze(t, `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
	if (!p)
		use(*p);
}`, core.ModePATA)
	kept := false
	for _, pb := range cands {
		if v.validateSingle(context.Background(), pb, core.ModePATA).Feasible {
			kept = true
		}
	}
	if !kept {
		t.Error("the feasible second witness should keep the bug")
	}
}

// TestAltWitnessCountersFold: when an infeasible primary hands over to an
// alternate witness, the per-candidate outcome must carry the alternate's
// counters too — a one-entry cache evicts the previous witness's verdict
// each time the next one's is stored, and every such eviction must reach
// the outcome.
func TestAltWitnessCountersFold(t *testing.T) {
	cands, v := analyze(t, `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
	if (!p)
		use(*p);
}`, core.ModePATA)
	v.cacheShards = 1
	v.maxCacheEntries = 1
	var target *core.PossibleBug
	for _, pb := range cands {
		if len(pb.AltPaths) > 0 {
			target = pb
		}
	}
	if target == nil {
		t.Fatal("no candidate with an alternate witness")
	}
	out := v.validateSingle(context.Background(), target, core.ModePATA)
	if !out.Feasible || out.CacheMisses < 2 {
		t.Fatalf("outcome %+v: want a feasible alternate after an infeasible primary", out)
	}
	if out.CacheEvictions != out.CacheMisses-1 {
		t.Errorf("outcome counts %d evictions over %d solves, want one per solve after the first",
			out.CacheEvictions, out.CacheMisses)
	}
}

func TestStringArgumentsOpaque(t *testing.T) {
	// String literals become opaque symbols; paths through logging calls
	// stay feasible.
	cands, v := analyze(t, `
struct s { int f; };
int func(struct s *p) {
	if (!p) {
		log_err("device %s gone", "eth0");
		return p->f;
	}
	return 0;
}`, core.ModePATA)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, pb := range cands {
		if !v.validateSingle(context.Background(), pb, core.ModePATA).Feasible {
			t.Error("logging call must not poison feasibility")
		}
	}
}

func TestBitwiseGuardConstraint(t *testing.T) {
	// flags & 4 is non-linear-ish (opaque), but the same opaque term used
	// twice must be consistent: (flags&4)!=0 and (flags&4)==0 conflict.
	cands, v := analyze(t, `
void func(char *p, int flags) {
	if (flags & 4) {
		if ((flags & 4) == 0) {
			if (!p)
				use(*p);
		}
	}
}`, core.ModePATA)
	for _, pb := range cands {
		if v.validateSingle(context.Background(), pb, core.ModePATA).Feasible {
			t.Error("contradictory bitwise guards kept (congruence should refute)")
		}
	}
}

func TestVerdictCacheHitIdenticalOutcome(t *testing.T) {
	// Re-validating a candidate must serve every solve from the verdict
	// cache and still return a byte-identical outcome — same feasibility,
	// same constraint counts, and the same trigger values (the cached model
	// is the model of the first solve).
	sources := map[string]string{
		"feasible-with-trigger": `
struct s { int f; };
int func(struct s *p, int n) {
	if (n > 5) {
		if (!p)
			return p->f;
	}
	return 0;
}`,
		"infeasible-with-alts": `
void func(char *p) {
	int x = 3;
	if (x == 5) {
		if (!p)
			use(*p);
	}
	if (!p)
		use(*p);
}`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			cands, v := analyze(t, src, core.ModePATA)
			if len(cands) == 0 {
				t.Fatal("no candidates")
			}
			var hits int64
			for _, pb := range cands {
				cold := v.validateSingle(context.Background(), pb, core.ModePATA)
				if cold.CacheMisses == 0 {
					t.Errorf("%s: first validation should miss the cache", pb.BugInstr.Position())
				}
				warm := v.validateSingle(context.Background(), pb, core.ModePATA)
				if warm.CacheHits != cold.CacheMisses || warm.CacheMisses != 0 {
					t.Errorf("%s: revalidation should be all cache hits: cold misses=%d, warm hits=%d misses=%d",
						pb.BugInstr.Position(), cold.CacheMisses, warm.CacheHits, warm.CacheMisses)
				}
				hits += warm.CacheHits
				cold.CacheHits, cold.CacheMisses = 0, 0
				warm.CacheHits, warm.CacheMisses = 0, 0
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("%s: cache-hit outcome differs:\ncold: %+v\nwarm: %+v",
						pb.BugInstr.Position(), cold, warm)
				}
			}
			if hits == 0 {
				t.Error("revalidation never hit the verdict cache")
			}
		})
	}
}

func TestFeasibleVerdictConservative(t *testing.T) {
	// Only a proven Unsat drops a candidate. Unknown — which the solver
	// returns when a deadline or cancellation interrupts it — must keep
	// it: an interrupted solve proves nothing.
	if FeasibleVerdict(smt.Unsat) {
		t.Error("Unsat must be infeasible")
	}
	if !FeasibleVerdict(smt.Sat) {
		t.Error("Sat must be feasible")
	}
	if !FeasibleVerdict(smt.Unknown) {
		t.Error("Unknown (an interrupted solve) must stay feasible")
	}
}

func TestVerdictCacheConcurrentSingleflight(t *testing.T) {
	// Concurrent validations of the same candidate must solve each distinct
	// constraint system exactly once: total misses equal one sequential cold
	// pass, everything else hits, and every goroutine sees the same outcome.
	cands, v := analyze(t, infeasibleSrc, core.ModePATA)
	var target *core.PossibleBug
	for _, pb := range cands {
		if pb.BugInstr.Position().Line == 10 {
			target = pb
		}
	}
	if target == nil {
		t.Fatal("stage 1 did not produce the candidate")
	}
	coldMisses := New().validateSingle(context.Background(), target, core.ModePATA).CacheMisses

	const n = 16
	outs := make([]core.ValidationOutcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = v.validateSingle(context.Background(), target, core.ModePATA)
		}(i)
	}
	wg.Wait()
	var hits, misses int64
	for _, out := range outs {
		hits += out.CacheHits
		misses += out.CacheMisses
	}
	if misses != coldMisses {
		t.Errorf("distinct systems solved %d times, want %d", misses, coldMisses)
	}
	if hits != int64(n)*coldMisses-coldMisses {
		t.Errorf("CacheHits = %d, want %d", hits, int64(n)*coldMisses-coldMisses)
	}
	for i := 1; i < n; i++ {
		a, b := outs[0], outs[i]
		a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses = 0, 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("goroutine %d outcome differs: %+v vs %+v", i, outs[0], outs[i])
		}
	}
}

// TestInterruptedVerdictNotMemoized pins the verdict-cache soundness rule:
// an Unknown produced by deadline/cancellation pressure is a timing
// artifact and must be evicted, so the same constraint system re-solves
// (and memoizes properly) once the pressure is gone.
func TestInterruptedVerdictNotMemoized(t *testing.T) {
	v := New()
	ctx := smt.NewContext()
	x := ctx.Var("x")
	f := []*smt.Atom{smt.Gt(x, smt.Int(0)), smt.Lt(x, smt.Int(10))}

	done := make(chan struct{})
	close(done)
	res, _, hit, interrupted, _ := v.solveCached(ctx, f, time.Time{}, done)
	if res != smt.Unknown || hit || !interrupted {
		t.Fatalf("pressured solve = (%v, hit=%v, interrupted=%v), want uncached interrupted unknown", res, hit, interrupted)
	}

	// Pressure removed: the key must re-solve, not replay the Unknown.
	res, _, hit, interrupted, _ = v.solveCached(ctx, f, time.Time{}, nil)
	if res != smt.Sat || hit || interrupted {
		t.Fatalf("re-solve = (%v, hit=%v, interrupted=%v), want fresh sat", res, hit, interrupted)
	}

	// And the clean verdict memoizes as usual.
	res, _, hit, _, _ = v.solveCached(ctx, f, time.Time{}, nil)
	if res != smt.Sat || !hit {
		t.Fatalf("third solve = (%v, hit=%v), want cached sat", res, hit)
	}
}

// TestVerdictCacheKeysByAtomOrder pins the verdict cache's ordered key.
// The atom order fixes the solver's union-find roots and with them the
// witness model, so the same atoms in another order are another entry: a
// hit must return exactly the model a cold solve of the same atoms in the
// same order finds.
func TestVerdictCacheKeysByAtomOrder(t *testing.T) {
	v := New()
	ctx := smt.NewContext()
	x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
	xy := smt.Eq(x, smt.Add(y, smt.Int(1)))
	xz := smt.Eq(x, z)
	orders := [][]*smt.Atom{{xy, xz}, {xz, xy}}
	var models []smt.Model
	for i, atoms := range orders {
		res, model, hit, _, _ := v.solveCached(ctx, atoms, time.Time{}, nil)
		if res != smt.Sat || hit {
			t.Fatalf("order %d: (%v, hit=%v), want an uncached sat", i, res, hit)
		}
		_, cold := smt.NewSolver(ctx).Solve(atoms)
		if !reflect.DeepEqual(model, cold) {
			t.Errorf("order %d: model %v, a cold solve finds %v", i, model, cold)
		}
		models = append(models, model)
	}
	if reflect.DeepEqual(models[0], models[1]) {
		t.Fatalf("both orders give model %v; the test cannot tell the keys apart", models[0])
	}
	for i, atoms := range orders {
		_, model, hit, _, _ := v.solveCached(ctx, atoms, time.Time{}, nil)
		if !hit || !reflect.DeepEqual(model, models[i]) {
			t.Errorf("order %d again: hit=%v model %v, want a hit with %v", i, hit, model, models[i])
		}
	}
}

// TestCancelledBatchOfOneKeepsBug: a cancelled validation conservatively
// keeps the bug and flags the outcome, it never drops a report.
func TestCancelledBatchOfOneKeepsBug(t *testing.T) {
	bugs, v := analyze(t, `
struct s { int f; };
int f(struct s *p) {
	if (!p)
		return p->f;
	return 0;
}`, core.ModePATA)
	if len(bugs) == 0 {
		t.Fatal("no candidates")
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := v.ValidateBatchCtx(cctx, bugs[:1], core.ModePATA)[0]
	if !out.Feasible {
		t.Error("cancelled validation dropped the bug")
	}
	if !out.TimedOut {
		t.Error("cancelled validation not flagged TimedOut")
	}
}
