package pata_test

// One benchmark per evaluation table and figure of the paper, plus
// substrate micro-benchmarks and ablations for the design choices called
// out in DESIGN.md. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The printed tables come from cmd/patabench; these benchmarks measure the
// cost of regenerating each one.

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	pata "repro"
	"repro/internal/acache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/smt"
	"repro/internal/typestate"
)

// ---- Table and figure benchmarks ----

// BenchmarkTable4Corpus regenerates Table 4 (corpus generation for the four
// OSes).
func BenchmarkTable4Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table4(io.Discard)
	}
}

// BenchmarkTable5Pipeline regenerates Table 5 (full PATA: Stage 1 + Stage 2
// over all four corpora, with the typestate/constraint cost counters).
func BenchmarkTable5Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Distribution regenerates Figure 11 (bug distribution by OS
// part).
func BenchmarkFig11Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Sensitivity regenerates Table 6 (PATA vs PATA-NA).
func BenchmarkTable6Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7ExtraCheckers regenerates Table 7 (DL/AIU/DBZ checkers).
func BenchmarkTable7ExtraCheckers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8Comparison regenerates Table 8 (all baselines vs PATA on
// all corpora).
func BenchmarkTable8Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPAudit regenerates the §5.2 false-positive cause audit.
func BenchmarkFPAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.FPAudit(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCases regenerates the Figure 1/3/9/12 case studies.
func BenchmarkCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Cases(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkFrontendLinuxCorpus measures mini-C parsing+lowering of the
// linux-like corpus (the Clang-equivalent P1 cost).
func BenchmarkFrontendLinuxCorpus(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minicc.LowerAll(c.Spec.Name, c.Sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage1LinuxCorpus measures Stage 1 alone (path-sensitive alias +
// typestate analysis, no validation) on the linux-like corpus.
func BenchmarkStage1LinuxCorpus(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	}
}

// BenchmarkStage1HelperCorpus measures Stage 1 alone on the helper-heavy
// corpus, whose deep helper chains make Stage 1 nearly all of a run: the
// per-step cost of the DFS's alias and typestate updates, on one worker.
func BenchmarkStage1HelperCorpus(b *testing.B) {
	c := oscorpus.Generate(oscorpus.HelperHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	}
}

// BenchmarkStage2Validation measures Stage 2 alone, as the engine runs it:
// the Stage-1 candidates of the validate-heavy corpus, split into
// same-entry groups, each validated by one batched call on a fresh
// validator per op (a cold verdict cache, as in a CLI run).
func BenchmarkStage2Validation(b *testing.B) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	groups := entryGroups(res.Possible)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := pathval.New()
		for _, g := range groups {
			v.ValidateBatchCtx(ctx, g, core.ModePATA)
		}
	}
}

// entryGroups splits candidates into their contiguous same-entry groups,
// the batches the engine's Stage 2 hands to its hook.
func entryGroups(possible []*core.PossibleBug) [][]*core.PossibleBug {
	var groups [][]*core.PossibleBug
	for i, pb := range possible {
		if i == 0 || pb.EntryFn != possible[i-1].EntryFn {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], pb)
	}
	return groups
}

// BenchmarkSMTSolver measures the SMT-lite solver on a representative
// path-constraint conjunction.
func BenchmarkSMTSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		s := smt.NewSolver(ctx)
		x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
		atoms := []*smt.Atom{
			smt.Eq(x, smt.Add(y, smt.Int(1))),
			smt.Ge(y, smt.Int(0)),
			smt.Le(z, smt.Int(100)),
			smt.Lt(smt.Add(x, z), smt.Int(50)),
			smt.Ne(x, smt.Int(0)),
		}
		if res, _ := s.Solve(atoms); res != smt.Sat {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkPublicAPI measures the end-to-end public entry point on a small
// program (what a library user pays per file).
func BenchmarkPublicAPI(b *testing.B) {
	src := map[string]string{"demo.c": `
struct dev { int flags; };
int probe(struct dev *d) {
	if (!d)
		return d->flags;
	return 0;
}`}
	for i := 0; i < b.N; i++ {
		if _, err := pata.AnalyzeSources("demo", src, pata.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks (design choices from DESIGN.md) ----

// BenchmarkAblationAliasMode compares Stage-1 cost of path-based aliasing
// vs the PATA-NA restriction (the paper's Table 6 time column).
func BenchmarkAblationAliasMode(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		mode core.Mode
	}{{"pata", core.ModePATA}, {"na", core.ModeNoAlias}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunParallel(mod, core.Config{
					Checkers: typestate.CoreCheckers(), Mode: bc.mode,
				}, 1)
			}
		})
	}
}

// BenchmarkAblationContinuations varies the P2 path-explosion mitigation
// (callee paths continuing into the caller).
func BenchmarkAblationContinuations(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 8, -1} {
		name := "unlimited"
		switch k {
		case 1:
			name = "k1"
		case 2:
			name = "k2"
		case 8:
			name = "k8"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{Checkers: typestate.CoreCheckers()}
			cfg.MaxContinuationsPerCall = k
			for i := 0; i < b.N; i++ {
				core.RunParallel(mod, cfg, 1)
			}
		})
	}
}

// BenchmarkAblationValidation compares the full pipeline with and without
// Stage-2 validation (cost of the paper's C3 answer).
func BenchmarkAblationValidation(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("novalidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
		}
	})
	b.Run("validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := core.Config{Checkers: typestate.CoreCheckers()}
			pathval.New().Install(&cfg)
			core.RunParallel(mod, cfg, 1)
		}
	})
}

// BenchmarkScaling measures full-pipeline cost at growing corpus sizes
// (linux-like corpus scaled 1x/2x/4x): evidence that the per-entry path
// budget keeps the analysis near-linear in code size, the property that
// lets the paper analyze 10.3M LoC.
func BenchmarkScaling(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		spec := oscorpus.Scaled(oscorpus.LinuxSpec(), factor)
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "x1", 2: "x2", 4: "x4"}[factor], func(b *testing.B) {
			b.ReportMetric(float64(c.Lines), "loc")
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Checkers: typestate.CoreCheckers()}
				pathval.New().Install(&cfg)
				core.RunParallel(mod, cfg, 1)
			}
		})
	}
}

// BenchmarkAblationLoopUnroll varies the §7 loop-unroll extension (K visits
// per instruction per path; the paper's default is 1).
func BenchmarkAblationLoopUnroll(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "k1", 2: "k2", 3: "k3"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunParallel(mod, core.Config{
					Checkers: typestate.CoreCheckers(), LoopUnroll: k,
				}, 1)
			}
		})
	}
}

// BenchmarkParallelWorkers measures RunParallel on the 4x linux-like corpus
// across worker counts: Stage 1 spreads entry functions over the workers,
// then Stage 2 spreads same-entry candidate groups over the same workers.
// Output is byte-identical at every count (TestRunParallelByteIdentical);
// only wall-clock moves.
func BenchmarkParallelWorkers(b *testing.B) {
	c := oscorpus.Generate(oscorpus.Scaled(oscorpus.LinuxSpec(), 4))
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Checkers: typestate.CoreCheckers()}
				pathval.New().Install(&cfg)
				core.RunParallel(mod, cfg, w)
			}
		})
	}
}

// BenchmarkValidatorCache measures the Stage-2 verdict cache: "cold" pays a
// fresh validator (every constraint system solved), "warm" revalidates the
// same candidates against an already-populated cache (every solve is a
// lookup of the memoized verdict and model). Candidates go to
// ValidateBatchCtx in their same-entry groups, as the engine hands them.
func BenchmarkValidatorCache(b *testing.B) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	if len(res.Possible) == 0 {
		b.Fatal("no candidates")
	}
	groups := entryGroups(res.Possible)
	ctx := context.Background()
	validateAll := func(v *pathval.Validator) {
		for _, g := range groups {
			v.ValidateBatchCtx(ctx, g, core.ModePATA)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			validateAll(pathval.New())
		}
	})
	b.Run("warm", func(b *testing.B) {
		v := pathval.New()
		validateAll(v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			validateAll(v)
		}
	})
}

// BenchmarkExtensions regenerates the repo-extension experiment (UAF + API
// pairing checkers).
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Extensions(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// editPool draws the edits the update benchmarks and TestUpdateAllocBudget
// apply: n two-function oscorpus.Mutate edits of sources, seeds 1 to n,
// each as the files it changes. It fails b on an edit that changes no
// function.
func editPool(b testing.TB, sources map[string]string, n int) []map[string]string {
	pool := make([]map[string]string, n)
	for i := range pool {
		edited, names := oscorpus.Mutate(sources, 2, int64(i+1))
		set := make(map[string]string)
		for name, src := range edited {
			if src != sources[name] {
				set[name] = src
			}
		}
		if len(set) == 0 || len(names) == 0 {
			b.Fatalf("edit %d changes no function", i+1)
		}
		pool[i] = set
	}
	return pool
}

// editPoolSize is how many distinct edits the update benchmarks cycle
// through.
const editPoolSize = 64

// BenchmarkProgramUpdate measures Program.Update on serve-edit's shape: the
// seed-1 linux-like corpus at scale 4, each op applying one two-function
// oscorpus.Mutate edit of the base corpus to the base Program, as patad's
// invalidate does. The edits are drawn before the timer starts (editPool)
// and taken in turn. An op whose Update changes no function fails the
// benchmark.
func BenchmarkProgramUpdate(b *testing.B) {
	spec := oscorpus.Scaled(oscorpus.LinuxSpec(), 4)
	spec.Seed++
	c := oscorpus.Generate(spec)
	prog, err := pata.Load(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	prog.Index()
	edits := editPool(b, c.Sources, editPoolSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, changed, _, err := prog.Update(edits[i%len(edits)], nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(changed) == 0 {
			b.Fatalf("op %d: Update changed no function", i)
		}
	}
}

// BenchmarkServeEdit runs the serve-edit workload's op in-process, without
// the daemon: on the seed-1 linux-like corpus at scale 4, each op applies
// one two-function oscorpus.Mutate edit of the base corpus (editPool) to
// the base Program through Program.Update, runs a cached Analyze of the
// result over an acache store, renders the report and ends the store's
// run, as patad's invalidate and analyze do. An op whose Update changes no
// function fails the benchmark.
// update-ms and analyze-ms split the op (analyze-ms includes the report
// and EndRun); B/op and allocs/op cover both.
func BenchmarkServeEdit(b *testing.B) {
	spec := oscorpus.Scaled(oscorpus.LinuxSpec(), 4)
	spec.Seed++
	c := oscorpus.Generate(spec)
	store, err := acache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ec, err := pata.Config{}.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	ec.Cache = store
	ctx := context.Background()
	prog, err := pata.Load(c.Spec.Name, c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	prog.Index()
	prog.Analyze(ctx, ec, 0, false).Report()
	store.EndRun()
	edits := editPool(b, c.Sources, editPoolSize)
	var update, analyze time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		next, changed, _, err := prog.Update(edits[i%len(edits)], nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(changed) == 0 {
			b.Fatalf("op %d: Update changed no function", i)
		}
		t1 := time.Now()
		next.Analyze(ctx, ec, 0, false).Report()
		store.EndRun()
		update += t1.Sub(t0)
		analyze += time.Since(t1)
	}
	b.ReportMetric(float64(update.Microseconds())/1e3/float64(b.N), "update-ms")
	b.ReportMetric(float64(analyze.Microseconds())/1e3/float64(b.N), "analyze-ms")
}

// memCache is an in-memory core.EntryCache.
type memCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *memCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *memCache) Save(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = data
}

// BenchmarkWarmAnalyze measures a warm cached analysis against a cold
// cacheless one, each op a Load and an Analyze as the CLI runs them.
// "cacheless" and "warm" run scan-validate's corpus (validate-heavy ×12
// with its clusters scaled, seed 1): "warm" replays every entry, Stage-2
// verdicts included, from an in-memory EntryCache filled before the timer
// starts; "cacheless" runs both stages. "disk" and "disk-cacheless" run
// scan-linux's corpus (linux-like ×4, seed 1): "disk" is a 100%-hit
// -cache-dir run, opening an acache store over the pack a cold run filled
// (Open reads and verifies the whole pack) and replaying every entry from
// it; "disk-cacheless" is the same Load + Analyze without a cache.
func BenchmarkWarmAnalyze(b *testing.B) {
	base := oscorpus.ValidationHeavySpec()
	spec := oscorpus.Scaled(base, 12)
	for i := range spec.Cats {
		spec.Cats[i].Helpers = base.Cats[i].Helpers * 12
		spec.Cats[i].Validation = base.Cats[i].Validation * 12
	}
	spec.Seed++
	c := oscorpus.Generate(spec)
	linux := oscorpus.Scaled(oscorpus.LinuxSpec(), 4)
	linux.Seed++
	lc := oscorpus.Generate(linux)
	analyze := func(b *testing.B, c *oscorpus.Corpus, cache core.EntryCache) *pata.Result {
		prog, err := pata.Load(c.Spec.Name, c.Sources)
		if err != nil {
			b.Fatal(err)
		}
		ec, err := pata.Config{}.EngineConfig()
		if err != nil {
			b.Fatal(err)
		}
		ec.Cache = cache
		return prog.Analyze(context.Background(), ec, 0, false)
	}
	b.Run("cacheless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyze(b, c, nil)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := &memCache{m: make(map[string][]byte)}
		analyze(b, c, cache)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := analyze(b, c, cache); res.Stats.CacheEntriesMiss != 0 {
				b.Fatalf("warm op missed %d entries", res.Stats.CacheEntriesMiss)
			}
		}
	})
	b.Run("disk-cacheless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyze(b, lc, nil)
		}
	})
	b.Run("disk", func(b *testing.B) {
		dir := b.TempDir()
		open := func() *acache.Store {
			store, err := acache.Open(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			return store
		}
		store := open()
		analyze(b, lc, store)
		store.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store := open()
			res := analyze(b, lc, store)
			store.Close()
			if res.Stats.CacheEntriesMiss != 0 {
				b.Fatalf("disk op missed %d entries", res.Stats.CacheEntriesMiss)
			}
		}
	})
}
