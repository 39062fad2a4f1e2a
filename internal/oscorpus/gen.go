package oscorpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/typestate"
)

// CatSpec describes one OS part (a Figure 11 category).
type CatSpec struct {
	Name   string
	Files  int
	Filler int // bug-free functions across the category
	// Helpers counts helper-heavy clusters (see helperShapes): drivers whose
	// path explosion concentrates in repeated calls to small shared helpers.
	// Zero everywhere except
	// the dedicated helper-heavy spec, so existing corpora are unchanged.
	Helpers int
	// Validation counts validation-heavy clusters (see validationShapes):
	// entries whose same-entry candidates share long path-condition
	// prefixes, the shape batched Stage-2 validation collapses. Zero
	// everywhere except the dedicated validate-heavy spec.
	Validation int
	// Bugs seeded per type.
	Bugs map[typestate.BugType]int
	// Traps seeded per mechanism (see Trap.Mechanism).
	Traps map[string]int
}

// OSSpec describes one synthetic OS.
type OSSpec struct {
	Name    string
	Version string
	Seed    int64
	// AllocFn/FreeFn are the OS's allocator spellings (kmalloc/kfree,
	// k_malloc/k_free, ...), matching the intrinsics table.
	AllocFn string
	FreeFn  string
	Cats    []CatSpec
}

// Corpus is a generated OS codebase with ground truth.
type Corpus struct {
	Spec    OSSpec
	Sources map[string]string
	Truth   []GroundTruth
	Traps   []Trap
	// Lines is the total generated line count (Table 4's LoC column).
	Lines int
}

// Files returns the number of source files.
func (c *Corpus) Files() int { return len(c.Sources) }

var bugTemplates = map[typestate.BugType][]bugTemplate{
	// Alias-dependent patterns dominate, as in real OS code (the paper's
	// PATA-NA study loses 57% of real bugs without aliasing, §5.4).
	typestate.NPD: {npdAliasChain, npdInterfaceCheckDeref, npdAliasChain, npdNullAssign, npdAliasChain, npdCheckLaterDeref, npdCalleeReturnsNull, npdAliasChain, npdDeepChain},
	typestate.UVA: {uvaHeapFieldUse, uvaHeapFieldUse, uvaLocalScalar},
	typestate.ML:  {mlErrorPathLeak, mlHelperLeak},
	typestate.DL:  {dlDoubleLock},
	typestate.AIU: {aiuUnderflow},
	typestate.DBZ: {dbzDivZero},
	typestate.UAF: {uafUseAfterFree},
	typestate.API: {apiPairUnbalanced},
}

var trapTemplates = map[string]trapTemplate{
	"guarded":          trapGuardedDeref,
	"fig9-alias":       trapFig9Alias,
	"array-index":      trapArrayIndex,
	"nonlinear":        trapNonlinearGuard,
	"reassigned":       trapReassigned,
	"free-all-paths":   trapFreeAllPaths,
	"infeasible-const": trapInfeasibleConst,
	"guarded-heap":     trapGuardedHeapDeref,
	"concurrency":      trapConcurrency,
	"dl-nonlinear":     trapDLNonlinear,
	"aiu-nonlinear":    trapAIUNonlinear,
	"dbz-nonlinear":    trapDBZNonlinear,
}

// Generate builds the corpus for spec, deterministically from spec.Seed.
func Generate(spec OSSpec) *Corpus {
	rng := rand.New(rand.NewSource(spec.Seed))
	c := &Corpus{Spec: spec, Sources: make(map[string]string)}
	seq := 0
	osTag := sanitize(spec.Name)

	for _, cat := range spec.Cats {
		files := make([]*fileBuilder, cat.Files)
		for i := range files {
			name := fmt.Sprintf("%s/%s_%02d.c", cat.Name, cat.Name, i)
			files[i] = newFile(name)
			files[i].w("/* %s %s — %s module %d (generated) */", spec.Name, spec.Version, cat.Name, i)
			files[i].blank()
		}
		pick := func() *fileBuilder { return files[rng.Intn(len(files))] }
		newCtx := func(f *fileBuilder) *templateCtx {
			seq++
			return &templateCtx{
				f: f, rng: rng, category: cat.Name, os: osTag, seq: seq,
				alloc: spec.AllocFn, free: spec.FreeFn,
			}
		}

		// Interleave bugs, traps and filler pseudo-randomly but
		// deterministically.
		type job func()
		var jobs []job
		for _, bt := range []typestate.BugType{typestate.NPD, typestate.UVA, typestate.ML, typestate.DL, typestate.AIU, typestate.DBZ, typestate.UAF, typestate.API} {
			n := cat.Bugs[bt]
			tmpls := bugTemplates[bt]
			for i := 0; i < n; i++ {
				tmpl := tmpls[i%len(tmpls)]
				jobs = append(jobs, func() {
					tc := newCtx(pick())
					g := tmpl(tc)
					g.ID = fmt.Sprintf("%s-%s-%d", osTag, g.Type, len(c.Truth))
					c.Truth = append(c.Truth, g)
				})
			}
		}
		mechs := make([]string, 0, len(cat.Traps))
		for m := range cat.Traps {
			mechs = append(mechs, m)
		}
		sort.Strings(mechs)
		for _, m := range mechs {
			tmpl := trapTemplates[m]
			for i := 0; i < cat.Traps[m]; i++ {
				jobs = append(jobs, func() {
					tc := newCtx(pick())
					tr := tmpl(tc)
					tr.ID = fmt.Sprintf("%s-trap-%d", osTag, len(c.Traps))
					c.Traps = append(c.Traps, tr)
				})
			}
		}
		for i := 0; i < cat.Filler; i++ {
			shape := fillerShapes[i%len(fillerShapes)]
			jobs = append(jobs, func() {
				shape(newCtx(pick()))
			})
		}
		for i := 0; i < cat.Helpers; i++ {
			shape := helperShapes[i%len(helperShapes)]
			jobs = append(jobs, func() {
				shape(newCtx(pick()))
			})
		}
		for i := 0; i < cat.Validation; i++ {
			shape := validationShapes[i%len(validationShapes)]
			jobs = append(jobs, func() {
				gs, ts := shape(newCtx(pick()))
				for _, g := range gs {
					g.ID = fmt.Sprintf("%s-%s-%d", osTag, g.Type, len(c.Truth))
					c.Truth = append(c.Truth, g)
				}
				for _, tr := range ts {
					tr.ID = fmt.Sprintf("%s-trap-%d", osTag, len(c.Traps))
					c.Traps = append(c.Traps, tr)
				}
			})
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			j()
		}
		for _, f := range files {
			c.Sources[f.name] = f.String()
			c.Lines += f.line
		}
	}
	return c
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", "_")
	s = strings.ReplaceAll(s, " ", "_")
	return s
}

// ---- default OS specs ----
//
// Counts are the paper's per-OS real-bug numbers (Table 5) scaled down
// (Linux ÷10, IoT ÷4..5) and distributed over categories to match the
// Figure 11 proportions: drivers ≈75% in Linux, third-party ≈68% across the
// IoT OSes. Trap counts set the achievable false-positive profile: guarded/
// fig9/reassigned traps punish the baselines, array-index and nonlinear
// traps reproduce PATA's own §5.2 false positives.

// LinuxSpec is the linux-like corpus.
func LinuxSpec() OSSpec {
	return OSSpec{
		Name: "linux-like", Version: "5.6", Seed: 5601,
		AllocFn: "kmalloc", FreeFn: "kfree",
		Cats: []CatSpec{
			{
				Name: "drivers", Files: 10, Filler: 150,
				Bugs: map[typestate.BugType]int{typestate.NPD: 28, typestate.UVA: 5, typestate.ML: 1},
				Traps: map[string]int{
					"guarded": 8, "guarded-heap": 5, "fig9-alias": 4,
					"array-index": 6, "nonlinear": 6, "reassigned": 4,
					"free-all-paths": 3, "infeasible-const": 4,
					"concurrency": 3,
				},
			},
			{
				Name: "net", Files: 4, Filler: 40,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 3, typestate.UVA: 1},
				Traps: map[string]int{"guarded": 2, "fig9-alias": 1, "array-index": 1, "nonlinear": 1},
			},
			{
				Name: "fs", Files: 3, Filler: 35,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 2, typestate.ML: 1},
				Traps: map[string]int{"guarded": 1, "array-index": 1, "infeasible-const": 1},
			},
			{
				Name: "other", Files: 3, Filler: 30,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 4, typestate.UVA: 1},
				Traps: map[string]int{"guarded": 1, "nonlinear": 1, "reassigned": 1},
			},
		},
	}
}

// ZephyrSpec is the zephyr-like corpus.
func ZephyrSpec() OSSpec {
	return OSSpec{
		Name: "zephyr-like", Version: "2.1.0", Seed: 2101,
		AllocFn: "k_malloc", FreeFn: "k_free",
		Cats: []CatSpec{
			{
				Name: "thirdparty", Files: 3, Filler: 14,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 4},
				Traps: map[string]int{"guarded": 2, "guarded-heap": 2, "nonlinear": 1},
			},
			{
				Name: "subsystem", Files: 2, Filler: 9,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 2},
				Traps: map[string]int{"fig9-alias": 1, "array-index": 1},
			},
		},
	}
}

// RIOTSpec is the riot-like corpus.
func RIOTSpec() OSSpec {
	return OSSpec{
		Name: "riot-like", Version: "2020.04", Seed: 2004,
		AllocFn: "malloc", FreeFn: "free",
		Cats: []CatSpec{
			{
				Name: "thirdparty", Files: 4, Filler: 22,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 8, typestate.ML: 1},
				Traps: map[string]int{"guarded": 3, "guarded-heap": 2, "fig9-alias": 1, "array-index": 2, "nonlinear": 1},
			},
			{
				Name: "subsystem", Files: 2, Filler: 12,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 3},
				Traps: map[string]int{"guarded": 1, "nonlinear": 1, "free-all-paths": 1},
			},
			{
				Name: "other", Files: 1, Filler: 6,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 1},
				Traps: map[string]int{"reassigned": 1},
			},
		},
	}
}

// TencentSpec is the tencentos-tiny-like corpus.
func TencentSpec() OSSpec {
	return OSSpec{
		Name: "tencent-like", Version: "23313e", Seed: 2331,
		AllocFn: "tos_mmheap_alloc", FreeFn: "tos_mmheap_free",
		Cats: []CatSpec{
			{
				Name: "thirdparty", Files: 2, Filler: 10,
				Bugs:  map[typestate.BugType]int{typestate.UVA: 3, typestate.ML: 1},
				Traps: map[string]int{"guarded": 1, "guarded-heap": 1, "array-index": 2},
			},
			{
				Name: "subsystem", Files: 2, Filler: 7,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 2},
				Traps: map[string]int{"fig9-alias": 1, "nonlinear": 1},
			},
			{
				Name: "other", Files: 1, Filler: 4,
				Bugs:  map[typestate.BugType]int{typestate.UVA: 1},
				Traps: map[string]int{"free-all-paths": 1},
			},
		},
	}
}

// AllSpecs returns the four OS specs in the paper's Table 4 order.
func AllSpecs() []OSSpec {
	return []OSSpec{LinuxSpec(), ZephyrSpec(), RIOTSpec(), TencentSpec()}
}

// WithExtensions adds the §5.5 extension-checker bugs (double-lock,
// array-index-underflow, division-by-zero) plus their nonlinear-guard traps
// to the first category of spec (Table 7 runs on Linux only).
func WithExtensions(spec OSSpec) OSSpec {
	if len(spec.Cats) == 0 {
		return spec
	}
	cat := &spec.Cats[0]
	merged := map[typestate.BugType]int{}
	for k, v := range cat.Bugs {
		merged[k] = v
	}
	merged[typestate.DL] += 4
	merged[typestate.AIU] += 5
	merged[typestate.DBZ] += 1
	cat.Bugs = merged
	traps := map[string]int{}
	for k, v := range cat.Traps {
		traps[k] = v
	}
	traps["dl-nonlinear"] += 1
	traps["aiu-nonlinear"] += 1
	traps["dbz-nonlinear"] += 1
	cat.Traps = traps
	spec.Seed += 7
	return spec
}

// Scaled multiplies every per-category count of spec (files, filler, bugs,
// traps) by factor, for scalability experiments. factor 1 returns spec
// unchanged; the seed is offset so scaled corpora differ from the base.
func Scaled(spec OSSpec, factor int) OSSpec {
	if factor <= 1 {
		return spec
	}
	out := spec
	out.Seed = spec.Seed + int64(factor)*1000
	out.Cats = make([]CatSpec, len(spec.Cats))
	for i, cat := range spec.Cats {
		nc := CatSpec{
			Name:   cat.Name,
			Files:  cat.Files * factor,
			Filler: cat.Filler * factor,
			Bugs:   make(map[typestate.BugType]int, len(cat.Bugs)),
			Traps:  make(map[string]int, len(cat.Traps)),
		}
		for k, v := range cat.Bugs {
			nc.Bugs[k] = v * factor
		}
		for k, v := range cat.Traps {
			nc.Traps[k] = v * factor
		}
		out.Cats[i] = nc
	}
	return out
}

// WithRepoExtensions adds this repository's extension-checker bugs (UAF and
// API pairing) to the first category of spec, for the extensions experiment.
func WithRepoExtensions(spec OSSpec) OSSpec {
	if len(spec.Cats) == 0 {
		return spec
	}
	cat := &spec.Cats[0]
	merged := map[typestate.BugType]int{}
	for k, v := range cat.Bugs {
		merged[k] = v
	}
	merged[typestate.UAF] += 3
	merged[typestate.API] += 3
	cat.Bugs = merged
	spec.Seed += 13
	return spec
}
