package oscorpus

import (
	"fmt"

	"repro/internal/typestate"
)

// Helper-heavy cluster shapes: each emission is one driver plus the small
// leaf helpers it calls, colocated in one file. The drivers interleave the
// helper calls with flag diamonds that assign path-distinct constants to
// locals observed at the end of the function, so the (block, state) memo
// never collapses the routes — every one of the exponentially many prefixes
// re-reaches the next call site, always in the same callee-observable state,
// which is the access pattern a callee-summary cache would target. Real-OS
// precedent: register-bank accessors, devres-style field setters, and small
// clamp/classify arithmetic helpers called from option-cascade probe paths.
var helperShapes = []func(tc *templateCtx){
	// Arithmetic pipeline: six straight-line scale/clamp helpers, one per
	// call site, behind six flag diamonds (64 routes, 126 activations, 6
	// distinct callee-observable states).
	func(tc *templateCtx) {
		f := tc.f
		drv := tc.id("calib")
		h := make([]string, 6)
		for i := range h {
			h[i] = tc.id(fmt.Sprintf("scale%d", i))
			k1 := 3 + tc.rng.Intn(9)
			k2 := 2 + tc.rng.Intn(5)
			f.w("static int %s(int base) {", h[i])
			f.w("\tint v0 = base + %d;", k1)
			f.w("\tint v1 = v0 * %d;", k2)
			f.w("\tint v2 = v1 - base;")
			f.w("\tint v3 = v2 + %d;", k1*k2)
			f.w("\tint v4 = v3 * 2;")
			f.w("\tint v5 = v4 - v1;")
			f.w("\treturn v5 & 1023;")
			f.w("}")
		}
		f.w("static int %s(int mode) {", drv)
		f.w("\tint acc = 0;")
		for i := range h {
			f.w("\tint f%d = 0;", i)
		}
		for i, hn := range h {
			f.w("\tif (mode & %d)", 1<<i)
			f.w("\t\tf%d = %d;", i, i+1)
			f.w("\tacc = acc + %s(mode);", hn)
		}
		f.w("\treturn acc + f0 + f1 + f2 + f3 + f4 + f5;")
		f.w("}")
		f.blank()
	},
	// Register window: accessor helpers around opaque reg_read/reg_write,
	// the kernel's readl/writel-wrapper idiom.
	func(tc *templateCtx) {
		f := tc.f
		drv := tc.id("bank_init")
		h := make([]string, 4)
		for i := range h {
			h[i] = tc.id(fmt.Sprintf("win%d", i))
			off := 4 * (i + 1)
			mask := 1 << (2 + i)
			f.w("static int %s(int base) {", h[i])
			f.w("\tint r0 = reg_read(base + %d);", off)
			f.w("\tint r1 = r0 | %d;", mask)
			f.w("\treg_write(base + %d, r1);", off)
			f.w("\tint r2 = reg_read(base + %d);", off+32)
			f.w("\tint r3 = r2 & 255;")
			f.w("\treturn r1 + r3;")
			f.w("}")
		}
		f.w("static int %s(int base, int mode) {", drv)
		f.w("\tint acc = 0;")
		for i := range h {
			f.w("\tint e%d = 0;", i)
		}
		for i, hn := range h {
			f.w("\tif (mode & %d)", 1<<i)
			f.w("\t\te%d = %d;", i, i+7)
			f.w("\tacc = acc + %s(base);", hn)
		}
		f.w("\treturn acc + e0 + e1 + e2 + e3;")
		f.w("}")
		f.blank()
	},
	// Field ops: setter/reader helpers over a shared control block, so the
	// recorded deltas carry alias-graph edges, not just memberships.
	func(tc *templateCtx) {
		f := tc.f
		st := tc.id("cblk")
		hset := tc.id("cb_set")
		hsum := tc.id("cb_sum")
		hmsk := tc.id("cb_mask")
		hcnt := tc.id("cb_count")
		drv := tc.id("cb_apply")
		f.w("struct %s { int ctrl; int stat; int cnt; };", st)
		f.w("static int %s(struct %s *d, int v) {", hset, st)
		f.w("\td->ctrl = v | 1;")
		f.w("\td->cnt = v & 7;")
		f.w("\treturn d->ctrl;")
		f.w("}")
		f.w("static int %s(struct %s *d) {", hsum, st)
		f.w("\tint a = d->ctrl;")
		f.w("\tint b = d->stat;")
		f.w("\treturn a + b;")
		f.w("}")
		f.w("static int %s(struct %s *d, int v) {", hmsk, st)
		f.w("\tint m = d->ctrl & v;")
		f.w("\td->stat = m;")
		f.w("\treturn m;")
		f.w("}")
		f.w("static int %s(struct %s *d) {", hcnt, st)
		f.w("\tint c = d->cnt;")
		f.w("\treturn c + 1;")
		f.w("}")
		f.w("static int %s(struct %s *dev, int mode) {", drv, st)
		f.w("\tif (dev == NULL)")
		f.w("\t\treturn -22;")
		f.w("\tint g0 = 0;")
		f.w("\tint g1 = 0;")
		f.w("\tint g2 = 0;")
		f.w("\tint g3 = 0;")
		f.w("\tif (mode & 1)")
		f.w("\t\tg0 = 3;")
		f.w("\tint a = %s(dev, mode);", hset)
		f.w("\tif (mode & 2)")
		f.w("\t\tg1 = 5;")
		f.w("\tint b = %s(dev);", hsum)
		f.w("\tif (mode & 4)")
		f.w("\t\tg2 = 9;")
		f.w("\tint c = %s(dev, mode);", hmsk)
		f.w("\tif (mode & 8)")
		f.w("\t\tg3 = 11;")
		f.w("\tint d = %s(dev);", hcnt)
		f.w("\treturn a + b + c + d + g0 + g1 + g2 + g3;")
		f.w("}")
		f.blank()
	},
	// Branching classifiers: each helper forks internally, so every
	// activation returns along two continuations with their own
	// path-condition atoms.
	func(tc *templateCtx) {
		f := tc.f
		drv := tc.id("classify")
		h := make([]string, 4)
		for i := range h {
			h[i] = tc.id(fmt.Sprintf("level%d", i))
			thr := 4 * (i + 2)
			f.w("static int %s(int lvl) {", h[i])
			f.w("\tint t = lvl - %d;", thr)
			f.w("\tif (t > 0)")
			f.w("\t\treturn t * 2;")
			f.w("\treturn 0 - t;")
			f.w("}")
		}
		f.w("static int %s(int mode) {", drv)
		f.w("\tint acc = 0;")
		for i := range h {
			f.w("\tint c%d = 0;", i)
		}
		for i, hn := range h {
			f.w("\tif (mode & %d)", 1<<i)
			f.w("\t\tc%d = %d;", i, 2*i+1)
			f.w("\tacc = acc + %s(mode);", hn)
		}
		f.w("\treturn acc + c0 + c1 + c2 + c3;")
		f.w("}")
		f.blank()
	},
}

// HelperHeavySpec is the dedicated helper-call workload corpus: helper clusters
// dominate, with a sprinkle of ordinary bugs and traps so the post-validation
// bug report the equivalence test compares is non-empty. It is not part of
// AllSpecs — the Table 4/5 experiments keep the paper's four OSes — and is
// consumed by the pipeline bench, the benchmark and the equivalence tests.
func HelperHeavySpec() OSSpec {
	return OSSpec{
		Name: "helper-heavy", Version: "1.0", Seed: 7701,
		AllocFn: "kmalloc", FreeFn: "kfree",
		Cats: []CatSpec{
			{
				Name: "drivers", Files: 3, Filler: 6, Helpers: 12,
				Bugs:  map[typestate.BugType]int{typestate.NPD: 3, typestate.ML: 1},
				Traps: map[string]int{"guarded": 2, "reassigned": 1},
			},
		},
	}
}
