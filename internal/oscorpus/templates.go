package oscorpus

import (
	"fmt"
	"math/rand"

	"repro/internal/typestate"
)

// templateCtx carries everything a template needs to emit code into a file.
type templateCtx struct {
	f        *fileBuilder
	rng      *rand.Rand
	category string
	os       string
	seq      int // unique per emission, for identifier freshness
	alloc    string
	free     string
}

func (tc *templateCtx) id(base string) string {
	return fmt.Sprintf("%s_%s_%d", tc.os, base, tc.seq)
}

// bugTemplate emits code containing exactly one seeded bug and returns the
// ground truth entry.
type bugTemplate func(tc *templateCtx) GroundTruth

// trapTemplate emits a false-positive trap.
type trapTemplate func(tc *templateCtx) Trap

// ---- NPD bug templates ----

// npdInterfaceCheckDeref reproduces Figure 1: a driver interface function
// (registered through an ops struct, no explicit caller) null-checks its
// parameter on the failure branch and dereferences it there.
func npdInterfaceCheckDeref(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("probe")
	st := tc.id("pdev")
	f.w("struct %s { int irq; int flags; };", st)
	f.w("static int %s(struct %s *pdev, int mode) {", n, st)
	f.w("\tint ret = 0;")
	f.w("\tif (mode & 2)") // unrelated branch: the bug is reachable on
	f.w("\t\tret = 1;")    // several paths, exercising P3 deduplication
	f.w("\tif (!pdev) {")
	line := f.w("\t\tlog_err(pdev->irq);")
	f.w("\t\treturn -19;")
	f.w("\t}")
	f.w("\tret = pdev->flags & 3;")
	f.w("\treturn ret;")
	f.w("}")
	f.w("static struct driver_ops %s_ops = { .probe = %s };", n, n)
	f.blank()
	return GroundTruth{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category}
}

// npdAliasChain reproduces Figure 3: the NULL flows through a struct field
// into a callee that dereferences it — needs alias + interprocedural
// reasoning.
func npdAliasChain(tc *templateCtx) GroundTruth {
	f := tc.f
	model := tc.id("model")
	srv := tc.id("srv")
	status := tc.id("send_status")
	entry := tc.id("cfg_set")
	f.w("struct %s { int frnd; int relay; };", srv)
	f.w("struct %s { void *user_data; int id; };", model)
	f.w("static void %s(struct %s *model) {", status, model)
	f.w("\tstruct %s *cfg = (struct %s *)model->user_data;", srv, srv)
	line := f.w("\tnet_buf_add(cfg->frnd);")
	f.w("}")
	f.w("static void %s(struct %s *model) {", entry, model)
	f.w("\tstruct %s *cfg = (struct %s *)model->user_data;", srv, srv)
	f.w("\tif (!cfg) {")
	f.w("\t\tlog_warn(model->id);")
	f.w("\t\tgoto send;")
	f.w("\t}")
	f.w("\tcfg->relay = 1;")
	f.w("send:")
	f.w("\t%s(model);", status)
	f.w("}")
	f.blank()
	return GroundTruth{
		Type: typestate.NPD, File: f.name, Line: line, Category: tc.category,
		Interprocedural: true, NeedsAlias: true,
	}
}

// npdNullAssign is the trivial pattern every tool should find.
func npdNullAssign(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("reset")
	f.w("static int %s(char *buf, int hard) {", n)
	f.w("\tif (hard)")
	f.w("\t\tbuf = NULL;")
	line := f.w("\treturn *buf;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category}
}

// npdCheckLaterDeref: the classic check-then-use-later-anyway kernel bug.
func npdCheckLaterDeref(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("attach")
	st := tc.id("port")
	f.w("struct %s { int state; int speed; };", st)
	f.w("static int %s(struct %s *port, int mode) {", n, st)
	f.w("\tint rc = 0;")
	f.w("\tif (port == NULL)")
	f.w("\t\trc = -22;")
	f.w("\tif (mode > 0)")
	line := f.w("\t\trc = rc + port->speed;")
	f.w("\treturn rc;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category}
}

// npdCalleeReturnsNull: a helper returns NULL on failure; the caller uses
// the result without checking — interprocedural, no alias needed.
func npdCalleeReturnsNull(tc *templateCtx) GroundTruth {
	f := tc.f
	find := tc.id("find_ctx")
	user := tc.id("start")
	st := tc.id("ctx")
	f.w("struct %s { int refs; };", st)
	f.w("static struct %s *%s(int key) {", st, find)
	f.w("\tif (key < 0)")
	f.w("\t\treturn NULL;")
	f.w("\treturn (struct %s *)registry_get(key);", st)
	f.w("}")
	f.w("static int %s(int key) {", user)
	f.w("\tstruct %s *c = %s(key);", st, find)
	line := f.w("\treturn c->refs;")
	f.w("}")
	f.blank()
	return GroundTruth{
		Type: typestate.NPD, File: f.name, Line: line, Category: tc.category,
		Interprocedural: true,
	}
}

// ---- UVA bug templates ----

// uvaHeapFieldUse reproduces Figure 12d: allocated control block used
// before initialization, through a cast and a call chain.
func uvaHeapFieldUse(tc *templateCtx) GroundTruth {
	f := tc.f
	st := tc.id("tctl")
	verify := tc.id("verify")
	create := tc.id("create")
	f.w("struct %s { int type; int prio; };", st)
	f.w("static int %s(struct %s *obj) {", verify, st)
	line := f.w("\treturn obj->type == 7;")
	f.w("}")
	f.w("int %s(int stack_size) {", create)
	f.w("\tchar *addr = (char *)%s(stack_size);", tc.alloc)
	f.w("\tstruct %s *ctl = (struct %s *)addr;", st, st)
	f.w("\tint rc = %s(ctl);", verify)
	f.w("\t%s(addr);", tc.free)
	f.w("\treturn rc;")
	f.w("}")
	f.blank()
	return GroundTruth{
		Type: typestate.UVA, File: f.name, Line: line, Category: tc.category,
		Interprocedural: true, NeedsAlias: true,
	}
}

// uvaLocalScalar is the simple read-before-write every tool should find.
func uvaLocalScalar(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("calc")
	f.w("static int %s(int mode) {", n)
	f.w("\tint acc;")
	f.w("\tif (mode > 2)")
	f.w("\t\tacc = mode;")
	line := f.w("\treturn acc + 1;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.UVA, File: f.name, Line: line, Category: tc.category}
}

// ---- ML bug templates ----

// mlErrorPathLeak reproduces Figure 12c: the error path returns without
// freeing.
func mlErrorPathLeak(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("mkmsg")
	f.w("static int %s(int size, int prio) {", n)
	f.w("\tchar *msg;")
	f.w("\tint n;")
	f.w("\tif (prio > 0)")
	f.w("\t\tstats_bump(prio);")
	f.w("\tmsg = (char *)%s(size);", tc.alloc)
	f.w("\tif (msg == NULL)")
	f.w("\t\treturn -12;")
	f.w("\tn = format_into(size);")
	f.w("\tif (n < 0)")
	line := f.w("\t\treturn -5;")
	f.w("\t%s(msg);", tc.free)
	f.w("\treturn n;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.ML, File: f.name, Line: line, Category: tc.category}
}

// mlHelperLeak: allocation comes from a local wrapper, leak in the caller —
// interprocedural.
func mlHelperLeak(tc *templateCtx) GroundTruth {
	f := tc.f
	mk := tc.id("buf_new")
	n := tc.id("send")
	f.w("static char *%s(int len) {", mk)
	f.w("\treturn (char *)%s(len + 8);", tc.alloc)
	f.w("}")
	f.w("static int %s(int len, int flags) {", n)
	f.w("\tchar *b = %s(len);", mk)
	f.w("\tif (b == NULL)")
	f.w("\t\treturn -12;")
	f.w("\tif (flags & 4)")
	line := f.w("\t\treturn -1;")
	f.w("\tpush_fifo(len);")
	f.w("\t%s(b);", tc.free)
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return GroundTruth{
		Type: typestate.ML, File: f.name, Line: line, Category: tc.category,
		Interprocedural: true,
	}
}

// ---- Table 7 extension templates ----

// dlDoubleLock: a retry path takes the lock twice.
func dlDoubleLock(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("txn")
	st := tc.id("lk")
	f.w("struct %s { int owner; };", st)
	f.w("static int %s(struct %s *m, int retry) {", n, st)
	f.w("\tmutex_lock(m);")
	f.w("\tif (retry)")
	line := f.w("\t\tmutex_lock(m);")
	f.w("\tmutex_unlock(m);")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.DL, File: f.name, Line: line, Category: tc.category}
}

// aiuUnderflow: a negative-checked index is used on the wrong branch.
func aiuUnderflow(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("ring_get")
	f.w("static int %s(int *ring, int head) {", n)
	f.w("\tif (head < 0)")
	line := f.w("\t\treturn ring[head];")
	f.w("\treturn ring[head];")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.AIU, File: f.name, Line: line, Category: tc.category}
}

// dbzDivZero: a zero-checked divisor is used on the zero branch.
func dbzDivZero(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("rate")
	f.w("static int %s(int total, int period) {", n)
	f.w("\tif (period == 0)")
	line := f.w("\t\treturn total / period;")
	f.w("\treturn total / period;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.DBZ, File: f.name, Line: line, Category: tc.category}
}

// ---- traps (look like bugs, are not) ----

// trapGuardedDeref: the deref is properly guarded — ordering-based linters
// flag it.
func trapGuardedDeref(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("stats")
	st := tc.id("dev")
	f.w("struct %s { int rx; int tx; };", st)
	f.w("static int %s(struct %s *d) {", n, st)
	f.w("\tif (d == NULL)")
	f.w("\t\treturn 0;")
	line := f.w("\treturn d->rx + d->tx;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "guarded"}
}

// trapFig9Alias: the Figure 9 infeasible path — only alias-aware validation
// proves it dead.
func trapFig9Alias(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("flush")
	st := tc.id("q")
	f.w("struct %s { int dirty; };", st)
	f.w("static int %s(struct %s *p, char *q) {", n, st)
	f.w("\tstruct %s *t;", st)
	f.w("\tif (q == NULL)")
	f.w("\t\tp->dirty = 0;")
	f.w("\tt = p;")
	f.w("\tif (t->dirty != 0) {")
	f.w("\t\tif (q == NULL)")
	line := f.w("\t\t\treturn *q;")
	f.w("\t}")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "fig9-alias"}
}

// trapArrayIndex: §5.2's first FP cause — a[j] with j==i+1 aliases a[i+1],
// but access paths differ, so PATA itself false-positives here (UVA).
func trapArrayIndex(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("mix")
	f.w("static int %s(int i) {", n)
	f.w("\tint a[8];")
	f.w("\tint j = i + 1;")
	f.w("\ta[i + 1] = 5;")
	line := f.w("\treturn a[j];")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.UVA, File: f.name, Line: line, Category: tc.category, Mechanism: "array-index"}
}

// trapNonlinearGuard: §5.2's second FP cause — the guard is never true but
// needs non-linear reasoning to prove, so validation keeps the path.
func trapNonlinearGuard(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("probe_quirk")
	f.w("static int %s(char *p, int n) {", n)
	f.w("\tif (n * n < 0) {")
	f.w("\t\tif (!p)")
	line := f.w("\t\t\treturn *p;")
	f.w("\t}")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "nonlinear"}
}

// trapReassigned: pointer is fixed up before the use.
func trapReassigned(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("fallback")
	f.w("static int %s(char *p, char *dflt) {", n)
	f.w("\tif (!p)")
	f.w("\t\tp = dflt;")
	line := f.w("\treturn *p;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "reassigned"}
}

// trapFreeAllPaths: every path frees; naive "has malloc, no free" scans
// misfire on sibling functions, and path tools must not report.
func trapFreeAllPaths(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("probe_buf")
	f.w("static int %s(int len) {", n)
	f.w("\tchar *b = (char *)%s(len);", tc.alloc)
	f.w("\tif (b == NULL)")
	f.w("\t\treturn -12;")
	f.w("\tif (len > 64) {")
	f.w("\t\t%s(b);", tc.free)
	f.w("\t\treturn -7;")
	f.w("\t}")
	line := f.w("\tfill_pattern(len);")
	f.w("\t%s(b);", tc.free)
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.ML, File: f.name, Line: line, Category: tc.category, Mechanism: "free-all-paths"}
}

// trapInfeasibleConst: dead guard provable by constant propagation; every
// path-validating tool drops it, everything else false-positives.
func trapInfeasibleConst(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("selftest")
	f.w("static int %s(char *p) {", n)
	f.w("\tint magic = 3;")
	f.w("\tif (magic == 5) {")
	f.w("\t\tif (!p)")
	line := f.w("\t\t\treturn *p;")
	f.w("\t}")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "infeasible-const"}
}

// ---- filler (bug-free OS-looking code) ----

var fillerShapes = []func(tc *templateCtx){
	func(tc *templateCtx) { // register fiddling
		f := tc.f
		n := tc.id("hw_init")
		f.w("static int %s(int base) {", n)
		f.w("\tint v = reg_read(base + 4);")
		f.w("\tv = v | 16;")
		f.w("\treg_write(base + 4, v);")
		f.w("\treturn v & 255;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // bounded loop accumulation
		f := tc.f
		n := tc.id("checksum")
		f.w("static int %s(char *data, int len) {", n)
		f.w("\tint sum = 0;")
		f.w("\tint i;")
		f.w("\tfor (i = 0; i < len; i++)")
		f.w("\t\tsum = sum + data[i];")
		f.w("\treturn sum & 65535;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // guarded state machine step
		f := tc.f
		n := tc.id("fsm_step")
		st := tc.id("fsm")
		f.w("struct %s { int state; int events; };", st)
		f.w("static int %s(struct %s *m, int ev) {", n, st)
		f.w("\tif (!m)")
		f.w("\t\treturn -22;")
		f.w("\tswitch (m->state) {")
		f.w("\tcase 0:")
		f.w("\t\tm->state = ev > 0 ? 1 : 0;")
		f.w("\t\tbreak;")
		f.w("\tcase 1:")
		f.w("\t\tm->events = m->events + 1;")
		f.w("\t\tbreak;")
		f.w("\tdefault:")
		f.w("\t\tm->state = 0;")
		f.w("\t}")
		f.w("\treturn m->state;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // alloc/free pair, clean
		f := tc.f
		n := tc.id("roundtrip")
		f.w("static int %s(int len) {", n)
		f.w("\tchar *tmp = (char *)%s(len);", tc.alloc)
		f.w("\tif (tmp == NULL)")
		f.w("\t\treturn -12;")
		f.w("\tmemset(tmp, 0, len);")
		f.w("\t%s(tmp);", tc.free)
		f.w("\treturn 0;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // queue-ish struct walk
		f := tc.f
		n := tc.id("count_ready")
		st := tc.id("node")
		f.w("struct %s { struct %s *next; int ready; };", st, st)
		f.w("static int %s(struct %s *head) {", n, st)
		f.w("\tint cnt = 0;")
		f.w("\tstruct %s *cur = head;", st)
		f.w("\twhile (cur != NULL) {")
		f.w("\t\tif (cur->ready)")
		f.w("\t\t\tcnt++;")
		f.w("\t\tcur = cur->next;")
		f.w("\t}")
		f.w("\treturn cnt;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // error-code mapping
		f := tc.f
		n := tc.id("map_err")
		f.w("static int %s(int rc) {", n)
		f.w("\tif (rc == 0)")
		f.w("\t\treturn 0;")
		f.w("\tif (rc == -11)")
		f.w("\t\treturn -4;")
		f.w("\treturn -5;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // option-flag cascade: 2^6 routes converge on
		// changed ∈ {0,1}; the kernel's module-param / feature-bit apply
		// pattern. Path-insensitive in outcome, exponential in routes —
		// a state-merging analysis would collapse it.
		f := tc.f
		n := tc.id("cfg_apply")
		f.w("static int %s(int flags) {", n)
		f.w("\tint changed = 0;")
		for bit := 1; bit <= 32; bit *= 2 {
			f.w("\tif (flags & %d)", bit)
			f.w("\t\tchanged = 1;")
		}
		f.w("\tif (changed)")
		f.w("\t\tcfg_commit(flags);")
		f.w("\treturn changed;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // exclusive mode ladder: the guards are
		// mutually exclusive, so all but one of the 2^5 branch
		// combinations are infeasible — Stage-2 validation drops each
		// contradictory arm.
		f := tc.f
		n := tc.id("set_policy")
		f.w("static int %s(int mode) {", n)
		f.w("\tint rc = -22;")
		for i := 0; i < 5; i++ {
			f.w("\tif (mode == %d)", i)
			f.w("\t\trc = %d;", i*8)
		}
		f.w("\treturn rc;")
		f.w("}")
		f.blank()
	},
	func(tc *templateCtx) { // compiled-in config level: every guard folds
		// to a constant verdict, leaving a single feasible route through
		// 2^4 syntactic paths — the Kconfig-constant pattern.
		f := tc.f
		n := tc.id("init_caps")
		f.w("static int %s(int base) {", n)
		f.w("\tint level = 2;")
		f.w("\tint caps = 0;")
		f.w("\tif (level == 0)")
		f.w("\t\tcaps = -1;")
		f.w("\tif (level > 1)")
		f.w("\t\tcaps = caps | 2;")
		f.w("\tif (level > 3)")
		f.w("\t\tcaps = caps | 4;")
		f.w("\tif (level == 2)")
		f.w("\t\treg_write(base, caps);")
		f.w("\treturn caps;")
		f.w("}")
		f.blank()
	},
}

// trapDLNonlinear: a double lock under a never-true non-linear guard —
// PATA's validator cannot refute it (§5.2), producing the Table 7 FPs.
func trapDLNonlinear(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("txn_quirk")
	st := tc.id("qlk")
	f.w("struct %s { int owner; };", st)
	f.w("static int %s(struct %s *m, int k) {", n, st)
	f.w("\tmutex_lock(m);")
	f.w("\tif (k * k < 0)")
	line := f.w("\t\tmutex_lock(m);")
	f.w("\tmutex_unlock(m);")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.DL, File: f.name, Line: line, Category: tc.category, Mechanism: "nonlinear"}
}

// trapAIUNonlinear: negative index use behind a non-linear dead guard.
func trapAIUNonlinear(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("ring_quirk")
	f.w("static int %s(int *ring, int head, int k) {", n)
	f.w("\tif (k * k < 0) {")
	f.w("\t\tif (head < 0)")
	line := f.w("\t\t\treturn ring[head];")
	f.w("\t}")
	f.w("\treturn ring[0];")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.AIU, File: f.name, Line: line, Category: tc.category, Mechanism: "nonlinear"}
}

// trapDBZNonlinear: division by a checked-zero divisor behind a dead guard.
func trapDBZNonlinear(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("rate_quirk")
	f.w("static int %s(int total, int period, int k) {", n)
	f.w("\tif (k * k < 0) {")
	f.w("\t\tif (period == 0)")
	line := f.w("\t\t\treturn total / period;")
	f.w("\t}")
	f.w("\treturn total;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.DBZ, File: f.name, Line: line, Category: tc.category, Mechanism: "nonlinear"}
}

// trapGuardedHeapDeref: a malloc result is null-checked and dereferenced on
// the safe branch. Points-to-based detectors (SVF-Null) see the heap object
// and flag the ordered check-then-deref without path reasoning — their
// characteristic false positive (§6) — while path-sensitive tools stay
// silent.
func trapGuardedHeapDeref(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("hbuf_init")
	st := tc.id("hbuf")
	f.w("struct %s { int len; int cap; };", st)
	f.w("static int %s(int cap) {", n)
	f.w("\tstruct %s *h = (struct %s *)%s(cap);", st, st, tc.alloc)
	f.w("\tif (!h)")
	f.w("\t\treturn -12;")
	f.w("\th->len = 0;")
	line := f.w("\th->cap = cap;")
	f.w("\t%s(h);", tc.free)
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.NPD, File: f.name, Line: line, Category: tc.category, Mechanism: "guarded-heap"}
}

// trapConcurrency: §5.2's third FP cause — the region is initialized by a
// concurrently-executed worker (an opaque spawn callee); a thread-unaware
// analysis reports the subsequent read as uninitialized.
func trapConcurrency(tc *templateCtx) Trap {
	f := tc.f
	n := tc.id("spawn_worker")
	st := tc.id("wctl")
	f.w("struct %s { int ready; int tid; };", st)
	f.w("static int %s(int prio) {", n)
	f.w("\tstruct %s *c = (struct %s *)%s(64);", st, st, tc.alloc)
	f.w("\tif (!c)")
	f.w("\t\treturn -12;")
	f.w("\tthread_start(c, prio);") // the worker initializes c->ready
	line := f.w("\tint r = c->ready;")
	f.w("\t%s(c);", tc.free)
	f.w("\treturn r;")
	f.w("}")
	f.blank()
	return Trap{Type: typestate.UVA, File: f.name, Line: line, Category: tc.category, Mechanism: "concurrency"}
}

// uafTemplate: the freed control block is used through an alias — the
// use-after-free extension checker's target pattern.
func uafUseAfterFree(tc *templateCtx) GroundTruth {
	f := tc.f
	st := tc.id("conn")
	n := tc.id("teardown")
	f.w("struct %s { int state; };", st)
	f.w("static int %s(int id, int notify) {", n)
	f.w("\tstruct %s *c = (struct %s *)%s(32);", st, st, tc.alloc)
	f.w("\tif (!c)")
	f.w("\t\treturn -12;")
	f.w("\tc->state = id;")
	f.w("\t%s(c);", tc.free)
	f.w("\tif (notify)")
	line := f.w("\t\tnotify_peer(c->state);")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.UAF, File: f.name, Line: line, Category: tc.category}
}

// apiPairUnbalanced: an of_node handle is not put on the error path — the
// configurable API-pairing extension's target pattern.
func apiPairUnbalanced(tc *templateCtx) GroundTruth {
	f := tc.f
	n := tc.id("dt_probe")
	st := tc.id("dtnode")
	f.w("struct %s { int reg; };", st)
	f.w("static int %s(int base, int bad) {", n)
	f.w("\tstruct %s *np = (struct %s *)of_find_node_by_name(base);", st, st)
	f.w("\tif (!np)")
	f.w("\t\treturn -19;")
	f.w("\tif (bad)")
	line := f.w("\t\treturn -5;")
	f.w("\tapply_reg(np->reg);")
	f.w("\tof_node_put(np);")
	f.w("\treturn 0;")
	f.w("}")
	f.blank()
	return GroundTruth{Type: typestate.API, File: f.name, Line: line, Category: tc.category}
}

// npdDeepChain: the NULL flows through a three-deep call chain before the
// dereference — exercises interprocedural depth (engine MaxCallDepth).
func npdDeepChain(tc *templateCtx) GroundTruth {
	f := tc.f
	st := tc.id("ep")
	l3 := tc.id("apply")
	l2 := tc.id("stage")
	l1 := tc.id("submit")
	f.w("struct %s { int seq; };", st)
	f.w("static int %s(struct %s *e) {", l3, st)
	line := f.w("\treturn e->seq;")
	f.w("}")
	f.w("static int %s(struct %s *e) {", l2, st)
	f.w("\treturn %s(e);", l3)
	f.w("}")
	f.w("static int %s(struct %s *e, int urgent) {", l1, st)
	f.w("\tif (!e) {")
	f.w("\t\tif (urgent)")
	f.w("\t\t\treturn %s(e);", l2)
	f.w("\t\treturn -22;")
	f.w("\t}")
	f.w("\treturn %s(e);", l2)
	f.w("}")
	f.blank()
	return GroundTruth{
		Type: typestate.NPD, File: f.name, Line: line, Category: tc.category,
		Interprocedural: true,
	}
}
