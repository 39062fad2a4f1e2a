package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// run analyzes the given sources with the given checkers and full Stage 2.
func run(t *testing.T, cfg core.Config, sources map[string]string) *core.Result {
	t.Helper()
	mod, err := minicc.LowerAll("m", sources)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	v := pathval.New()
	v.Install(&cfg)
	return core.RunParallel(mod, cfg, 1)
}

func countType(res *core.Result, bt typestate.BugType) int {
	n := 0
	for _, b := range res.Bugs {
		if b.Type == bt {
			n++
		}
	}
	return n
}

func linesOf(res *core.Result, bt typestate.BugType) map[int]bool {
	out := map[int]bool{}
	for _, b := range res.Bugs {
		if b.Type == bt {
			out[b.BugInstr.Position().Line] = true
		}
	}
	return out
}

func TestNPDSimpleIntraprocedural(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
struct dev { int flags; };
int probe(struct dev *d) {
	if (!d)
		return d->flags;  /* line 5: deref on the NULL branch */
	return d->flags;          /* line 6: safe */
}`})
	lines := linesOf(res, typestate.NPD)
	if !lines[5] {
		t.Errorf("missed NPD at line 5; got %v", lines)
	}
	if lines[6] {
		t.Errorf("false NPD at line 6 (guarded)")
	}
}

func TestNPDFigure3Zephyr(t *testing.T) {
	// The paper's motivating example: the alias chain runs through
	// model->user_data across two functions and a goto.
	res := run(t, core.Config{}, map[string]string{"cfg_srv.c": `
struct bt_mesh_cfg_srv { int frnd; };
struct bt_mesh_model { void *user_data; };

static void send_friend_status(struct bt_mesh_model *model) {
	struct bt_mesh_cfg_srv *cfg = (struct bt_mesh_cfg_srv *)model->user_data;
	net_buf_simple_add_u8(cfg->frnd);                 /* line 7: NPD */
}

static void friend_set(struct bt_mesh_model *model) {
	struct bt_mesh_cfg_srv *cfg = (struct bt_mesh_cfg_srv *)model->user_data;
	if (!cfg) {
		goto send_status;
	}
	cfg->frnd = 1;
send_status:
	send_friend_status(model);
}`})
	lines := linesOf(res, typestate.NPD)
	if !lines[7] {
		t.Fatalf("missed the Figure 3 NPD at line 7; got %v", lines)
	}
}

func TestNPDFigure12aMCDE(t *testing.T) {
	// Multiple dereferences after one null check across a call: each unsafe
	// dereference is a separate report, as in the paper's MCDE case study.
	res := run(t, core.Config{}, map[string]string{"mcde_dsi.c": `
struct mdsi { int mode_flags; int lanes; };
struct mcde_dsi { struct mdsi *mdsi; };

static void mcde_dsi_start(struct mcde_dsi *d) {
	int val = 0;
	if (d->mdsi->mode_flags > 0)   /* line 7: NPD */
		val = val | 1;
	if (d->mdsi->lanes == 2)       /* line 9: NPD */
		val = val | 2;
	use_val(val);
}

static int mcde_dsi_bind(struct mcde_dsi *d) {
	if (d->mdsi)
		attach(d);
	mcde_dsi_start(d);
	return 0;
}`})
	lines := linesOf(res, typestate.NPD)
	if !lines[7] || !lines[9] {
		t.Fatalf("missed MCDE NPDs; got %v", lines)
	}
	if countType(res, typestate.NPD) < 2 {
		t.Errorf("each unsafe dereference should report; got %d", countType(res, typestate.NPD))
	}
}

func TestNPDInfeasiblePathDropped(t *testing.T) {
	// The Figure 9 pattern: the "bug" needs q != 0 and q == 0 on one path —
	// infeasible. The candidate reaches Stage 2 and alias-aware validation
	// must drop it.
	src := map[string]string{"a.c": `
struct s { int f; };
void func(struct s *p, char *q) {
	struct s *t;
	if (q == 0)
		p->f = 0;
	t = p;
	if (t->f != 0) {
		if (q == 0)
			use(*q);        /* line 10: only reachable when q != 0 AND q == 0 */
	}
}`}
	res := run(t, core.Config{}, src)
	for _, b := range res.Bugs {
		if b.BugInstr.Position().Line == 10 {
			t.Errorf("infeasible-path bug at line 10 survived validation")
		}
	}
	if res.Stats.FalseDropped == 0 {
		t.Errorf("expected at least one false bug dropped, stats: %+v", res.Stats)
	}
}

func TestUVAFigure12dTencentOS(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"pthread.c": `
struct ktask { int knl_obj; };
struct pthread_ctl { struct ktask ktask; };

static long knl_object_verify(struct ktask *obj) {
	return obj->knl_obj;                /* line 6: UVA */
}

static long tos_task_create(struct ktask *task) {
	return knl_object_verify(task);
}

int pthread_create(void) {
	char *stackaddr;
	struct pthread_ctl *the_ctl;
	long kerr;
	stackaddr = (char *)tos_mmheap_alloc(512);
	the_ctl = (struct pthread_ctl *)stackaddr;
	kerr = tos_task_create(&the_ctl->ktask);
	return kerr;
}`})
	lines := linesOf(res, typestate.UVA)
	if !lines[6] {
		t.Fatalf("missed the TencentOS UVA at line 6; got %v", lines)
	}
}

func TestUVANoFalsePositiveAfterMemset(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
struct ctl { int x; };
int f(void) {
	struct ctl *c = (struct ctl *)tos_mmheap_alloc(64);
	memset(c, 0, 64);
	return c->x;
}`})
	if n := countType(res, typestate.UVA); n != 0 {
		t.Errorf("memset-initialized access flagged: %d UVA bugs", n)
	}
}

func TestMLFigure12cRIOT(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"syscall.c": `
char *make_message(int size) {
	char *message;
	int n;
	message = (char *)malloc(size);
	if (message == NULL)
		return NULL;
	n = vsnprintf_model(size);
	if (n < 0)
		return NULL;     /* line 10: leak — message not freed */
	return message;
}`})
	lines := linesOf(res, typestate.ML)
	if !lines[10] {
		t.Fatalf("missed the RIOT leak at line 10; got %v", lines)
	}
	// Returning the pointer or freeing it is not a leak.
	for l := range lines {
		if l != 10 {
			t.Errorf("spurious ML report at line %d", l)
		}
	}
}

func TestMLFreeAndEscapeSuppress(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
struct holder { char *buf; };
int ok_free(int n) {
	char *p = (char *)malloc(n);
	if (n > 0)
		free(p);
	else
		free(p);
	return 0;
}
int ok_escape(struct holder *h, int n) {
	h->buf = (char *)malloc(n);
	return 0;
}
int ok_publish(int n) {
	char *p = (char *)malloc(n);
	register_buffer(p);
	return 0;
}`})
	if n := countType(res, typestate.ML); n != 0 {
		t.Errorf("freed/escaped allocations flagged as leaks: %d", n)
	}
}

func TestDLDoubleLock(t *testing.T) {
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewDL()}}, map[string]string{"a.c": `
struct mutex { int held; };
void bad(struct mutex *m, int c) {
	mutex_lock(m);
	if (c)
		mutex_lock(m);   /* line 6: double lock */
	mutex_unlock(m);
}
void good(struct mutex *m) {
	mutex_lock(m);
	mutex_unlock(m);
	mutex_lock(m);
	mutex_unlock(m);
}`})
	lines := linesOf(res, typestate.DL)
	if !lines[6] {
		t.Errorf("missed double lock; got %v", lines)
	}
	if len(lines) != 1 {
		t.Errorf("expected exactly the line-6 report, got %v", lines)
	}
}

func TestAIUUnderflow(t *testing.T) {
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewAIU()}}, map[string]string{"a.c": `
int pick(int *a, int i) {
	if (i < 0)
		return a[i];   /* line 4: underflow */
	return a[i];
}`})
	lines := linesOf(res, typestate.AIU)
	if !lines[4] {
		t.Errorf("missed index underflow; got %v", lines)
	}
	if lines[5] {
		t.Errorf("false underflow on checked branch")
	}
}

func TestDBZDivisionByZero(t *testing.T) {
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewDBZ()}}, map[string]string{"a.c": `
int ratio(int a, int b) {
	if (b == 0)
		return a / b;   /* line 4: division by zero */
	return a / b;
}`})
	lines := linesOf(res, typestate.DBZ)
	if !lines[4] {
		t.Errorf("missed division by zero; got %v", lines)
	}
	if lines[5] {
		t.Errorf("false DBZ on checked branch")
	}
}

func TestSensitivityPATAvsNA(t *testing.T) {
	// The Figure 3 alias-chain bug: PATA finds it, PATA-NA cannot (the
	// chain runs through a struct field).
	src := map[string]string{"cfg_srv.c": `
struct srv { int frnd; };
struct model { void *user_data; };
static void status(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	use(cfg->frnd);
}
static void entry_fn(struct model *m) {
	struct srv *cfg = (struct srv *)m->user_data;
	if (!cfg)
		status(m);
}`}
	pata := run(t, core.Config{Mode: core.ModePATA}, src)
	na := run(t, core.Config{Mode: core.ModeNoAlias}, src)
	if countType(pata, typestate.NPD) == 0 {
		t.Fatal("PATA must find the alias-chain NPD")
	}
	if countType(na, typestate.NPD) != 0 {
		t.Errorf("PATA-NA should miss the alias-chain NPD (found %d)", countType(na, typestate.NPD))
	}
}

func TestNAKeepsInfeasibleBug(t *testing.T) {
	// The Figure 9 trap again: PATA-NA's per-variable symbols miss the
	// contradiction, so the false bug survives its validation.
	src := map[string]string{"a.c": `
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
}`}
	pata := run(t, core.Config{Mode: core.ModePATA}, src)
	na := run(t, core.Config{Mode: core.ModeNoAlias}, src)
	pataAt10 := false
	for _, b := range pata.Bugs {
		if b.BugInstr.Position().Line == 10 {
			pataAt10 = true
		}
	}
	naAt10 := false
	for _, b := range na.Bugs {
		if b.BugInstr.Position().Line == 10 {
			naAt10 = true
		}
	}
	if pataAt10 {
		t.Error("PATA should drop the infeasible bug")
	}
	if !naAt10 {
		t.Error("PATA-NA should keep the infeasible bug (the paper's FP mechanism)")
	}
}

func TestStatsShapes(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
struct s { int f; };
int f(struct s *p) {
	struct s *t = p;
	if (!t)
		return p->f;
	return t->f;
}`})
	st := res.Stats
	if st.EntryFunctions != 1 {
		t.Errorf("entries = %d", st.EntryFunctions)
	}
	if st.PathsExplored < 2 {
		t.Errorf("paths = %d, want >= 2", st.PathsExplored)
	}
	if st.Typestates == 0 || st.TypestatesUnaware <= st.Typestates {
		t.Errorf("typestate counters: aware=%d unaware=%d", st.Typestates, st.TypestatesUnaware)
	}
	if st.ConstraintsUnaware <= st.Constraints {
		t.Errorf("constraint counters: aware=%d unaware=%d", st.Constraints, st.ConstraintsUnaware)
	}
}

func TestLoopUnrolledOnce(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
int f(int n) {
	int s = 0;
	while (n > 0) {
		s = s + n;
		n = n - 1;
	}
	return s;
}`})
	if res.Stats.PathsExplored == 0 || res.Stats.PathsExplored > 10 {
		t.Errorf("loop should unroll once: paths = %d", res.Stats.PathsExplored)
	}
}

func TestRecursionUnrolledOnce(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
int fact(int n) {
	if (n <= 1)
		return 1;
	return n * fact(n - 1);
}
int root(int n) { return fact(n); }
`})
	if res.Stats.PathsExplored == 0 {
		t.Error("no paths explored")
	}
	if res.Stats.Budgeted != 0 {
		t.Error("recursion must not blow the budget when unrolled once")
	}
}

func TestDedupDropsRepeatedBugs(t *testing.T) {
	// Two paths reach the same (origin, bug) pair: one candidate, one drop.
	res := run(t, core.Config{}, map[string]string{"a.c": `
struct s { int f; };
int f(struct s *p, int c) {
	int x = 0;
	if (!p) {
		if (c)
			x = 1;
		else
			x = 2;
		return p->f + x;    /* same NPD reached via two sub-paths */
	}
	return 0;
}`})
	if res.Stats.RepeatedDropped == 0 {
		t.Errorf("expected repeated-bug drops, stats: %+v", res.Stats)
	}
	if n := countType(res, typestate.NPD); n != 1 {
		t.Errorf("NPD should be reported once, got %d", n)
	}
}

func TestEntryFunctionCount(t *testing.T) {
	res := run(t, core.Config{}, map[string]string{"a.c": `
static int helper(int a) { return a; }
int entry1(int a) { return helper(a); }
int entry2(int a) { return helper(a); }
`})
	if res.Stats.EntryFunctions != 2 {
		t.Errorf("entries = %d, want 2", res.Stats.EntryFunctions)
	}
}

// TestBudgetNegativeUnlimited locks in the budget semantics: 0 selects the
// documented default and any negative value means unlimited.
func TestBudgetNegativeUnlimited(t *testing.T) {
	// 12 branches explode to 2^12 = 4096 paths: past the small positive
	// cap below but within the default step budget, so the unlimited-path
	// run completes without tripping anything.
	var sb strings.Builder
	sb.WriteString("int f(int a, int b) {\n\tint s = 0;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "\tif (a > %d)\n\t\ts = s + 1;\n", i)
	}
	sb.WriteString("\treturn s;\n}\n")
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": sb.String()})
	if err != nil {
		t.Fatal(err)
	}

	capped := core.Config{MaxPathsPerEntry: 64}
	cres := core.RunParallel(mod, capped, 1)
	if cres.Stats.Budgeted != 1 {
		t.Errorf("capped run not budgeted: %+v", cres.Stats)
	}

	unlimited := core.Config{MaxPathsPerEntry: -1}
	ures := core.RunParallel(mod, unlimited, 1)
	if ures.Stats.Budgeted != 0 {
		t.Errorf("unlimited run hit a budget: %+v", ures.Stats)
	}
	if ures.Stats.PathsExplored <= cres.Stats.PathsExplored {
		t.Errorf("unlimited run explored %d paths, capped run %d",
			ures.Stats.PathsExplored, cres.Stats.PathsExplored)
	}

	unlimitedSteps := core.Config{MaxStepsPerEntry: -1, MaxPathsPerEntry: 1 << 20}
	if res := core.RunParallel(mod, unlimitedSteps, 1); res.Stats.Budgeted != 0 {
		t.Errorf("negative step budget not treated as unlimited: %+v", res.Stats)
	}
}
