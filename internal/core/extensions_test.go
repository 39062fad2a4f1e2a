package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/typestate"
)

func TestUAFUseAfterFree(t *testing.T) {
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewUAF()}},
		map[string]string{"a.c": `
struct buf { int len; };
int bad(int n) {
	struct buf *b = (struct buf *)malloc(n);
	if (!b)
		return -12;
	free(b);
	return b->len;     /* line 8: use after free */
}
int ok(int n) {
	struct buf *b = (struct buf *)malloc(n);
	if (!b)
		return -12;
	int len = b->len;
	free(b);
	return len;
}`})
	lines := linesOf(res, typestate.UAF)
	if !lines[8] {
		t.Errorf("missed UAF at line 8; got %v", lines)
	}
	if len(lines) != 1 {
		t.Errorf("spurious UAF reports: %v", lines)
	}
}

func TestUAFDoubleFree(t *testing.T) {
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewUAF()}},
		map[string]string{"a.c": `
int twice(int n) {
	char *p = (char *)malloc(n);
	if (!p)
		return -12;
	free(p);
	free(p);           /* line 7: double free */
	return 0;
}`})
	lines := linesOf(res, typestate.UAF)
	if !lines[7] {
		t.Errorf("missed double free; got %v", lines)
	}
}

func TestUAFThroughAlias(t *testing.T) {
	// The freed pointer is used through an alias — needs the alias graph.
	res := run(t, core.Config{Checkers: []typestate.Checker{typestate.NewUAF()}},
		map[string]string{"a.c": `
struct buf { int len; };
int bad(int n) {
	struct buf *b = (struct buf *)malloc(n);
	struct buf *alias = b;
	if (!b)
		return -12;
	free(b);
	return alias->len;   /* line 9: UAF through the alias */
}`})
	lines := linesOf(res, typestate.UAF)
	if !lines[9] {
		t.Errorf("missed aliased UAF; got %v", lines)
	}
	// PATA-NA misses it: free(b) and alias live in separate classes... the
	// direct copy alias IS tracked by NA through Move, so NA finds this one
	// too; route through a struct field to break it.
	res = run(t, core.Config{Checkers: []typestate.Checker{typestate.NewUAF()}, Mode: core.ModeNoAlias},
		map[string]string{"a.c": `
struct holder { char *buf; };
int bad(struct holder *h, int n) {
	h->buf = (char *)malloc(n);
	if (!h->buf)
		return -12;
	free(h->buf);
	return *h->buf;    /* field-aliased UAF: invisible without aliasing */
}`})
	if n := countType(res, typestate.UAF); n != 0 {
		t.Errorf("PATA-NA should miss the field-aliased UAF, found %d", n)
	}
}

func TestLoopUnrollFactorRecoversMultiIterationBug(t *testing.T) {
	src := map[string]string{"a.c": `
void f(char *p) {
	int n = 0;
	int i = 0;
	while (i < 2) {
		n = n + 1;
		i = i + 1;
	}
	if (n == 2) {
		if (!p)
			use(*p);   /* needs two loop iterations to reach */
	}
}`}
	// Unroll once (paper default): the path has n == 1, the n == 2 guard is
	// infeasible, and validation drops the candidate — a §3.1 soundness
	// loss.
	once := run(t, core.Config{}, src)
	if n := countType(once, typestate.NPD); n != 0 {
		t.Errorf("unroll-once should lose the multi-iteration bug, found %d", n)
	}
	// LoopUnroll K permits K-1 complete iterations plus the exit test, so
	// the two-iteration trigger needs K = 3.
	three := run(t, core.Config{LoopUnroll: 3}, src)
	if n := countType(three, typestate.NPD); n == 0 {
		t.Error("unroll=3 should recover the two-iteration bug")
	}
}

func TestLoopUnrollCostGrows(t *testing.T) {
	src := map[string]string{"a.c": `
int f(int n) {
	int s = 0;
	int i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}`}
	r1 := run(t, core.Config{}, src)
	r3 := run(t, core.Config{LoopUnroll: 3}, src)
	if r3.Stats.StepsExecuted <= r1.Stats.StepsExecuted {
		t.Errorf("unroll=3 steps (%d) should exceed unroll=1 (%d)",
			r3.Stats.StepsExecuted, r1.Stats.StepsExecuted)
	}
}

func TestBudgetCapsRespected(t *testing.T) {
	// A function with many sequential branches would have 2^20 paths; the
	// budget must stop it and flag the entry.
	var sb []byte
	sb = append(sb, []byte("int f(int a) {\n\tint s = 0;\n")...)
	for i := 0; i < 20; i++ {
		sb = append(sb, []byte("\tif (a > 0)\n\t\ts = s + 1;\n")...)
	}
	sb = append(sb, []byte("\treturn s;\n}\n")...)
	res := run(t, core.Config{MaxPathsPerEntry: 50}, map[string]string{"a.c": string(sb)})
	if res.Stats.PathsExplored > 60 {
		t.Errorf("path budget ignored: %d paths", res.Stats.PathsExplored)
	}
	if res.Stats.Budgeted != 1 {
		t.Errorf("budgeted entries = %d, want 1", res.Stats.Budgeted)
	}
}

func TestMaxCallDepthPrunes(t *testing.T) {
	src := map[string]string{"a.c": `
struct s { int f; };
static int l5(struct s *p) { return p->f; }
static int l4(struct s *p) { return l5(p); }
static int l3(struct s *p) { return l4(p); }
static int l2(struct s *p) { return l3(p); }
static int l1(struct s *p) { if (!p) return l2(p); return 0; }
`}
	deep := run(t, core.Config{MaxCallDepth: 8}, src)
	if n := countType(deep, typestate.NPD); n == 0 {
		t.Error("deep inlining should find the chained NPD")
	}
	shallow := run(t, core.Config{MaxCallDepth: 2}, src)
	if n := countType(shallow, typestate.NPD); n != 0 {
		t.Errorf("depth-2 should prune the 4-deep chain, found %d", n)
	}
}

func TestGlobalsAreSafeStorage(t *testing.T) {
	// Dereferencing a global's own storage is not an NPD.
	res := run(t, core.Config{}, map[string]string{"a.c": `
int counter;
int bump(void) {
	counter = counter + 1;
	return counter;
}`})
	if len(res.Bugs) != 0 {
		t.Errorf("global access flagged: %+v", res.Bugs)
	}
}

func TestAllSevenCheckersTogether(t *testing.T) {
	res := run(t, core.Config{Checkers: typestate.AllCheckers()}, map[string]string{"a.c": `
struct mutex { int owner; };
struct dev { int flags; };
int everything(struct dev *d, struct mutex *m, int *arr, int idx, int div) {
	int v = 0;
	if (!d)
		v = d->flags;                 /* NPD */
	mutex_lock(m);
	if (v)
		mutex_lock(m);                /* DL */
	if (idx < 0)
		v = v + arr[idx];             /* AIU */
	if (div == 0)
		v = v / div;                  /* DBZ */
	mutex_unlock(m);
	char *p = (char *)malloc(8);
	if (!p)
		return -12;
	free(p);
	v = v + *p;                       /* UAF */
	return v;                         /* no leak: freed */
}`})
	want := map[typestate.BugType]bool{
		typestate.NPD: true, typestate.DL: true, typestate.AIU: true,
		typestate.DBZ: true, typestate.UAF: true,
	}
	for bt := range want {
		if countType(res, bt) == 0 {
			t.Errorf("%s not found in combined run", bt)
		}
	}
	if countType(res, typestate.ML) != 0 {
		t.Error("freed allocation flagged as leak")
	}
}
