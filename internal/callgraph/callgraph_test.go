package callgraph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cir"
	"repro/internal/minicc"
)

func lower(t *testing.T, src string) *cir.Module {
	t.Helper()
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": src})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

const src = `
static int helper(int a) { return a + 1; }
static int middle(int a) { return helper(a); }
int top(int a) { return middle(a) + helper(a); }
static int probe_fn(int a) { return helper(a); }
static struct driver drv = { .probe = probe_fn };
int unused_decl(int a);
`

func TestBuild(t *testing.T) {
	mod := lower(t, src)
	g := Build(mod)
	if got := g.Callees["top"]; len(got) != 2 {
		t.Errorf("top callees = %v", got)
	}
	if got := g.Callers["helper"]; len(got) != 3 {
		t.Errorf("helper callers = %v", got)
	}
}

func TestEntryFunctions(t *testing.T) {
	mod := lower(t, src)
	g := Build(mod)
	entries := map[string]bool{}
	for _, fn := range g.EntryFunctions() {
		entries[fn.Name] = true
	}
	// top has no caller; probe_fn is only referenced via the ops struct so
	// it has no *explicit* caller — the Figure 1 situation.
	if !entries["top"] || !entries["probe_fn"] {
		t.Errorf("entries = %v, want top and probe_fn", entries)
	}
	if entries["helper"] || entries["middle"] {
		t.Errorf("called functions must not be entries: %v", entries)
	}
	if entries["unused_decl"] {
		t.Error("declarations are never entries")
	}
	if !mod.AddressTaken["probe_fn"] {
		t.Error("probe_fn should be recorded address-taken")
	}
}

func TestIsEntryAndReachable(t *testing.T) {
	mod := lower(t, src)
	g := Build(mod)
	if !g.IsEntry("top") || g.IsEntry("helper") || g.IsEntry("missing") {
		t.Error("IsEntry misclassifies")
	}
	r := g.ReachableFrom("top")
	for _, want := range []string{"top", "middle", "helper"} {
		if !r[want] {
			t.Errorf("reachable from top missing %s", want)
		}
	}
	if r["probe_fn"] {
		t.Error("probe_fn is not reachable from top")
	}
}

func TestRecursionDoesNotLoop(t *testing.T) {
	mod := lower(t, `
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int root(int n) { return even(n); }
`)
	g := Build(mod)
	r := g.ReachableFrom("root")
	if !r["even"] || !r["odd"] {
		t.Errorf("mutual recursion reachability: %v", r)
	}
	if len(g.EntryFunctions()) != 1 {
		t.Errorf("entries = %v", g.EntryFunctions())
	}
}

// TestDeriveSharesUntouchedSlices: a derived graph shares the Callees and
// Callers slices of every function the edit did not touch with its
// predecessor, gives the moved ones new slices, and carries the key bases
// of entries that reach no changed function.
func TestDeriveSharesUntouchedSlices(t *testing.T) {
	files := map[string]string{
		"a.c": "int leaf(int a);\nint mid(int a) { return leaf(a); }\nint top(int a) { return mid(a); }\n",
		"b.c": "int leaf(int a) { return a; }\nint other(int a) { return a; }\nint side(int a) { return other(a); }\n",
		"c.c": "int alone(int a) { return a + 1; }\n",
	}
	low, err := minicc.LowerProgram("m", files)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(low.Mod)
	for _, fn := range g.EntryFunctions() {
		g.EntryKey(fn, 0)
	}
	// leaf now calls other, which gains a caller. Every function of b.c is
	// new, so the entries side and top, which reaches leaf, are re-keyed;
	// alone keeps its base.
	edited := strings.Replace(files["b.c"], "{ return a; }", "{ return other(a); }", 1)
	next := low.Relower(map[string]string{"b.c": edited})
	if next == nil {
		t.Fatal("Relower declined a body edit")
	}
	ng, d := g.Derive(next.Mod)
	if !slices.Equal(d.Changed, []string{"leaf", "other", "side"}) {
		t.Errorf("changed = %v", d.Changed)
	}
	if got := names(d.Rekeyed); !slices.Equal(got, []string{"side", "top"}) {
		t.Errorf("rekeyed = %v", got)
	}
	same := func(a, b []string) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	if !same(ng.Callees["mid"], g.Callees["mid"]) || !same(ng.Callers["leaf"], g.Callers["leaf"]) {
		t.Error("untouched slices are not shared")
	}
	if same(ng.Callers["other"], g.Callers["other"]) || !slices.Equal(ng.Callers["other"], []string{"leaf", "side"}) {
		t.Errorf("other's callers = %v, want a new [leaf side]", ng.Callers["other"])
	}
	if _, ok := ng.bases[next.Mod.Funcs["alone"]]; !ok {
		t.Error("alone's key base was not carried")
	}
	if _, ok := ng.bases[next.Mod.Funcs["top"]]; ok {
		t.Error("top's key base was carried across the edit of leaf")
	}
	built := Build(next.Mod)
	for _, fn := range ng.EntryFunctions() {
		if ng.EntryKey(fn, 7) != built.EntryKey(fn, 7) {
			t.Errorf("EntryKey(%s) differs from Build's", fn.Name)
		}
	}
}

func names(fns []*cir.Function) []string {
	var out []string
	for _, fn := range fns {
		out = append(out, fn.Name)
	}
	return out
}
