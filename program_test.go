package pata

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/acache"
	"repro/internal/cir"
	"repro/internal/cir/cirtest"
	"repro/internal/core"
	"repro/internal/oscorpus"
)

// TestProgramUpdateEquivalence walks an oscorpus.Mutate edit sequence over
// the seed-1 linux-like corpus (the bench's scan-linux corpus at scale 1).
// At every step the Program Update returns, analyzed through a warm cache,
// renders byte-for-byte what a fresh Load of the edited sources renders
// without one, and Update's frontier is exactly the set of entries the
// cached Analyze re-ran: its CacheEntriesMiss set.
func TestProgramUpdateEquivalence(t *testing.T) {
	spec := oscorpus.LinuxSpec()
	spec.Seed++
	c := oscorpus.Generate(spec)
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Config{}.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Entries that reach Stage 1 are exactly the cache misses; the fault
	// hook sees each of them and injects nothing.
	var mu sync.Mutex
	ran := make(map[string]bool)
	cached := cold
	cached.Cache = store
	cached.FaultHook = func(entry string, rung int) *core.FaultSpec {
		mu.Lock()
		ran[entry] = true
		mu.Unlock()
		return nil
	}
	ctx := context.Background()

	prog, err := Load(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	prog.Analyze(ctx, cached, 0, false) // fills the store
	sources := c.Sources
	steps := 4
	if testing.Short() {
		steps = 2
	}
	for step := 1; step <= steps; step++ {
		edited, mutated := oscorpus.Mutate(sources, 2, int64(step))
		set := make(map[string]string)
		for name, src := range edited {
			if src != sources[name] {
				set[name] = src
			}
		}
		next, changed, frontier, err := prog.Update(set, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !slices.Equal(changed, mutated) {
			t.Errorf("step %d: changed = %v, want the mutated functions %v", step, changed, mutated)
		}
		if len(frontier) == 0 {
			t.Fatalf("step %d: empty frontier for mutations of %v", step, mutated)
		}

		clear(ran)
		got := next.Analyze(ctx, cached, 0, true)
		fresh, err := Load(c.Spec.Name, edited)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Analyze(ctx, cold, 0, true)
		if got.Report() != want.Report() {
			t.Errorf("step %d: Update+Analyze report differs from a fresh Load:\n--- update\n%s--- fresh\n%s",
				step, got.Report(), want.Report())
		}
		if !reflect.DeepEqual(got.Bugs, want.Bugs) {
			t.Errorf("step %d: Update+Analyze bugs (witnesses included) differ from a fresh Load", step)
		}
		var misses []string
		for name := range ran {
			misses = append(misses, name)
		}
		if slices.Sort(misses); !slices.Equal(frontier, misses) {
			t.Errorf("step %d: frontier %v != entries the cached analyze missed %v", step, frontier, misses)
		}
		if int64(len(frontier)) != got.Stats.CacheEntriesMiss {
			t.Errorf("step %d: frontier of %d entries, CacheEntriesMiss %d",
				step, len(frontier), got.Stats.CacheEntriesMiss)
		}
		prog, sources = next, edited
	}
}

// updateBase is a three-file program for the Update tests: a prototype
// defined in another file, colliding statics, a callee no file declares
// and an identifier naming it, and an ops-struct initializer.
var updateBase = map[string]string{
	"a.c": `struct dev { int flags; struct dev *next; };
int helper(struct dev *d);
static int local(int x) { return x + 1; }
int probe(struct dev *d) {
	if (!d)
		return d->flags;
	return helper(d) + local(d->flags) + ext_log(d->flags);
}
`,
	"b.c": `struct dev { int flags; struct dev *next; };
int helper(struct dev *d) {
	if (d->next)
		return d->next->flags;
	return 0;
}
static int local(int x) { return x - 1; }
int use_local(int y) { return local(y); }
`,
	"c.c": `static struct driver_ops probe_ops = { .probe = probe };
int uses_ext(void) { return ext_log; }
int tail(int n) {
	char *p = (char *)kmalloc(n);
	if (!p)
		return p[0];
	kfree(p);
	return 0;
}
`,
}

// checkUpdate applies set and remove to p through Update and checks the
// result against a fresh Load of the edited sources: the same error, or a
// module that is the same up to GIDs (cirtest.NormalizedDigest) with the
// same changed functions and frontier as diffing p against that Load.
// When Update took the Relower path, it also checks the derived call
// graph (checkDerivedGraph).
func checkUpdate(t *testing.T, p *Program, set map[string]string, remove []string) *Program {
	t.Helper()
	next, changed, frontier, err := p.Update(set, remove)
	sources := maps.Clone(p.sources)
	maps.Copy(sources, set)
	for _, name := range remove {
		delete(sources, name)
	}
	want, werr := Load(p.name, sources)
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("Update error %v, Load error %v", err, werr)
		}
		return nil
	}
	if got, want := normalizedDigest(t, next), normalizedDigest(t, want); got != want {
		t.Errorf("Update's module differs from a fresh Load's")
	}
	want.Index()
	wchanged, wfrontier := p.diff(want, nil)
	if !slices.Equal(changed, wchanged) || !slices.Equal(frontier, wfrontier) {
		t.Errorf("Update changed %v, frontier %v; against a fresh Load: changed %v, frontier %v",
			changed, frontier, wchanged, wfrontier)
	}
	if next.derivedFrom(p) {
		checkDerivedGraph(t, p, next, changed, frontier)
	}
	return next
}

func normalizedDigest(t *testing.T, p *Program) string {
	t.Helper()
	d, err := cirtest.NormalizedDigest(p.low.Mod)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestUpdateMatchesLoad checks Update against a fresh Load along an
// oscorpus.Mutate edit sequence, which takes the re-lowering fast path at
// every step, and on hand-written edits that take it or fall back.
func TestUpdateMatchesLoad(t *testing.T) {
	t.Run("mutate sequence", func(t *testing.T) {
		c := oscorpus.Generate(oscorpus.LinuxSpec())
		prog, err := Load(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		sources := c.Sources
		for step := range 6 {
			edited, _ := oscorpus.Mutate(sources, 2, int64(step+1))
			set := make(map[string]string)
			for name, src := range edited {
				if src != sources[name] {
					set[name] = src
				}
			}
			prog, sources = checkUpdate(t, prog, set, nil), edited
		}
	})
	edit := func(file, old, new string) map[string]string {
		if !strings.Contains(updateBase[file], old) {
			t.Fatalf("%s lacks %q", file, old)
		}
		return map[string]string{file: strings.Replace(updateBase[file], old, new, 1)}
	}
	for _, c := range []struct {
		name   string
		set    map[string]string
		remove []string
	}{
		{"new implicit declaration", edit("b.c", "return 0;", "return new_ext(d->flags, 1);"), nil},
		{"newly address-taken function", edit("b.c", "return 0;", "return tail ? 1 : 0;"), nil},
		{"line shift", edit("a.c", "struct dev", "\n\nstruct dev"), nil},
		{"changed struct", edit("a.c", "int flags;", "int flags; int more;"), nil},
		{"changed prototype", edit("a.c", "int helper(struct dev *d);", "int helper(struct dev *d, int n);"), nil},
		{"identifier loses its declaring call", edit("a.c", " + ext_log(d->flags)", ""), nil},
		{"file added", map[string]string{"d.c": "int extra(int *q) { if (!q) return *q; return 0; }\n"}, nil},
		{"file removed", nil, []string{"b.c"}},
		{"parse error", map[string]string{"b.c": "int helper( {"}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Load("m", updateBase)
			if err != nil {
				t.Fatal(err)
			}
			checkUpdate(t, prog, c.set, c.remove)
		})
	}
}

// TestUpdateSharesUnchangedFunctions: an Update that edits function bodies
// shares every function of the unchanged files with the previous Program,
// pointer for pointer, and makes new ones for the edited files; it writes
// nothing of the previous Program, which an Analyze runs on meanwhile (the
// race detector checks the overlap).
func TestUpdateSharesUnchangedFunctions(t *testing.T) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	prog, err := Load(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	prog.Index()
	before := cirtest.Digest(prog.low.Mod)
	ec, err := Config{}.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result)
	go func() { done <- prog.Analyze(context.Background(), ec, 2, true) }()

	edited, mutated := oscorpus.Mutate(c.Sources, 2, 1)
	set := make(map[string]string)
	for name, src := range edited {
		if src != c.Sources[name] {
			set[name] = src
		}
	}
	next, changed, _, err := prog.Update(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(changed, mutated) {
		t.Errorf("changed = %v, want %v", changed, mutated)
	}
	shared := 0
	for name, fn := range next.low.Mod.Funcs {
		old := prog.low.Mod.Funcs[name]
		_, edited := set[fn.File]
		switch {
		case fn.File == "": // implicit declarations are remade
		case edited && fn == old:
			t.Errorf("%s of edited file %s is shared", name, fn.File)
		case !edited && fn != old:
			t.Errorf("%s of unchanged file %s is not shared", name, fn.File)
		case !edited:
			shared++
		}
	}
	if shared == 0 {
		t.Error("no function shared")
	}
	res := <-done
	if after := cirtest.Digest(prog.low.Mod); after != before {
		t.Error("Update changed the previous Program's module")
	}
	if again := prog.Analyze(context.Background(), ec, 1, true); again.Report() != res.Report() {
		t.Error("the previous Program analyzes differently after Update")
	}
}

// FuzzUpdate replaces the middle file of updateBase with fuzzer bytes:
// Update must match a fresh Load of the result, with the same error or the
// same module up to GIDs, changed functions and frontier, and a call graph
// it derived must match callgraph.Build's (checkUpdate).
func FuzzUpdate(f *testing.F) {
	for _, s := range []string{
		updateBase["b.c"],
		strings.Replace(updateBase["b.c"], "return 0;", "return 7;", 1),
		strings.Replace(updateBase["b.c"], "return 0;", "return ext_log(1) + new_ext();", 1),
		strings.Replace(updateBase["b.c"], "return 0;", "struct tmp *t = 0;\n\treturn t == 0;", 1),
		strings.Replace(updateBase["b.c"], "int flags;", "int flags; int more;", 1),
		strings.Replace(updateBase["b.c"], "static int local", "int local", 1),
		"\n" + updateBase["b.c"],
		"", "int helper( {", "int helper(struct dev *d) { return nowhere; }",
		// Edits that move call edges.
		strings.Replace(updateBase["b.c"], "return local(y);", "return helper(0);", 1),
		strings.Replace(updateBase["b.c"], "return local(y);", "return y;", 1),
		strings.Replace(updateBase["b.c"], "return 0;", "return use_local(0);", 1),
		strings.Replace(updateBase["b.c"], "return 0;", "return probe(d) + tail(1);", 1),
		// A changed return type changes how a.c, itself unchanged, lowers
		// its call.
		strings.Replace(updateBase["b.c"], "int helper(struct dev *d) {", "int *helper(struct dev *d) {", 1),
	} {
		f.Add(s)
	}
	prog, err := Load("m", updateBase)
	if err != nil {
		f.Fatal(err)
	}
	prog.Index()
	f.Fuzz(func(t *testing.T, src string) {
		if strings.Count(src, "{")+strings.Count(src, "(") > 2000 {
			t.Skip() // the parser's recursion depth, as in FuzzParse
		}
		checkUpdate(t, prog, map[string]string{"b.c": src}, nil)
	})
}

// valueIDs checks p's module numbering: every register and global holds a
// nonzero value ID no higher than MaxVID that nothing else holds, every
// register of a function p shares with prev (nil for none; otherwise some
// function must be shared) keeps the ID it had there, and every call finds
// its callee through the callee table. It returns the registers' IDs for
// the next step's check.
func valueIDs(t *testing.T, step int, p *Program, prev map[*cir.Register]int) map[*cir.Register]int {
	t.Helper()
	mod := p.low.Mod
	owner := make(map[int]string)
	claim := func(v cir.Value, where string) int {
		id := cir.VID(v)
		if id <= 0 || id > mod.MaxVID() {
			t.Fatalf("step %d: %s %s has value ID %d, MaxVID %d", step, where, v, id, mod.MaxVID())
		}
		if other, dup := owner[id]; dup {
			t.Fatalf("step %d: value ID %d held by %s and by %s %s", step, id, other, where, v)
		}
		owner[id] = where + " " + v.String()
		return id
	}
	for _, g := range mod.Globals {
		claim(g, "global")
	}
	ids := make(map[*cir.Register]int)
	shared := 0
	for _, fn := range mod.SortedFuncs() {
		regs := slices.Clone(fn.Params)
		fn.Instrs(func(in cir.Instr) {
			if d := in.Dest(); d != nil {
				regs = append(regs, d)
			}
			if c, ok := in.(*cir.Call); ok && mod.Callee(c) != mod.Funcs[c.Callee] {
				t.Fatalf("step %d: %s's call of %s resolves to another function", step, fn.Name, c.Callee)
			}
		})
		for _, r := range regs {
			ids[r] = claim(r, fn.Name)
			if old, ok := prev[r]; ok {
				if shared++; old != ids[r] {
					t.Fatalf("step %d: shared %s's %s moved from value ID %d to %d", step, fn.Name, r, old, ids[r])
				}
			}
		}
	}
	if prev != nil && shared == 0 {
		t.Fatalf("step %d: Update shared no function", step)
	}
	return ids
}

// TestRelowerValueIDsUnique: along a chain of Program.Updates that Relower
// serves, value IDs stay unique and the shared functions' registers keep
// theirs; and once re-lowering a register-dense function outgrows the
// value-ID bound (minicc's TestRelowerBoundsValueIDSpace shows it is that
// bound and not the GID one), Update falls back to a fresh Load, which
// numbers densely again.
func TestRelowerValueIDsUnique(t *testing.T) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	prog, err := Load(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	ids := valueIDs(t, 0, prog, nil)
	sources := c.Sources
	for step := 1; step <= 6; step++ {
		edited, _ := oscorpus.Mutate(sources, 2, int64(step))
		set := make(map[string]string)
		for name, src := range edited {
			if src != sources[name] {
				set[name] = src
			}
		}
		next, _, _, err := prog.Update(set, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = valueIDs(t, step, next, ids)
		prog, sources = next, edited
	}

	// big has many instructions and two registers, dense about as many
	// registers as instructions: re-lowering dense fills the value-ID
	// space about four times as fast as the GID space.
	sparse := map[string]string{
		"a.c": "void g(void);\nvoid big(int y) {" + strings.Repeat(" g();", 60) + " }\n",
	}
	body := func(k int) string {
		return "int dense(int x) { return x" + strings.Repeat(" + x", 9) + " + " + strconv.Itoa(k) + "; }\n"
	}
	sparse["b.c"] = body(0)
	prog, err = Load("sparse", sparse)
	if err != nil {
		t.Fatal(err)
	}
	ids = valueIDs(t, 0, prog, nil)
	for k := 1; ; k++ {
		if k > 10 {
			t.Fatal("10 re-lowerings of a register-dense function never outgrew the value-ID bound")
		}
		next, _, _, err := prog.Update(map[string]string{"b.c": body(k)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mod, nmod := prog.low.Mod, next.low.Mod
		if nmod.Funcs["big"] == mod.Funcs["big"] {
			ids = valueIDs(t, k, next, ids)
			prog = next
			continue
		}
		if nmod.MaxVID() != nmod.Funcs["dense"].NumRegs()+nmod.Funcs["big"].NumRegs()+len(nmod.Globals) {
			t.Errorf("edit %d: a fresh Load numbers %d value IDs, not densely", k, nmod.MaxVID())
		}
		valueIDs(t, k, next, nil)
		break
	}
}
