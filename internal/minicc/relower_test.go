package minicc

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cir"
	"repro/internal/cir/cirtest"
	"repro/internal/oscorpus"
)

// relowerBase is a three-file program with what Relower must carry across
// an edit: a prototype defined in another file, colliding statics, a
// callee no file declares, an identifier naming that callee, a
// declaration-only prototype, an ops-struct initializer, an enum and a
// struct only a body names.
var relowerBase = map[string]string{
	"a.c": `struct dev { int flags; struct dev *next; };
int helper(struct dev *d);
static int local(int x) { return x + 1; }
int probe(struct dev *d) {
	if (!d)
		return -1;
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
	"c.c": `enum mode { OFF, ON = 3 };
int proto_only(int x);
static struct driver_ops probe_ops = { .probe = probe };
int uses_ext(void) { return ext_log; }
int tail(int n) {
	struct scratch *s = 0;
	if (n > ON)
		return proto_only(n);
	return s == 0;
}
`,
}

// relowerCase is an edit of relowerBase, whether Relower must take its
// fast path for it and, if so, the functions it must lower anew: the
// edited bodies, and every body of a file whose text outside the bodies
// changed.
type relowerCase struct {
	name  string
	edits map[string]string
	fast  bool
	fresh []string
}

func relowerCases() []relowerCase {
	edit := func(file, old, new string) map[string]string {
		if !strings.Contains(relowerBase[file], old) {
			panic("relowerCases: " + file + " lacks " + old)
		}
		return map[string]string{file: strings.Replace(relowerBase[file], old, new, 1)}
	}
	return []relowerCase{
		{"body edit", edit("b.c", "return 0;", "return 7;"), true, []string{"helper"}},
		{"line shift", edit("c.c", "enum mode", "/* one */\n/* two */\nenum mode"), true, []string{"tail", "uses_ext"}},
		{"new implicit declaration", edit("c.c", "return s == 0;", "return new_ext(n, 2) + (s == 0);"), true, []string{"tail"}},
		{"newly address-taken function", edit("b.c", "return 0;", "return helper ? 1 : 0;"), true, []string{"helper"}},
		{"enum value", edit("c.c", "ON = 3", "ON = 4"), true, []string{"tail", "uses_ext"}},
		{"body-only struct added", edit("b.c", "return 0;", "struct other *o = 0;\n\treturn o == 0;"), true, []string{"helper", "local@b.c", "use_local"}},
		{"body-only struct dropped", edit("c.c", "struct scratch *s = 0;", "int *s = 0;"), true, []string{"tail"}},
		{"renamed static", edit("b.c", "return x - 1;", "return x - 2;"), true, []string{"local@b.c"}},
		{"two files", map[string]string{
			"a.c": strings.Replace(relowerBase["a.c"], "return -1;", "return -2;", 1),
			"c.c": strings.Replace(relowerBase["c.c"], "return s == 0;", "return s != 0;", 1),
		}, true, []string{"probe", "tail"}},
		{"identifier loses its declaring call", edit("a.c", " + ext_log(d->flags)", ""), false, nil},
		{"changed struct", edit("b.c", "int flags;", "int flags; int extra;"), false, nil},
		{"changed prototype", edit("a.c", "int helper(struct dev *d);", "int helper(struct dev *d, int n);"), false, nil},
		{"new function", edit("b.c", "int use_local", "int more(void) { return 1; }\nint use_local"), false, nil},
		{"changed initializer", edit("c.c", ".probe = probe", ".probe = tail"), false, nil},
		{"parse error", map[string]string{"b.c": "int helper( {"}, false, nil},
		{"lowering error", edit("b.c", "return 0;", "return nowhere;"), false, nil},
		{"file not in the program", map[string]string{"d.c": "int d(void) { return 0; }"}, false, nil},
	}
}

func normalized(t *testing.T, mod *cir.Module) string {
	t.Helper()
	d, err := cirtest.NormalizedDigest(mod)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkRelower checks one Relower of l by edits against LowerAll of the
// edited sources: the fast path is taken exactly when fast is set, and
// then gives LowerAll's module up to GIDs, makes new functions for the
// definitions fresh names and shares every other function with l, pointer
// for pointer (the prototypes and implicit declarations of edited files
// are remade), and leaves l's module as it was.
func checkRelower(t *testing.T, l *Lowered, sources, edits map[string]string, fast bool, fresh []string) *Lowered {
	t.Helper()
	before := cirtest.Digest(l.Mod)
	next := l.Relower(edits)
	if after := cirtest.Digest(l.Mod); after != before {
		t.Errorf("Relower changed the module it re-lowered against")
	}
	if (next != nil) != fast {
		t.Fatalf("fast path taken = %v, want %v", next != nil, fast)
	}
	if next == nil {
		return nil
	}
	edited := maps.Clone(sources)
	maps.Copy(edited, edits)
	want, err := LowerAll("m", edited)
	if err != nil {
		t.Fatalf("Relower succeeded where LowerAll fails: %v", err)
	}
	if got, want := normalized(t, next.Mod), normalized(t, want); got != want {
		t.Errorf("Relower's module differs from LowerAll's")
	}
	for _, name := range fresh {
		if fn := next.Mod.Funcs[name]; fn == nil || fn.IsDecl() {
			t.Errorf("edited function %s is not defined", name)
		}
	}
	for name, fn := range next.Mod.Funcs {
		old, ok := l.Mod.Funcs[name]
		isFresh := slices.Contains(fresh, name)
		switch _, isEdited := edits[fn.File]; {
		case fn.File == "" || isEdited && fn.IsDecl():
		case isFresh && fn == old:
			t.Errorf("edited function %s of %s is shared", name, fn.File)
		case !isFresh && (!ok || fn != old):
			t.Errorf("unedited function %s of %s is not shared", name, fn.File)
		}
	}
	if next.Mod.MaxGID() < l.Mod.MaxGID() {
		t.Errorf("GID high-water mark fell from %d to %d", l.Mod.MaxGID(), next.Mod.MaxGID())
	}
	return next
}

// TestRelowerMatchesLowerAll runs hand-written edits of relowerBase
// through Relower: each either takes the fast path and lowers exactly as
// LowerAll does, or declines.
func TestRelowerMatchesLowerAll(t *testing.T) {
	for _, c := range relowerCases() {
		t.Run(c.name, func(t *testing.T) {
			l, err := LowerProgram("m", relowerBase)
			if err != nil {
				t.Fatal(err)
			}
			checkRelower(t, l, relowerBase, c.edits, c.fast, c.fresh)
		})
	}
}

// TestRelowerMutateSequence chains Relower over an oscorpus.Mutate edit
// sequence on the linux-like corpus: every step takes the fast path,
// matches LowerAll of the edited sources and lowers anew exactly the
// functions Mutate edited.
func TestRelowerMutateSequence(t *testing.T) {
	sources := oscorpus.Generate(oscorpus.LinuxSpec()).Sources
	l, err := LowerProgram("m", sources)
	if err != nil {
		t.Fatal(err)
	}
	for step := range 6 {
		edited, mutated := oscorpus.Mutate(sources, 2, int64(step+1))
		edits := make(map[string]string)
		for name, src := range edited {
			if src != sources[name] {
				edits[name] = src
			}
		}
		l = checkRelower(t, l, sources, edits, true, mutated)
		sources = edited
	}
}

// TestRelowerBoundsGIDSpace: re-lowering the same file over and over never
// lets the GID high-water mark pass maxGIDSpace times the instruction
// count; the edit that would is declined, so the caller renumbers.
func TestRelowerBoundsGIDSpace(t *testing.T) {
	l, err := LowerProgram("m", relowerBase)
	if err != nil {
		t.Fatal(err)
	}
	declined := false
	for i := range 20 {
		edits := map[string]string{"b.c": strings.Replace(relowerBase["b.c"], "return 0;", "return "+strings.Repeat("1+", i)+"0;", 1)}
		next := l.Relower(edits)
		if next == nil {
			declined = true
			break
		}
		if max, n := next.Mod.MaxGID(), next.Mod.NumInstrs(); max > maxGIDSpace*n {
			t.Fatalf("edit %d: GID high-water mark %d over %d× %d instructions", i, max, maxGIDSpace, n)
		}
		l = next
	}
	if !declined {
		t.Error("20 re-lowerings of one file never outgrew the GID bound")
	}
}

// TestRelowerBoundsValueIDSpace: re-lowering a register-dense function
// beside a large register-free one fills the value-ID space about four
// times as fast as the GID space, and Relower declines once the value-ID
// space would outgrow maxGIDSpace times the module's values, while the GID
// space alone would still take the edit.
func TestRelowerBoundsValueIDSpace(t *testing.T) {
	body := func(k int) string {
		return "int dense(int x) { return x" + strings.Repeat(" + x", 9) + " + " + strconv.Itoa(k) + "; }\n"
	}
	l, err := LowerProgram("m", map[string]string{
		"a.c": "void g(void);\nvoid big(void) {" + strings.Repeat(" g();", 60) + " }\n",
		"b.c": body(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		next := l.Relower(map[string]string{"b.c": body(k)})
		if next != nil {
			if max, n := next.Mod.MaxVID(), next.vids; max > maxGIDSpace*n {
				t.Fatalf("edit %d: value-ID high-water mark %d over %d× %d values", k, max, maxGIDSpace, n)
			}
			l = next
			continue
		}
		dense := l.Mod.Funcs["dense"].NumInstrs() // the edit keeps its size
		if l.Mod.MaxGID()+dense > maxGIDSpace*l.instrs {
			t.Fatalf("edit %d: the GID space, not the value-ID space, declined", k)
		}
		if l.Mod.MaxVID()+l.Mod.Funcs["dense"].NumRegs() <= maxGIDSpace*l.vids {
			t.Fatalf("edit %d: declined within both bounds", k)
		}
		return
	}
	t.Error("10 re-lowerings of a register-dense function never outgrew the value-ID bound")
}
