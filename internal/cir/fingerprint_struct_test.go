package cir_test

import (
	"runtime"
	"testing"

	"repro/internal/cir"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
)

// fpShape is every field TestFingerprintFieldSensitivity varies in one
// hand-built function.
type fpShape struct {
	val    int64
	callee string
	field  string
	target int // the index of the block the last block branches to
	elem   cir.Type
	pred   cir.Pred
	op     cir.BinaryOp
	line   int
}

// fingerprintOf builds a function of shape s, each in a module of its own
// with its own struct type, and fingerprints it.
func fingerprintOf(s fpShape) uint64 {
	st := &cir.StructType{Name: "dev", Fields: []cir.Field{{Name: "a", Type: cir.I64}, {Name: "b", Type: cir.I64}}}
	mod := cir.NewModule("m")
	fn := mod.NewFunction("f", &cir.FuncType{Result: cir.I64, Params: []cir.Type{cir.PointerTo(st)}})
	fn.File = "f.c"
	d := fn.AddParam("d", cir.PointerTo(st))
	b := cir.NewBuilder(fn)
	then, els := fn.NewBlock("then"), fn.NewBlock("else")
	b.AtLine("f.c", 1)
	b.Alloca("x", s.elem)
	v := b.Load("v", b.FieldAddr("p", d, s.field))
	sum := b.BinOp("s", s.op, v, fn.IntConst(cir.I64, s.val))
	b.AtLine("f.c", s.line)
	r := b.Call("r", s.callee, cir.I64, sum)
	b.CondBr(b.Cmp("c", s.pred, r, fn.IntConst(cir.I64, 0)), then, els)
	b.SetBlock(then)
	b.Ret(r)
	b.SetBlock(els)
	b.Br(fn.Blocks[s.target])
	mod.AssignGIDs()
	return fn.Fingerprint()
}

// TestFingerprintFieldSensitivity: changing any one field an instruction
// carries changes the fingerprint, and building the same function twice
// does not.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base := fpShape{val: 1, callee: "g", field: "a", target: 0, elem: cir.I64, pred: cir.PredEQ, op: cir.OpAdd, line: 2}
	want := fingerprintOf(base)
	if again := fingerprintOf(base); again != want {
		t.Fatalf("the same function fingerprints %#x and %#x", want, again)
	}
	for _, c := range []struct {
		name string
		edit func(*fpShape)
	}{
		{"constant value", func(s *fpShape) { s.val = 2 }},
		{"callee", func(s *fpShape) { s.callee = "h" }},
		{"field name", func(s *fpShape) { s.field = "b" }},
		{"branch target", func(s *fpShape) { s.target = 1 }},
		{"alloca element type", func(s *fpShape) { s.elem = cir.I32 }},
		{"alloca element pointer depth", func(s *fpShape) { s.elem = cir.PointerTo(cir.I64) }},
		{"compare predicate", func(s *fpShape) { s.pred = cir.PredNE }},
		{"binary op", func(s *fpShape) { s.op = cir.OpSub }},
		{"line", func(s *fpShape) { s.line = 3 }},
	} {
		s := base
		c.edit(&s)
		if fingerprintOf(s) == want {
			t.Errorf("changing the %s left the fingerprint unchanged", c.name)
		}
	}
}

// portableFile is the file TestFingerprintPortable lowers beside different
// companions: it names a struct, a prototype another file defines, a
// callee no file declares, an array and a string.
const portableFile = `struct dev { int flags; struct dev *next; };
int helper(struct dev *d);
int probe(struct dev *d) {
	if (!d)
		return -1;
	return helper(d) + d->flags + ext_log(d->flags);
}
static int fill(int x) {
	char buf[4];
	char *s = "hi";
	buf[1] = s[0];
	return buf[1] + x;
}
`

// TestFingerprintPortable: a file's functions fingerprint the same whatever
// files they are lowered beside and wherever their file sorts among them,
// since types hash by structure, not by the module that interned them.
func TestFingerprintPortable(t *testing.T) {
	helper := "struct dev { int flags; struct dev *next; };\nint helper(struct dev *d) { return d->flags; }\n"
	programs := []map[string]string{
		{"m.c": portableFile, "a.c": helper},
		{"m.c": portableFile, "z.c": helper, "y.c": "struct other { long v; };\nint more(struct other *o) { return o->v; }\n"},
		{"m.c": portableFile, "n.c": "struct dev { int flags; struct dev *next; };\nint helper(struct dev *d) { return 0; }\nint pad(int *p) { return *p; }\n"},
	}
	var want map[string]uint64
	for i, sources := range programs {
		mod, err := minicc.LowerAll("m", sources)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		for _, name := range []string{"probe", "fill"} {
			got[name] = mod.Funcs[name].Fingerprint()
		}
		if i == 0 {
			want = got
			continue
		}
		for name, fp := range got {
			if fp != want[name] {
				t.Errorf("program %d: %s fingerprints %#x, %#x in program 0", i, name, fp, want[name])
			}
		}
	}
}

// fingerprintMallocsPerFunc bounds the mallocs fingerprinting a freshly
// lowered module makes per function. Hashing the structure allocates
// nothing; hashing each instruction's rendered text made dozens.
const fingerprintMallocsPerFunc = 0.5

// TestFingerprintAllocBudget fingerprints every function of the linux-like
// corpus and bounds the mallocs it makes.
func TestFingerprintAllocBudget(t *testing.T) {
	mod, err := minicc.LowerAll("linux", oscorpus.Generate(oscorpus.LinuxSpec()).Sources)
	if err != nil {
		t.Fatal(err)
	}
	funcs := mod.SortedFuncs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, fn := range funcs {
		fn.Fingerprint()
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d functions: %d mallocs", len(funcs), mallocs)
	if per := float64(mallocs) / float64(len(funcs)); per > fingerprintMallocsPerFunc {
		t.Errorf("fingerprinting makes %.2f mallocs per function, budget %.2f", per, fingerprintMallocsPerFunc)
	}
}
