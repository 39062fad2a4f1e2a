package minicc

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cir"
	"repro/internal/oscorpus"
)

// withProcs runs f with GOMAXPROCS set to n, which sizes LowerAll's pool.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// frontendErrorCase is a multi-file input that fails to lower, with the
// error the one-file-at-a-time frontend reported for it: always the first
// error in sorted file order.
type frontendErrorCase struct {
	name    string
	sources map[string]string
	want    string
}

func frontendErrorCases() []frontendErrorCase {
	manyParse := make(map[string]string)
	lateLower := make(map[string]string)
	for i := range 16 {
		manyParse[fmt.Sprintf("f%02d.c", i)] = fmt.Sprintf("int f%02d( {", i)
		lateLower[fmt.Sprintf("f%02d.c", i)] = fmt.Sprintf("int f%02d(int x) { return x + %d; }", i, i)
	}
	lateLower["f13.c"] = "int f13(void) { return missing; }"
	lateLower["f14.c"] = "int f14( {"
	return []frontendErrorCase{
		{"two parse errors", map[string]string{"a.c": "int f( {", "b.c": "int g(int x) { return x +; }"},
			`a.c:1:8: expected type, found "{"`},
		{"lowering error in a later file", map[string]string{"a.c": "int f(void) { return 1; }", "b.c": "int g(void) { return undefined_var; }"},
			"b.c:1:22: undefined identifier undefined_var"},
		{"static then non-static definition", map[string]string{"a.c": "static int h(void) { return 1; }", "b.c": "int h(void) { return 2; }"},
			"b.c:1:5: redefinition of function h"},
		{"lowering error before a parse error", map[string]string{"a.c": "int f(void) { return zz; }", "b.c": "int g( {"},
			"a.c:1:22: undefined identifier zz"},
		{"body error before a same-file redefinition", map[string]string{"a.c": "int f(void) { return zz; } int f(void) { return 1; }"},
			"a.c:1:22: undefined identifier zz"},
		{"lexical error before a parse error", map[string]string{"a.c": "int f(void) { return 1; }", "b.c": "int g(void) { return 1 @ 2; }", "c.c": "int h( {"},
			`b.c:1:24: unexpected character "@"`},
		{"non-ASCII character", map[string]string{"a.c": "int f(int x) { return x é 1; }"},
			`a.c:1:25: unexpected character "é"`},
		{"byte that is not UTF-8", map[string]string{"a.c": "int f(int x) { return x \xff\xfe 1; }"},
			`a.c:1:25: unexpected character "\xff"`},
		{"identifier no call declared", map[string]string{"a.c": "int u(void) { return foo(1); }", "b.c": "int v(void) { return foo; }", "c.c": "int w(void) { return bar; }"},
			"c.c:1:22: undefined identifier bar"},
		{"undefined label", map[string]string{"a.c": "int f(void) { goto nowhere; }", "b.c": "int g(void) { break; }"},
			"a.c:1:15: goto undefined label nowhere"},
		{"sixteen parse errors", manyParse, `f00.c:1:10: expected type, found "{"`},
		{"lowering error, then a parse error, among sixteen files", lateLower, "f13.c:1:24: undefined identifier missing"},
	}
}

// TestLowerAllDeterminism runs LowerAll at GOMAXPROCS 1, 2 and 8: every
// corpus must lower to the same digest at each, and every erroring input
// must report the same error as the sequential frontend did.
func TestLowerAllDeterminism(t *testing.T) {
	procs := []int{1, 2, 8}
	for _, c := range frontendCorpora() {
		var digests []string
		for _, n := range procs {
			withProcs(n, func() { digests = append(digests, lowerDigest(c.name, c.sources)) })
		}
		for i := range procs[1:] {
			if digests[i+1] != digests[0] {
				t.Errorf("%s: GOMAXPROCS %d gives %s, GOMAXPROCS 1 %s", c.name, procs[i+1], digests[i+1], digests[0])
			}
		}
	}
	for _, c := range frontendErrorCases() {
		for _, n := range procs {
			withProcs(n, func() {
				_, err := LowerAll("m", c.sources)
				if err == nil || err.Error() != c.want {
					t.Errorf("%s at GOMAXPROCS %d: error %v, want %s", c.name, n, err, c.want)
				}
			})
		}
	}
}

// TestLowerAllCrossFileOrder pins what depends on the order in which
// bodies come, now that they lower concurrently: a static defined twice in
// one file is renamed from its second definition on; implicit declarations
// enter the definition order at their first call; a function name used as
// a value is address-taken once any earlier call has declared it; and a
// struct only a body names is created once. All match lowering one file
// after another.
func TestLowerAllCrossFileOrder(t *testing.T) {
	sources := map[string]string{
		"a.c": "static int h(void) { return 1; } int u(void) { return h() + foo(1, 2) + sizeof(struct blob); } " +
			"static int h(void) { return 3; } int u2(void) { return h(); }",
		"b.c": "int v(void) { int x = foo; struct blob *p = 0; return bar(x); } static int h(void) { return 2; } int w(void) { return h(); }",
	}
	for _, n := range []int{1, 4} {
		withProcs(n, func() {
			mod, err := LowerAll("m", sources)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"h", "u", "u2", "foo", "h@a.c", "v", "h@b.c", "w", "bar"}
			if got := mod.FuncNames(); !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d: definition order %v, want %v", n, got, want)
			}
			callees := map[string]string{}
			for _, fn := range mod.SortedFuncs() {
				var cs []string
				fn.Instrs(func(in cir.Instr) {
					if c, ok := in.(*cir.Call); ok {
						cs = append(cs, c.Callee)
					}
				})
				callees[fn.Name] = strings.Join(cs, ",")
			}
			if callees["u"] != "h,foo" || callees["u2"] != "h@a.c" || callees["w"] != "h@b.c" || callees["v"] != "bar" {
				t.Errorf("GOMAXPROCS %d: callees %v", n, callees)
			}
			if !mod.AddressTaken["foo"] || len(mod.AddressTaken) != 1 {
				t.Errorf("GOMAXPROCS %d: address-taken %v, want only foo", n, mod.AddressTaken)
			}
			if len(mod.Structs) != 1 || mod.Structs["blob"] == nil {
				t.Errorf("GOMAXPROCS %d: structs %v, want only blob", n, mod.Structs)
			}
			if p := len(mod.Funcs["foo"].Typ.Params); p != 2 {
				t.Errorf("GOMAXPROCS %d: implicit foo has %d parameters, want its first call's 2", n, p)
			}
		})
	}
}

// frontendAllocBudget bounds LowerAll's heap use on linux-like ×1, per
// token and per source byte. Measured 1.21–1.22 mallocs per token and
// 37.8–38.0 bytes per source byte at GOMAXPROCS 1, 2 and 8, and 1.29–1.32
// and 38.7–39.1 under -race at GOMAXPROCS 2, 4 and 8. The frontend whose
// tokens carried their text, whose parser kept every token and whose AST
// nodes, registers, blocks and instruction slices were allocated one by
// one made 3.11 mallocs per token and allocated 67.0 bytes per source
// byte; the sequential frontend before it 3.24 and 91.2.
const (
	frontendMallocsPerToken = 1.5
	frontendBytesPerSrcByte = 42
)

// TestFrontendAllocBudget fails when LowerAll allocates more per token or
// per source byte than the budget on linux-like ×1.
func TestFrontendAllocBudget(t *testing.T) {
	sources := oscorpus.Generate(oscorpus.LinuxSpec()).Sources
	tokens, srcBytes := 0, 0
	for name, src := range sources {
		toks, _ := Tokenize(name, Preprocess(src))
		tokens += len(toks)
		srcBytes += len(src)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := LowerAll("linux", sources); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	perToken := float64(mallocs) / float64(tokens)
	perByte := float64(bytes) / float64(srcBytes)
	t.Logf("%d files, %d tokens, %d source bytes: %d mallocs (%.2f/token), %d bytes (%.1f/source byte)",
		len(sources), tokens, srcBytes, mallocs, perToken, bytes, perByte)
	if perToken > frontendMallocsPerToken {
		t.Errorf("LowerAll makes %.2f mallocs per token, budget %.2f", perToken, frontendMallocsPerToken)
	}
	if perByte > frontendBytesPerSrcByte {
		t.Errorf("LowerAll allocates %.1f bytes per source byte, budget %d", perByte, frontendBytesPerSrcByte)
	}
}
