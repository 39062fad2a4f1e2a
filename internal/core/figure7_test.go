package core_test

import (
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
)

// TestFigure7AliasEvolution replays the paper's Figure 7 example through
// the full engine and asserts the alias classes the figure shows at its
// key program points: after bar's "a = *t" (line 12 of the paper), foo's t
// and bar's t share one class reachable from p via .s then *.
func TestFigure7AliasEvolution(t *testing.T) {
	mod, err := minicc.LowerAll("fig7", map[string]string{"fig7.c": `
struct S { long *s; };
static void bar(struct S *p) {
	long **r = &(p->s);
	long *t = *r;
	long a = *t;
	use(a);
}
void foo(struct S *p) {
	long **r = &(p->s);
	long *t = *r;
	if (!t)
		bar(p);
	else
		use(*t);
}`})
	if err != nil {
		t.Fatal(err)
	}

	// Find bar's "a = *t" load: the final deref inside bar.
	var barDeref cir.Instr
	mod.Funcs["bar"].Instrs(func(in cir.Instr) {
		if ld, ok := in.(*cir.Load); ok && ld.Dst.Name == "deref" {
			barDeref = in
		}
	})
	if barDeref == nil {
		// The load feeding 'a' may be named differently; fall back to the
		// last load in bar.
		mod.Funcs["bar"].Instrs(func(in cir.Instr) {
			if _, ok := in.(*cir.Load); ok {
				barDeref = in
			}
		})
	}
	if barDeref == nil {
		t.Fatal("bar's dereference not found")
	}

	checked := false
	cfg := core.Config{
		Trace: func(in cir.Instr, g *aliasgraph.Graph) {
			if in != barDeref || checked {
				return
			}
			checked = true
			// Collect the t-slot content classes of foo and bar: the
			// registers loaded from the 't' allocas.
			var fooT, barT, fooP, barP *aliasgraph.Node
			for _, fn := range []string{"foo", "bar"} {
				mod.Funcs[fn].Instrs(func(in cir.Instr) {
					ld, ok := in.(*cir.Load)
					if !ok {
						return
					}
					ar, ok := ld.Addr.(*cir.Register)
					if !ok || ar.Def == nil {
						return
					}
					al, ok := ar.Def.(*cir.Alloca)
					if !ok {
						return
					}
					switch {
					case al.VarName == "t":
						if n := g.Lookup(ld.Dst); n != nil {
							if fn == "foo" {
								fooT = n
							} else {
								barT = n
							}
						}
					case al.VarName == "p":
						if n := g.Lookup(ld.Dst); n != nil {
							if fn == "foo" {
								fooP = n
							} else {
								barP = n
							}
						}
					}
				})
			}
			if fooT == nil || barT == nil {
				t.Error("t values not on the graph at bar's deref")
				return
			}
			if fooT != barT {
				t.Error("foo:t and bar:t must share one alias class (Figure 7, line 12)")
			}
			if fooP != nil && barP != nil && fooP != barP {
				t.Error("foo:p and bar:p must share one class after the call MOVE")
			}
		},
	}
	core.RunParallel(mod, cfg, 1)
	if !checked {
		t.Fatal("trace never reached bar's dereference")
	}
}
