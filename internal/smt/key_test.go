package smt_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/smt"
	"repro/internal/smtgen"
)

// fmtTermKey renders a term's structural key with fmt: "v" and the variable
// ID, "c" and the literal, a binary term as "(" X op Y ")".
func fmtTermKey(t smt.Term) string {
	switch t := t.(type) {
	case *smt.Var:
		return fmt.Sprintf("v%d", t.ID)
	case *smt.IntLit:
		return fmt.Sprintf("c%d", t.Val)
	case *smt.BinTerm:
		return "(" + fmtTermKey(t.X) + t.Op + fmtTermKey(t.Y) + ")"
	}
	panic(fmt.Sprintf("fmtTermKey: %T", t))
}

func fmtKey(atoms []*smt.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString("(" + fmtTermKey(a.X) + a.Pred + fmtTermKey(a.Y) + ")")
	}
	return b.String()
}

// TestKeyMatchesFmtRendering pins the verdict-cache key format: smt.Key and
// Atom.Key must render byte for byte as fmt does, on generated conjunctions
// (negative literals, nested binary terms) extended with opaque variables
// and the extreme literals and IDs.
func TestKeyMatchesFmtRendering(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		ctx := smt.NewContext()
		g := smtgen.New(ctx, seed)
		atoms := g.Conj()
		x := g.Vars[0]
		op := ctx.OpaqueFor(smt.Mul(x, smt.Sub(x, smt.Int(-3))))
		if again := ctx.OpaqueFor(smt.Mul(x, smt.Sub(x, smt.Int(-3)))); again != op {
			t.Fatalf("seed %d: OpaqueFor interned one term twice (%v, %v)", seed, op, again)
		}
		if other := ctx.OpaqueFor(smt.Mul(x, smt.Sub(x, smt.Int(3)))); other == op {
			t.Fatalf("seed %d: OpaqueFor joined two terms", seed)
		}
		atoms = append(atoms,
			smt.Lt(smt.Add(op, smt.Int(math.MinInt64)), smt.Int(math.MaxInt64)),
			smt.Ne(&smt.Var{ID: math.MaxInt32}, smt.Rem(op, smt.Int(-7))))
		if got, want := smt.Key(atoms), fmtKey(atoms); got != want {
			t.Fatalf("seed %d: Key = %q, want %q", seed, got, want)
		}
		for _, a := range atoms {
			if got, want := a.Key(), fmtKey([]*smt.Atom{a}); got != want {
				t.Fatalf("seed %d: Atom.Key = %q, want %q", seed, got, want)
			}
		}
	}
	if got := smt.Key(nil); got != "" {
		t.Errorf("Key(nil) = %q, want empty", got)
	}
}
