package smt_test

import (
	"fmt"
	"testing"

	"repro/internal/smt"
	"repro/internal/smtgen"
)

// oracleConjunctions and oracleSequences size the tier-1 oracle runs;
// -short runs a tenth of each. FuzzSolverOracle explores further seeds.
const (
	oracleConjunctions = 20000
	oracleSequences    = 10000
)

func oracleCount(n int) int64 {
	if testing.Short() {
		n /= 10
	}
	return int64(n)
}

// solverOracle solves the conjunction generated from seed and, when the
// solver answers Unsat, searches the enumeration box for a model. It
// returns the verdict and a description of the counterexample, or "" when
// there is none.
func solverOracle(seed int64) (smt.Result, string) {
	ctx := smt.NewContext()
	g := smtgen.New(ctx, seed)
	atoms := g.Conj()
	res, _ := smt.NewSolver(ctx).Solve(atoms)
	if res != smt.Unsat {
		return res, ""
	}
	if m, ok := smtgen.Model(atoms, g.Vars); ok {
		return res, fmt.Sprintf("seed %d: solver Unsat for %s, but %v satisfies it", seed, atoms, m)
	}
	return res, ""
}

// cursorOracle pushes a generated atom sequence into a fresh cursor. The
// first prefix the cursor refutes must be refuted by the solver too, and
// must have no model in the enumeration box. It reports whether the cursor
// answered Unsat and a description of any violation.
func cursorOracle(seed int64) (bool, string) {
	ctx := smt.NewContext()
	g := smtgen.New(ctx, seed)
	c := smt.NewCursor(ctx)
	var prefix []*smt.Atom
	for i := 2 + int(uint64(seed)%5); i > 0; i-- {
		a := g.Atom()
		prefix = append(prefix, a)
		if c.Push(a) != smt.Unsat {
			continue
		}
		if res, _ := smt.NewSolver(ctx).Solve(prefix); res != smt.Unsat {
			return true, fmt.Sprintf("seed %d: cursor Unsat for %s, solver %v", seed, prefix, res)
		}
		if m, ok := smtgen.Model(prefix, g.Vars); ok {
			return true, fmt.Sprintf("seed %d: cursor Unsat for %s, but %v satisfies it", seed, prefix, m)
		}
		return true, ""
	}
	return false, ""
}

// TestUnsatSoundnessProperty checks the solver's Unsat against brute force:
// for generated conjunctions of one to five atoms over one to three
// variables (+, -, *, / and % by nonzero literals, all six predicates), no
// Unsat conjunction may have a model in [-Box, Box]^n.
func TestUnsatSoundnessProperty(t *testing.T) {
	unsats := 0
	for seed := int64(0); seed < oracleCount(oracleConjunctions); seed++ {
		res, bad := solverOracle(seed)
		if bad != "" {
			t.Fatal(bad)
		}
		if res == smt.Unsat {
			unsats++
		}
	}
	if unsats == 0 {
		t.Fatal("no generated conjunction was refuted; the oracle checks nothing")
	}
	t.Logf("%d of %d conjunctions Unsat, all confirmed", unsats, oracleCount(oracleConjunctions))
}

// TestCursorSoundnessSubset checks the cursor's soundness contract: whenever
// the cursor answers Unsat for a prefix, the solver also answers Unsat for
// the same conjunction and brute force finds no model. (The converse need
// not hold — the cursor may answer Sat where the solver proves Unsat.) It
// runs a fixed grid of sequences, then generated ones.
func TestCursorSoundnessSubset(t *testing.T) {
	mkAtoms := func(ctx *smt.Context) [][]*smt.Atom {
		x, y, z := ctx.Var("x"), ctx.Var("y"), ctx.Var("z")
		return [][]*smt.Atom{
			{smt.Eq(x, smt.Int(0)), smt.Ne(x, smt.Int(0))},
			{smt.Lt(x, y), smt.Lt(y, z), smt.Lt(z, x)},
			{smt.Eq(x, smt.Add(y, smt.Int(5))), smt.Le(x, smt.Int(3)), smt.Ge(y, smt.Int(0))},
			{smt.Ge(x, smt.Int(1)), smt.Le(x, smt.Int(1)), smt.Ne(x, smt.Int(1))},
			{smt.Eq(smt.Mul(x, smt.Int(2)), smt.Int(7)), smt.Ge(x, smt.Int(0))},
			{smt.Eq(x, y), smt.Eq(y, z), smt.Ne(x, z)},
			{smt.Gt(smt.Add(x, y), smt.Int(10)), smt.Le(x, smt.Int(2)), smt.Le(y, smt.Int(2))},
			{smt.Eq(x, smt.Int(-3)), smt.Gt(x, smt.Int(0))},
		}
	}
	for si := range mkAtoms(smt.NewContext()) {
		// Fresh context per sequence so cursor and solver agree on var IDs.
		ctx := smt.NewContext()
		seq := mkAtoms(ctx)[si]
		c := smt.NewCursor(ctx)
		s := smt.NewSolver(ctx)
		var prefix []*smt.Atom
		for ai, a := range seq {
			prefix = append(prefix, a)
			if c.Push(a) != smt.Unsat {
				continue
			}
			if batch, _ := s.Solve(prefix); batch != smt.Unsat {
				t.Errorf("seq %d atom %d: cursor Unsat but batch solver says %v", si, ai, batch)
			}
		}
	}

	unsats := 0
	for seed := int64(0); seed < oracleCount(oracleSequences); seed++ {
		unsat, bad := cursorOracle(seed)
		if bad != "" {
			t.Fatal(bad)
		}
		if unsat {
			unsats++
		}
	}
	if unsats == 0 {
		t.Fatal("no generated sequence was refuted; the oracle checks nothing")
	}
	t.Logf("%d of %d sequences cursor-Unsat, all confirmed", unsats, oracleCount(oracleSequences))
}

// FuzzSolverOracle runs both oracle checks on fuzzer-chosen seeds.
func FuzzSolverOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, bad := solverOracle(seed); bad != "" {
			t.Fatal(bad)
		}
		if _, bad := cursorOracle(seed); bad != "" {
			t.Fatal(bad)
		}
	})
}
