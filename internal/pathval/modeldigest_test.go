package pathval_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/smt"
	"repro/internal/smtgen"
	"repro/internal/typestate"
)

// recordingSolve wraps the builtin solve and records every solve it
// answers as one "key result model" line, the model sorted by variable ID.
// The key is sortedKey's, so a record does not depend on the verdict
// cache's key format.
type recordingSolve struct {
	mu   sync.Mutex
	recs map[string]bool
}

func newRecordingSolve() *recordingSolve {
	return &recordingSolve{recs: make(map[string]bool)}
}

func (b *recordingSolve) solve(ctx *smt.Context, atoms []*smt.Atom, deadline time.Time, done <-chan struct{}) (smt.Result, smt.Model, bool) {
	res, model, interrupted := pathval.BuiltinSolve(ctx, atoms, deadline, done)
	ids := make([]int, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\t%s\t", sortedKey(atoms), res)
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d=%d,", id, model[id])
	}
	b.mu.Lock()
	b.recs[sb.String()] = true
	b.mu.Unlock()
	return res, model, interrupted
}

// sortedKey renders a conjunction as "(and k1 k2 …)" over its atom keys in
// sorted order, the format the recorded digests were taken in.
func sortedKey(atoms []*smt.Atom) string {
	keys := make([]string, len(atoms))
	for i, a := range atoms {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return "(and" + strings.Join(append([]string{""}, keys...), " ") + ")"
}

// digest hashes the sorted records and returns it with the record count.
func (b *recordingSolve) digest() string {
	recs := make([]string, 0, len(b.recs))
	for r := range b.recs {
		recs = append(recs, r)
	}
	sort.Strings(recs)
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintln(h, r)
	}
	return hex.EncodeToString(h.Sum(nil)) + " " + strconv.Itoa(len(recs))
}

// TestSolverModelDigest pins every (formula key, result, witness model) the
// builtin solver produces for Stage 2 on the paper corpora, the extension,
// validate-heavy (plain and the benchmark's ×12) and helper-heavy corpora,
// under the core and all checker sets in PATA and NA modes, plus a
// fixed-seed set of generated conjunctions. The core runs are repeated with
// per-candidate Stage 2, which sends the candidates the batch screen would
// refute to the solver as well. Trigger values are read off these models, and which
// variables a model covers decides which triggers print, so a solver change
// that keeps every verdict can still change reports; this test catches it.
func TestSolverModelDigest(t *testing.T) {
	want := readModelDigests(t, "testdata/model_digests.txt")
	got := make(map[string]string)
	var names []string
	put := func(name, digest string) {
		names = append(names, name)
		got[name] = digest
	}

	corpora := []struct {
		name string
		spec oscorpus.OSSpec
	}{
		{"linux", oscorpus.LinuxSpec()},
		{"zephyr", oscorpus.ZephyrSpec()},
		{"riot", oscorpus.RIOTSpec()},
		{"tencent", oscorpus.TencentSpec()},
		{"linux-ext", oscorpus.WithRepoExtensions(oscorpus.LinuxSpec())},
		{"validate-heavy", oscorpus.ValidationHeavySpec()},
		{"validate-x12-seed1", validateX12()},
		{"helper-heavy", oscorpus.HelperHeavySpec()},
	}
	checkerSets := []struct {
		name string
		mk   func() []typestate.Checker
	}{
		{"core", typestate.CoreCheckers},
		{"all", typestate.AllCheckers},
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"pata", core.ModePATA},
		{"na", core.ModeNoAlias},
	}
	for _, c := range corpora {
		src := oscorpus.Generate(c.spec)
		mod, err := minicc.LowerAll(src.Spec.Name, src.Sources)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range checkerSets {
			for _, m := range modes {
				for _, batched := range []bool{true, false} {
					if !batched && cs.name != "core" {
						continue
					}
					rec := newRecordingSolve()
					v := pathval.New()
					v.SetSolveHook(rec.solve)
					cfg := core.Config{Checkers: cs.mk(), Mode: m.mode}
					v.Install(&cfg)
					name := cs.name + "-" + m.name + "-" + c.name
					if !batched {
						cfg.ValidateBatch = perCandidate(cfg.ValidateBatch)
						name += "-percand"
					}
					core.RunParallel(mod, cfg, 1)
					put(name, rec.digest())
				}
			}
		}
	}

	rec := newRecordingSolve()
	for seed := int64(0); seed < 2000; seed++ {
		ctx := smt.NewContext()
		rec.solve(ctx, smtgen.New(ctx, seed).Conj(), time.Time{}, nil)
	}
	put("generated", rec.digest())

	var lines strings.Builder
	for _, name := range names {
		fmt.Fprintf(&lines, "%s %s\n", name, got[name])
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, recorded %s", name, got[name], want[name])
		}
	}
	if len(want) != len(names) {
		t.Errorf("testdata has %d digests for %d runs", len(want), len(names))
	}
	if t.Failed() {
		t.Logf("digests of this run:\n%s", lines.String())
	}
}

// validateX12 is the benchmark's scan-validate corpus: validate-heavy
// scaled ×12 with its validation clusters scaled too, at seed offset 1.
func validateX12() oscorpus.OSSpec {
	base := oscorpus.ValidationHeavySpec()
	out := oscorpus.Scaled(base, 12)
	for i := range out.Cats {
		out.Cats[i].Helpers = base.Cats[i].Helpers * 12
		out.Cats[i].Validation = base.Cats[i].Validation * 12
	}
	out.Seed++
	return out
}

// readModelDigests parses "name sha256 records" lines, skipping blanks and
// # comments, into name → "sha256 records".
func readModelDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// perCandidate wraps a Stage-2 hook so that it validates every candidate
// of a group as a batch of one.
func perCandidate(hook func(context.Context, []*core.PossibleBug, core.Mode) []core.ValidationOutcome) func(context.Context, []*core.PossibleBug, core.Mode) []core.ValidationOutcome {
	return func(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
		outs := make([]core.ValidationOutcome, len(bugs))
		for i := range bugs {
			outs[i] = hook(ctx, bugs[i:i+1], mode)[0]
		}
		return outs
	}
}
