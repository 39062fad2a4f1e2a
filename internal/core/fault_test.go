package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acache"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/report"
	"repro/internal/typestate"
)

// sickEntrySources appends three self-contained entry functions to a corpus:
// one the fault hook will panic on (rung 0 only, so the ladder recovers it),
// one long enough that an injected per-step slowdown trips the entry
// deadline on every rung, and one whose budget is force-tripped. They call
// nothing and nothing calls them, so their candidates can never deduplicate
// against a healthy entry's — which is what makes the healthy part of the
// report byte-comparable between injected and uninjected runs.
func sickEntrySources() string {
	var sb strings.Builder
	sb.WriteString(`
struct sick_ctx { int val; };

int pata_sick_panic(struct sick_ctx *c) {
	if (!c)
		return c->val;
	return 0;
}

int pata_sick_budget(int n) {
	if (n > 0)
		return 1;
	return 0;
}

int pata_sick_slow(int n) {
	int a = n;
`)
	for i := 0; i < 160; i++ {
		sb.WriteString("\ta = a + 1;\n")
	}
	sb.WriteString("\treturn a;\n}\n")
	return sb.String()
}

var sickNames = map[string]bool{
	"pata_sick_panic": true, "pata_sick_slow": true, "pata_sick_budget": true,
}

// sickHook is the fault-injection plan of the e2e tests: the panic entry
// fails only on the first attempt, the slow entry is slowed on every rung
// (so the deadline trips every attempt), and the budget entry trips its
// budget on the full-budget attempt only.
func sickHook(entry string, rung int) *core.FaultSpec {
	switch entry {
	case "pata_sick_panic":
		if rung == 0 {
			return &core.FaultSpec{Panic: true}
		}
	case "pata_sick_slow":
		return &core.FaultSpec{Slow: 25 * time.Millisecond}
	case "pata_sick_budget":
		if rung == 0 {
			return &core.FaultSpec{TripBudget: true}
		}
	}
	return nil
}

// reportExcept renders the bugs and candidates of every entry not in skip,
// in order.
func reportExcept(res *core.Result, skip map[string]bool) string {
	var kept []*core.Bug
	for _, b := range res.Bugs {
		if !skip[b.EntryFn] {
			kept = append(kept, b)
		}
	}
	var sb strings.Builder
	report.WriteBugs(&sb, kept)
	for _, pb := range res.Possible {
		if !skip[pb.EntryFn] {
			fmt.Fprintf(&sb, "possible %s origin=%d bug=%d entry=%s path=%d alts=%d\n",
				pb.Type, pb.OriginGID, pb.BugInstr.GID(), pb.EntryFn, len(pb.Path), len(pb.AltPaths))
		}
	}
	return sb.String()
}

func sickCorpusModule(t *testing.T) *cir.Module {
	t.Helper()
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	c.Sources["pata_sick.c"] = sickEntrySources()
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func incompleteByEntry(res *core.Result) map[string]core.IncompleteEntry {
	m := make(map[string]core.IncompleteEntry)
	for _, e := range res.Incomplete {
		m[e.Entry] = e
	}
	return m
}

// TestFaultInjectionEndToEnd is the acceptance e2e: on a corpus run with one
// entry forced to panic, one forced past its deadline, and one forced over
// budget, the run completes, the healthy part of the report is
// byte-identical to an uninjected run, and the sick entries appear in the
// incomplete section with the right reasons and ladder rungs.
func TestFaultInjectionEndToEnd(t *testing.T) {
	mod := sickCorpusModule(t)
	mk := func() core.Config {
		cfg := core.Config{
			Checkers:     typestate.CoreCheckers(),
			EntryTimeout: 2 * time.Second,
		}
		pathval.New().Install(&cfg)
		return cfg
	}
	baseline := core.RunParallel(mod, mk(), 4)
	if len(baseline.Incomplete) != 0 {
		t.Fatalf("uninjected run has incomplete entries: %+v", baseline.Incomplete)
	}

	cfg := mk()
	cfg.FaultHook = sickHook
	injected := core.RunParallel(mod, cfg, 4)

	if got, want := reportExcept(injected, sickNames), reportExcept(baseline, sickNames); got != want {
		t.Errorf("healthy-entry report differs under fault injection:\n--- baseline\n%s\n--- injected\n%s", want, got)
	}

	inc := incompleteByEntry(injected)
	if len(injected.Incomplete) != 3 {
		t.Fatalf("incomplete = %+v, want the 3 sick entries", injected.Incomplete)
	}
	if e := inc["pata_sick_panic"]; e.Reason != core.ReasonPanic || e.Rung != 1 ||
		!strings.Contains(e.Detail, "injected fault") {
		t.Errorf("panic entry record = %+v, want panic recovered at rung 1", e)
	}
	if e := inc["pata_sick_slow"]; e.Reason != core.ReasonTimeout || e.Rung != -1 {
		t.Errorf("slow entry record = %+v, want timeout with no completed attempt", e)
	}
	if e := inc["pata_sick_budget"]; e.Reason != core.ReasonBudget || e.Rung != 0 {
		t.Errorf("budget entry record = %+v, want budget trip at full budgets", e)
	}

	st := injected.Stats
	if st.EntriesDegraded != 2 {
		t.Errorf("EntriesDegraded = %d, want 2 (panic + timeout; budget trips are not degraded)", st.EntriesDegraded)
	}
	if st.EntriesRetried != 2 {
		t.Errorf("EntriesRetried = %d, want 2", st.EntriesRetried)
	}
	if st.PanicsContained != 1 {
		t.Errorf("PanicsContained = %d, want 1", st.PanicsContained)
	}
	if st.DeadlineTrips < 2 {
		t.Errorf("DeadlineTrips = %d, want >= 2 (both attempts of the slow entry)", st.DeadlineTrips)
	}

	// The recovered panic entry still reports its bug — found on the
	// degraded retry, not lost with the contained panic.
	found := false
	for _, b := range injected.Bugs {
		if b.EntryFn == "pata_sick_panic" && b.Type == typestate.NPD {
			found = true
		}
	}
	if !found {
		t.Error("NPD in the panic-recovered entry missing from the report")
	}
}

// TestDegradedEntriesNotCached pins the cache contract: timed-out and
// panic-recovered entries are never persisted (a warm re-run re-attempts
// them), while a budget-tripped entry — deterministic — is cached, with its
// incomplete record synthesized on replay.
func TestDegradedEntriesNotCached(t *testing.T) {
	mod := sickCorpusModule(t)
	store, err := acache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		return core.Config{
			Checkers:     typestate.CoreCheckers(),
			EntryTimeout: 2 * time.Second,
			Cache:        store,
			FaultHook:    sickHook,
		}
	}
	cold := core.RunParallel(mod, mk(), 4)
	if cold.Stats.CacheEntriesHit != 0 {
		t.Fatalf("cold run hit the cache: %+v", cold.Stats)
	}
	warm := core.RunParallel(mod, mk(), 4)
	if warm.Stats.CacheEntriesMiss != 2 {
		t.Errorf("warm misses = %d, want exactly the panic and timeout entries (2)", warm.Stats.CacheEntriesMiss)
	}
	if want := warm.Stats.EntryFunctions - 2; int(warm.Stats.CacheEntriesHit) != want {
		t.Errorf("warm hits = %d, want %d (all healthy entries plus the budget-tripped one)",
			warm.Stats.CacheEntriesHit, want)
	}
	inc := incompleteByEntry(warm)
	if len(warm.Incomplete) != 3 {
		t.Fatalf("warm incomplete = %+v, want 3 records", warm.Incomplete)
	}
	if e := inc["pata_sick_budget"]; e.Reason != core.ReasonBudget || e.Rung != 0 {
		t.Errorf("replayed budget record = %+v", e)
	}
	if e := inc["pata_sick_panic"]; e.Reason != core.ReasonPanic || e.Rung != 1 {
		t.Errorf("re-attempted panic record = %+v", e)
	}
	if e := inc["pata_sick_slow"]; e.Reason != core.ReasonTimeout || e.Rung != -1 {
		t.Errorf("re-attempted timeout record = %+v", e)
	}
}

// deepPanicSource holds an entry whose DFS reaches shared_get two calls
// deep, and a later entry (names sort after it) whose NPD is found only
// when shared_get is inlined, i.e. only when none of shared_get's
// instructions is still counted as on the path.
const deepPanicSource = `
struct dev { int flags; };
struct dev *dev_table;

struct dev *shared_get(int k) {
	struct dev *d = dev_table;
	if (k > 3)
		d = NULL;
	return d;
}

int aa_deep_mid(int k) {
	struct dev *d = shared_get(k);
	return k;
}

int aa_deep_entry(int k) {
	return aa_deep_mid(k + 1);
}

int use_shared(int k) {
	struct dev *d = shared_get(k);
	return d->flags;
}
`

// panicChecker is a checker with no events whose OnInstr, when armed,
// panics on its n-th call at call depth 2 or more.
type panicChecker struct {
	armed    bool
	n, calls int
}

func (c *panicChecker) Name() string            { return "panic-on-nth-deep-instr" }
func (c *panicChecker) Type() typestate.BugType { return "PANIC" }
func (c *panicChecker) FSM() *typestate.FSM     { return &typestate.FSM{Initial: "s0", Bug: "bug"} }
func (c *panicChecker) OnInstr(_ cir.Instr, ctx typestate.Ctx, out []typestate.Emission) []typestate.Emission {
	if c.armed && ctx.Depth() >= 2 {
		if c.calls++; c.calls == c.n {
			panic("panicChecker: deep instruction")
		}
	}
	return out
}
func (c *panicChecker) OnBranch(_ *cir.CondBr, _ []typestate.BranchFact, _ typestate.Ctx, out []typestate.Emission) []typestate.Emission {
	return out
}
func (c *panicChecker) OnReturn(_ *cir.Ret, _ typestate.Ctx, out []typestate.Emission) []typestate.Emission {
	return out
}
func (c *panicChecker) OnBind(_ *cir.Register, _ cir.Value, _ *cir.Call, _ typestate.Ctx, out []typestate.Emission) []typestate.Emission {
	return out
}

// TestContainedPanicLeavesNoPathState: a checker panic deep inside one
// entry skips the DFS's on-path decrements and leaves emissions in the
// engine's buffer. The panic fence must discard that state with the
// engine, so on one worker the entries after the panicked one report
// exactly what a fresh engine reports for them.
func TestContainedPanicLeavesNoPathState(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	c.Sources["pata_deep.c"] = deepPanicSource
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(armed bool) *core.Result {
		cfg := core.Config{Checkers: append(typestate.CoreCheckers(), &panicChecker{armed: armed, n: 2})}
		pathval.New().Install(&cfg)
		return core.RunParallel(mod, cfg, 1)
	}
	fresh, got := analyze(false), analyze(true)

	if len(got.Incomplete) != 1 || got.Incomplete[0].Entry != "aa_deep_entry" || got.Incomplete[0].Reason != core.ReasonPanic {
		t.Fatalf("incomplete = %+v, want one panic record for aa_deep_entry", got.Incomplete)
	}
	found := false
	for _, b := range fresh.Bugs {
		found = found || (b.EntryFn == "use_shared" && b.Type == typestate.NPD)
	}
	if !found {
		t.Fatal("fresh engine misses the NPD in use_shared; the test would prove nothing")
	}
	skip := map[string]bool{"aa_deep_entry": true}
	if want, have := reportExcept(fresh, skip), reportExcept(got, skip); have != want {
		t.Errorf("entries after a contained panic report differently from a fresh engine:\n--- fresh\n%s\n--- after panic\n%s", want, have)
	}
}

// TestValidatorPanicContained pins Stage 2's panic fence: a validator that
// panics whenever its batch holds one marked candidate, inside a same-entry
// group of at least two, costs only that candidate its verdict. It is
// reported unvalidated, the run counts one contained panic, and its group
// mates keep the verdicts and triggers of an unfaulted run, because the
// engine re-runs the failed group as batches of one. The marked verdict is
// a guess, so a cache must not store it: a warm run hands the candidate to
// the validator again.
func TestValidatorPanicContained(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	type ident struct {
		entry  string
		instr  cir.Instr
		typ    typestate.BugType
		origin int
	}
	id := func(pb *core.PossibleBug) ident { return ident{pb.EntryFn, pb.BugInstr, pb.Type, pb.OriginGID} }
	// fates maps every reported candidate to its verdict and trigger.
	fates := func(res *core.Result) map[ident]string {
		m := make(map[ident]string)
		for _, b := range res.Bugs {
			m[id(b.PossibleBug)] = fmt.Sprintf("validated=%v trigger=%q", b.Validated, b.Trigger)
		}
		return m
	}
	newCfg := func() core.Config {
		cfg := core.Config{Checkers: typestate.CoreCheckers()}
		pathval.New().Install(&cfg)
		return cfg
	}

	baseline := core.RunParallel(mod, newCfg(), 1)
	var marked ident
	for i := 1; i < len(baseline.Possible); i++ {
		if pb := baseline.Possible[i]; pb.EntryFn == baseline.Possible[i-1].EntryFn {
			marked = id(pb)
			break
		}
	}
	if marked.entry == "" {
		t.Fatal("no same-entry candidate group of two or more")
	}

	// faulty validates through pathval but panics on any batch that holds
	// the marked candidate; handed counts those batches.
	var handed atomic.Int64
	cache := newMemCache()
	faulty := func() core.Config {
		cfg := newCfg()
		inner := cfg.ValidateBatch
		cfg.ValidateBatch = func(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
			for _, pb := range bugs {
				if id(pb) == marked {
					handed.Add(1)
					panic("injected validator fault")
				}
			}
			return inner(ctx, bugs, mode)
		}
		cfg.Cache = cache
		return cfg
	}

	want := fates(baseline)
	delete(want, marked)
	for _, run := range []string{"cold", "warm"} {
		handed.Store(0)
		res := core.RunParallel(mod, faulty(), 1)
		if res.Stats.PanicsContained != 1 {
			t.Errorf("%s: PanicsContained = %d, want 1", run, res.Stats.PanicsContained)
		}
		if handed.Load() == 0 {
			t.Errorf("%s: the marked candidate never reached the validator", run)
		}
		got := fates(res)
		if f, ok := got[marked]; !ok || f != fmt.Sprintf("validated=false trigger=%q", []string(nil)) {
			t.Errorf("%s: marked candidate reported as %q (present %v), want kept unvalidated", run, f, ok)
		}
		delete(got, marked)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: verdicts of the other candidates differ from an unfaulted run:\n got %v\nwant %v", run, got, want)
		}
	}
	// The cold run hands the marked candidate over in its group and then
	// alone; the warm run replays its group mates and hands it over alone.
	if h := handed.Load(); h != 1 {
		t.Errorf("warm: the marked candidate reached the validator %d times, want 1", h)
	}
}
