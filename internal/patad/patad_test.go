package patad

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pata "repro"
	"repro/internal/core"
	"repro/internal/minicc"
)

// Two-file test module: alpha carries a validated NPD bug, beta is clean.
// Two independent entry functions, so the invalidation frontier of a
// one-file edit is exactly one entry.
const srcAlpha = `
struct dev { int flags; };
int alpha(struct dev *d) {
	if (!d)
		return d->flags;
	return 0;
}`

const srcBeta = `
int beta(int x) {
	if (x > 0)
		return 1;
	return 0;
}`

func testSources() map[string]string {
	return map[string]string{"a.c": srcAlpha, "b.c": srcBeta}
}

// cliReport renders what the pata CLI would print for these sources under
// cfg — the parity oracle for the daemon's Report field.
func cliReport(t *testing.T, sources map[string]string, cfg pata.Config) string {
	t.Helper()
	cfg.CacheDir = "" // oracle runs cold; identity must not depend on the cache
	res, err := pata.AnalyzeSources("program", sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report()
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Sources == nil {
		opts.Sources = testSources()
	}
	if opts.Stderr == nil {
		opts.Stderr = io.Discard
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

func TestAnalyzeReportMatchesCLI(t *testing.T) {
	srv := newTestServer(t, Options{})
	resp := srv.analyze(context.Background(), &Request{ID: "a1", Op: OpAnalyze})
	if !resp.OK {
		t.Fatalf("analyze failed: %s", resp.Error)
	}
	want := cliReport(t, testSources(), pata.Config{})
	if resp.Report != want {
		t.Errorf("daemon report != CLI report:\n--- daemon\n%s--- cli\n%s", resp.Report, want)
	}
	if len(resp.Bugs) != 1 || resp.Bugs[0].Type != "NPD" {
		t.Errorf("bugs = %+v, want one NPD", resp.Bugs)
	}
	if resp.Stats == nil || resp.Stats.EntryFunctions != 2 {
		t.Errorf("stats = %+v, want 2 entries", resp.Stats)
	}
}

// TestWarmAnalyzeByteIdentical: after a cold analyze, concurrent warm
// analyzes each replay every entry from the store and render the cold report.
func TestWarmAnalyzeByteIdentical(t *testing.T) {
	srv := newTestServer(t, Options{MaxInFlight: 2, Config: pata.Config{CacheDir: t.TempDir()}})
	cold := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !cold.OK {
		t.Fatalf("cold analyze failed: %s", cold.Error)
	}
	const n = 4
	warms := make([]*Response, n)
	var wg sync.WaitGroup
	for i := range warms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warms[i] = srv.analyze(context.Background(), &Request{Op: OpAnalyze})
		}(i)
	}
	wg.Wait()
	for _, warm := range warms {
		if !warm.OK {
			t.Fatalf("warm analyze failed: %s", warm.Error)
		}
		if warm.Report != cold.Report {
			t.Errorf("warm report differs from cold:\n--- cold\n%s--- warm\n%s", cold.Report, warm.Report)
		}
		if warm.Stats.CacheEntriesHit != 2 || warm.Stats.CacheEntriesMiss != 0 {
			t.Errorf("warm run not fully cached: hit=%d miss=%d",
				warm.Stats.CacheEntriesHit, warm.Stats.CacheEntriesMiss)
		}
	}
}

func TestInvalidateFrontier(t *testing.T) {
	srv := newTestServer(t, Options{Config: pata.Config{CacheDir: t.TempDir()}})
	if resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze}); !resp.OK {
		t.Fatalf("cold analyze failed: %s", resp.Error)
	}

	// Edit b.c only: the frontier must be exactly beta.
	edited := strings.Replace(srcBeta, "x > 0", "x > 1", 1)
	inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"b.c": edited}})
	if !inv.OK {
		t.Fatalf("invalidate failed: %s", inv.Error)
	}
	if len(inv.Changed) != 1 || inv.Changed[0] != "beta" {
		t.Errorf("Changed = %v, want [beta]", inv.Changed)
	}
	if len(inv.Frontier) != 1 || inv.Frontier[0] != "beta" {
		t.Errorf("Frontier = %v, want [beta]", inv.Frontier)
	}

	// The next analyze re-runs exactly the frontier; alpha replays warm.
	resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !resp.OK {
		t.Fatalf("post-invalidate analyze failed: %s", resp.Error)
	}
	if resp.Stats.CacheEntriesHit != 1 || resp.Stats.CacheEntriesMiss != 1 {
		t.Errorf("post-invalidate cache: hit=%d miss=%d, want 1/1",
			resp.Stats.CacheEntriesHit, resp.Stats.CacheEntriesMiss)
	}
	want := cliReport(t, map[string]string{"a.c": srcAlpha, "b.c": edited}, pata.Config{})
	if resp.Report != want {
		t.Errorf("post-invalidate report != CLI report on edited sources:\n--- daemon\n%s--- cli\n%s",
			resp.Report, want)
	}
}

func TestInvalidateNoOpAndRemove(t *testing.T) {
	srv := newTestServer(t, Options{})
	// Same content: nothing changes, everything stays warm.
	inv := srv.invalidate(&Request{Op: OpInvalidate, Sources: map[string]string{"b.c": srcBeta}})
	if !inv.OK || len(inv.Changed) != 0 || len(inv.Frontier) != 0 {
		t.Errorf("no-op invalidate: %+v", inv)
	}
	// Removing a file drops its functions from the frontier computation
	// (beta disappears; the remaining module still analyzes).
	inv = srv.invalidate(&Request{Op: OpInvalidate, Remove: []string{"b.c"}})
	if !inv.OK {
		t.Fatalf("remove failed: %s", inv.Error)
	}
	if len(inv.Changed) != 1 || inv.Changed[0] != "beta" {
		t.Errorf("Changed after remove = %v, want [beta]", inv.Changed)
	}
	resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !resp.OK || resp.Stats.EntryFunctions != 1 {
		t.Errorf("post-remove analyze: ok=%v stats=%+v", resp.OK, resp.Stats)
	}
	// Removing everything is refused: a daemon with no module is useless.
	if inv := srv.invalidate(&Request{Op: OpInvalidate, Remove: []string{"a.c"}}); inv.OK {
		t.Error("removing every source file was accepted")
	}
}

func TestInvalidateFrontendErrorKeepsOldEpoch(t *testing.T) {
	srv := newTestServer(t, Options{})
	before := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	inv := srv.invalidate(&Request{Op: OpInvalidate,
		Sources: map[string]string{"b.c": "int beta( {"}})
	if inv.OK || inv.Error == "" {
		t.Fatalf("broken source accepted: %+v", inv)
	}
	after := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !after.OK || after.Report != before.Report {
		t.Errorf("old epoch not preserved after failed invalidate:\n--- before\n%s--- after\n%s",
			before.Report, after.Report)
	}
}

// TestAdoptedFingerprintsMatchRecompute pins the soundness claim behind
// AdoptFingerprint: re-lowering identical source text produces functions
// whose recomputed fingerprints equal the adopted ones.
func TestAdoptedFingerprintsMatchRecompute(t *testing.T) {
	modA, err := minicc.LowerAll("program", testSources())
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range modA.SortedFuncs() {
		fn.Fingerprint()
	}
	modB, err := minicc.LowerAll("program", testSources())
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range modB.SortedFuncs() {
		old := modA.Funcs[fn.Name]
		if !fn.AdoptFingerprint(old) {
			t.Fatalf("%s: adoption refused", fn.Name)
		}
		fresh, err := minicc.LowerAll("program", testSources())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fn.Fingerprint(), fresh.Funcs[fn.Name].Fingerprint(); got != want {
			t.Errorf("%s: adopted fp %x != recomputed %x", fn.Name, got, want)
		}
	}
}

func TestAdmissionShedsWithBackoffHint(t *testing.T) {
	slow := func(entry string, rung int) *core.FaultSpec {
		return &core.FaultSpec{Slow: 50 * time.Millisecond} // per step: entries take ~1s
	}
	srv := newTestServer(t, Options{MaxInFlight: 1, MaxQueue: -1, FaultHook: slow})

	const n = 4
	resps := make([]*Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = srv.analyze(context.Background(), &Request{ID: fmt.Sprint(i), Op: OpAnalyze})
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, r := range resps {
		switch {
		case r.OK:
			ok++
		case r.Error == "overloaded":
			shed++
			if r.RetryAfterMs <= 0 {
				t.Errorf("shed response missing retry_after_ms hint: %+v", r)
			}
		default:
			t.Errorf("unexpected response: %+v", r)
		}
	}
	if ok < 1 || shed < 1 || ok+shed != n {
		t.Errorf("ok=%d shed=%d of %d, want at least one of each", ok, shed, n)
	}
	st := srv.status(&Request{Op: OpStatus})
	if st.Status.Shed < 1 || st.Status.Served < 1 {
		t.Errorf("status counters: %+v", st.Status)
	}
}

// TestRequestDeadlinePartialResult: a request whose deadline trips returns a
// well-formed partial result, and the cancelled attempts leave no residue in
// the capsule store — once the slowdown stops, the next analyze is complete
// and byte-identical to the CLI.
func TestRequestDeadlinePartialResult(t *testing.T) {
	var slowOn atomic.Bool
	slowOn.Store(true)
	slow := func(entry string, rung int) *core.FaultSpec {
		// Per-step slowdown: each entry would take many seconds; the 50ms
		// request deadline trips at the first post-step poll instead.
		if !slowOn.Load() {
			return nil
		}
		return &core.FaultSpec{Slow: 200 * time.Millisecond}
	}
	srv := newTestServer(t, Options{FaultHook: slow, Config: pata.Config{MaxRetries: -1, CacheDir: t.TempDir()}})
	start := time.Now()
	resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze, TimeoutMs: 50})
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline not enforced: took %v", d)
	}
	if !resp.OK {
		t.Fatalf("deadlined request must still return a well-formed partial result: %s", resp.Error)
	}
	if len(resp.Incomplete) == 0 {
		t.Fatalf("partial result lists no incomplete entries: %+v", resp)
	}
	for _, inc := range resp.Incomplete {
		if inc.Reason != core.ReasonCancelled {
			t.Errorf("incomplete %s: reason %q, want cancelled", inc.Entry, inc.Reason)
		}
	}
	if !strings.Contains(resp.Report, "incomplete analysis") {
		t.Errorf("partial report missing incomplete section:\n%s", resp.Report)
	}

	slowOn.Store(false)
	rec := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !rec.OK || len(rec.Incomplete) != 0 {
		t.Fatalf("recovery analyze: ok=%v incomplete=%+v err=%s", rec.OK, rec.Incomplete, rec.Error)
	}
	if want := cliReport(t, testSources(), pata.Config{}); rec.Report != want {
		t.Errorf("recovery report != CLI report:\n--- daemon\n%s--- cli\n%s", rec.Report, want)
	}
}

func TestEnginePanicContained(t *testing.T) {
	hook := func(entry string, rung int) *core.FaultSpec {
		if entry == "alpha" {
			return &core.FaultSpec{Panic: true}
		}
		return nil
	}
	srv := newTestServer(t, Options{FaultHook: hook, Config: pata.Config{MaxRetries: -1}})
	resp := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !resp.OK {
		t.Fatalf("contained engine panic failed the request: %s", resp.Error)
	}
	if len(resp.Incomplete) != 1 || resp.Incomplete[0].Entry != "alpha" ||
		resp.Incomplete[0].Reason != core.ReasonPanic {
		t.Errorf("incomplete = %+v, want alpha/panic", resp.Incomplete)
	}
	// The healthy entry is unaffected and the daemon keeps serving.
	clean := srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	if !clean.OK {
		t.Errorf("daemon unhealthy after contained panic: %s", clean.Error)
	}
}

func TestGuardedContainsHandlerPanic(t *testing.T) {
	srv := newTestServer(t, Options{})
	resp := srv.guarded(&Request{ID: "p1", Op: "analyze"}, func() *Response {
		panic("poisoned request")
	})
	if resp.OK || !strings.Contains(resp.Error, "contained panic") || resp.ID != "p1" {
		t.Errorf("panic not contained into an error response: %+v", resp)
	}
	if after := srv.analyze(context.Background(), &Request{Op: OpAnalyze}); !after.OK {
		t.Errorf("server unhealthy after contained handler panic: %s", after.Error)
	}
}

func TestDrainShedsNewWorkAndFinishesInFlight(t *testing.T) {
	slow := func(entry string, rung int) *core.FaultSpec {
		return &core.FaultSpec{Slow: 200 * time.Millisecond}
	}
	srv := newTestServer(t, Options{MaxInFlight: 1, FaultHook: slow, DrainTimeout: 30 * time.Second})

	inFlight := make(chan *Response, 1)
	go func() {
		inFlight <- srv.analyze(context.Background(), &Request{ID: "work", Op: OpAnalyze})
	}()
	time.Sleep(50 * time.Millisecond) // let it claim the slot
	go srv.Shutdown()
	time.Sleep(20 * time.Millisecond) // let drain start

	shed := srv.analyze(context.Background(), &Request{ID: "late", Op: OpAnalyze})
	if shed.OK || shed.Error != "draining" || shed.RetryAfterMs <= 0 {
		t.Errorf("request during drain: %+v, want draining + retry hint", shed)
	}

	select {
	case resp := <-inFlight:
		if !resp.OK {
			t.Errorf("in-flight request did not complete across drain: %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request lost in drain")
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	verySlow := func(entry string, rung int) *core.FaultSpec {
		// Entries would run for many seconds; the drain deadline cancels
		// them and the cancellation poll fires within one step.
		return &core.FaultSpec{Slow: 300 * time.Millisecond}
	}
	srv := newTestServer(t, Options{
		FaultHook:    verySlow,
		DrainTimeout: 100 * time.Millisecond,
		Config:       pata.Config{MaxRetries: -1},
	})
	inFlight := make(chan *Response, 1)
	go func() {
		inFlight <- srv.analyze(context.Background(), &Request{Op: OpAnalyze})
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	srv.Shutdown()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("drain hung %v despite deadline", d)
	}
	resp := <-inFlight
	if !resp.OK || len(resp.Incomplete) == 0 {
		t.Errorf("cancelled straggler should yield a partial result: %+v", resp)
	}
}

// TestSessionProtocol drives a full NDJSON session over an in-memory pipe:
// ping, status, malformed input, unknown op, analyze, shutdown.
func TestSessionProtocol(t *testing.T) {
	srv := newTestServer(t, Options{})
	cr, sw := io.Pipe() // server writes responses → client reads
	sr, cw := io.Pipe() // client writes requests → server reads
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sw.Close()
		srv.ServeStream(sr, sw)
	}()

	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, scanInitBuf), scanMaxBuf)
	send := func(line string) Response {
		t.Helper()
		if _, err := io.WriteString(cw, line+"\n"); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %q (err: %v)", line, sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		return resp
	}

	if r := send(`{"op":"ping","id":"p"}`); !r.OK || r.ID != "p" {
		t.Errorf("ping: %+v", r)
	}
	if r := send(`{"op":"status"}`); !r.OK || r.Status == nil || r.Status.Files != 2 || r.Status.Entries != 2 ||
		r.Status.ResidentEntries != 0 || r.Status.ResidentKB != 0 {
		t.Errorf("status: %+v", r)
	}
	if r := send(`{not json`); r.OK || !strings.Contains(r.Error, "bad request") {
		t.Errorf("malformed line: %+v", r)
	}
	if r := send(`{"op":"frobnicate"}`); r.OK || !strings.Contains(r.Error, "unknown op") {
		t.Errorf("unknown op: %+v", r)
	}
	if r := send(`{"op":"analyze","id":"a"}`); !r.OK || r.ID != "a" || len(r.Bugs) != 1 {
		t.Errorf("analyze: ok=%v id=%q bugs=%d", r.OK, r.ID, len(r.Bugs))
	}
	if r := send(`{"op":"shutdown","id":"s"}`); !r.OK || r.ID != "s" {
		t.Errorf("shutdown ack: %+v", r)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session did not end after shutdown")
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after protocol shutdown")
	}
	cw.Close()
}

// TestSessionInvalidateThenAnalyzeOrdering pins the epoch boundary: a
// client that pipelines invalidate-then-analyze must see the analyze run
// against the new sources.
func TestSessionInvalidateThenAnalyzeOrdering(t *testing.T) {
	srv := newTestServer(t, Options{})
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	go func() {
		defer sw.Close()
		srv.ServeStream(sr, sw)
	}()
	defer cw.Close()

	// Replace alpha's body with a clean one and pipeline the analyze in the
	// same write: the bug must be gone in the response.
	fixed := strings.Replace(srcAlpha, "if (!d)", "if (d)", 1)
	req := Request{Op: OpInvalidate, ID: "i", Sources: map[string]string{"a.c": fixed}}
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(cw, string(line)+"\n"+`{"op":"analyze","id":"a"}`+"\n"); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, scanInitBuf), scanMaxBuf)
	byID := map[string]Response{}
	for len(byID) < 2 && sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		byID[resp.ID] = resp
	}
	if inv := byID["i"]; !inv.OK || len(inv.Frontier) != 1 || inv.Frontier[0] != "alpha" {
		t.Errorf("invalidate: %+v", byID["i"])
	}
	if an := byID["a"]; !an.OK || len(an.Bugs) != 0 {
		t.Errorf("analyze after fix still reports bugs: %+v", an.Bugs)
	}
}

// TestOversizedLineKeepsSession: a request line longer than the line cap
// gets an error response, and the session keeps serving the lines after
// it. The cap is lowered from 64 MiB to keep the test small; the reader
// path is the same.
func TestOversizedLineKeepsSession(t *testing.T) {
	srv := newTestServer(t, Options{})
	srv.maxLine = 4 << 10
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	go func() {
		defer sw.Close()
		srv.ServeStream(sr, sw)
	}()
	go func() {
		defer cw.Close()
		big := strings.Repeat("x", 2*srv.maxLine)
		io.WriteString(cw, `{"op":"ping","id":"p1"}`+"\n"+
			`{"op":"invalidate","id":"big","sources":{"b.c":"`+big+`"}}`+"\n"+
			`{"op":"ping","id":"p2"}`+"\n")
	}()

	sc := bufio.NewScanner(cr)
	var resps []Response
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		resps = append(resps, resp)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3: %+v", len(resps), resps)
	}
	if r := resps[0]; !r.OK || r.ID != "p1" {
		t.Errorf("first ping: %+v", r)
	}
	if r := resps[1]; r.OK || !strings.Contains(r.Error, "line longer than") {
		t.Errorf("oversized line: %+v", r)
	}
	if r := resps[2]; !r.OK || r.ID != "p2" {
		t.Errorf("ping after the oversized line: %+v", r)
	}
}
