package patad

// Subprocess end-to-end tests: the test binary re-execs itself as the
// daemon (TestMain + PATAD_BE_DAEMON), so SIGTERM drains and kill -9
// crashes hit a real process with real signal handling, a real Unix
// socket, and a real on-disk capsule store.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	pata "repro"
	"repro/internal/acache"
)

func TestMain(m *testing.M) {
	if os.Getenv("PATAD_BE_DAEMON") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("PATAD_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "bad PATAD_ARGS:", err)
			os.Exit(1)
		}
		os.Exit(Main(args, os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// e2eCorpus writes a multi-entry corpus to dir: n independent entry
// functions, each with a validated NPD bug, so the run writes one capsule
// per entry as entries complete — enough runway to kill the daemon mid-run.
func e2eCorpus(t *testing.T, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%02d", i)
		src := fmt.Sprintf(`
struct dev%[1]d { int flags; int mode; };
int %[2]s(struct dev%[1]d *d, int x) {
	if (x > %[1]d)
		x = x - 1;
	if (x < 0)
		x = 0;
	if (!d)
		return d->flags;
	return x;
}`, i, name)
		if err := os.WriteFile(filepath.Join(dir, name+".c"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// e2eExpectedReport computes the CLI-parity oracle for the corpus dir.
func e2eExpectedReport(t *testing.T, dir string) string {
	t.Helper()
	res, err := pata.AnalyzeDirCtx(context.Background(), dir, pata.Config{LoopUnroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Report()
}

// daemon is one spawned subprocess daemon.
type daemon struct {
	cmd    *exec.Cmd
	socket string
}

func spawnDaemon(t *testing.T, args []string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Unix socket paths are length-limited (~108 bytes); t.TempDir can
	// exceed that, so sockets live in their own short-lived /tmp dir.
	sockDir, err := os.MkdirTemp("", "pd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })
	socket := filepath.Join(sockDir, "s")

	argv, err := json.Marshal(append(args, "-socket", socket))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "PATAD_BE_DAEMON=1", "PATAD_ARGS="+string(argv))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, socket: socket}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

// wait returns the daemon's exit code.
func (d *daemon) wait(t *testing.T, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit in time")
		return -1
	}
}

// e2eClient is a synchronous NDJSON client over the daemon's socket.
type e2eClient struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialDaemon(t *testing.T, socket string) *e2eClient {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.Dial("unix", socket)
		if err == nil {
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, scanInitBuf), scanMaxBuf)
			c := &e2eClient{conn: conn, sc: sc}
			t.Cleanup(func() { conn.Close() })
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon socket never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *e2eClient) send(t *testing.T, req Request) {
	t.Helper()
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
}

func (c *e2eClient) recv(t *testing.T) Response {
	t.Helper()
	if !c.sc.Scan() {
		t.Fatalf("connection closed without response (err: %v)", c.sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		t.Fatalf("bad response line %q: %v", c.sc.Text(), err)
	}
	return resp
}

func (c *e2eClient) call(t *testing.T, req Request) Response {
	t.Helper()
	c.send(t, req)
	return c.recv(t)
}

// TestDaemonWarmAnalyzeAndInvalidate: cold analyze matches the CLI oracle,
// a repeat analyze replays fully warm and byte-identical, an invalidate
// reports the exact frontier, and shutdown drains to exit 0.
func TestDaemonWarmAnalyzeAndInvalidate(t *testing.T) {
	corpus := t.TempDir()
	e2eCorpus(t, corpus, 6)
	want := e2eExpectedReport(t, corpus)

	cache := t.TempDir()
	d := spawnDaemon(t, []string{"-dir", corpus, "-cache-dir", cache})
	c := dialDaemon(t, d.socket)

	cold := c.call(t, Request{ID: "c", Op: OpAnalyze})
	if !cold.OK {
		t.Fatalf("cold analyze: %s", cold.Error)
	}
	if cold.Report != want {
		t.Errorf("cold daemon report != CLI report:\n--- daemon\n%s--- cli\n%s", cold.Report, want)
	}
	warm := c.call(t, Request{ID: "w", Op: OpAnalyze})
	if warm.Report != cold.Report {
		t.Error("warm report not byte-identical to cold report")
	}
	if warm.Stats.CacheEntriesHit != 6 || warm.Stats.CacheEntriesMiss != 0 {
		t.Errorf("warm run not fully cached: %+v", warm.Stats)
	}

	// Edit one file; the frontier must be that file's entry, and the next
	// analyze must re-run exactly the frontier.
	edited, err := os.ReadFile(filepath.Join(corpus, "f03.c"))
	if err != nil {
		t.Fatal(err)
	}
	inv := c.call(t, Request{ID: "i", Op: OpInvalidate, Sources: map[string]string{
		filepath.Join(corpus, "f03.c"): strings.Replace(string(edited), "x - 1", "x - 2", 1),
	}})
	if !inv.OK || len(inv.Frontier) != 1 || inv.Frontier[0] != "f03" {
		t.Fatalf("invalidate: ok=%v frontier=%v changed=%v err=%s", inv.OK, inv.Frontier, inv.Changed, inv.Error)
	}
	after := c.call(t, Request{ID: "a", Op: OpAnalyze})
	if !after.OK || after.Stats.CacheEntriesHit != 5 || after.Stats.CacheEntriesMiss != 1 {
		t.Errorf("post-invalidate analyze: ok=%v stats hit=%d miss=%d, want 5/1",
			after.OK, after.Stats.CacheEntriesHit, after.Stats.CacheEntriesMiss)
	}

	if r := c.call(t, Request{ID: "s", Op: OpShutdown}); !r.OK {
		t.Errorf("shutdown ack: %+v", r)
	}
	if code := d.wait(t, 30*time.Second); code != 0 {
		t.Errorf("exit code %d after protocol shutdown, want 0", code)
	}
}

// TestDaemonSIGTERMDrain: SIGTERM mid-request stops admission, the
// in-flight analyze still gets its response, and the daemon exits 0.
func TestDaemonSIGTERMDrain(t *testing.T) {
	corpus := t.TempDir()
	e2eCorpus(t, corpus, 12)
	d := spawnDaemon(t, []string{"-dir", corpus})
	c := dialDaemon(t, d.socket)

	if r := c.call(t, Request{ID: "p", Op: OpPing}); !r.OK {
		t.Fatalf("ping: %+v", r)
	}
	c.send(t, Request{ID: "a", Op: OpAnalyze})
	time.Sleep(100 * time.Millisecond) // let the request clear admission
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	resp := c.recv(t)
	if resp.ID != "a" || !resp.OK {
		t.Errorf("in-flight analyze across SIGTERM: %+v", resp)
	}
	if code := d.wait(t, 30*time.Second); code != 0 {
		t.Errorf("exit code %d after SIGTERM drain, want 0", code)
	}
}

// TestDaemonKillDashNineWarmRestart: kill -9 the daemon while capsules are
// being appended; a restarted daemon on the same cache directory must
// recover (checksummed frames: anything torn reads as a miss) and serve a
// byte-identical report, then replay fully warm on the next analyze.
func TestDaemonKillDashNineWarmRestart(t *testing.T) {
	corpus := t.TempDir()
	const entries = 24
	e2eCorpus(t, corpus, entries)
	want := e2eExpectedReport(t, corpus)
	cache := t.TempDir()

	d1 := spawnDaemon(t, []string{"-dir", corpus, "-cache-dir", cache, "-workers", "2"})
	c1 := dialDaemon(t, d1.socket)
	c1.send(t, Request{ID: "doomed", Op: OpAnalyze})

	// Kill as soon as the pack holds an intact frame — but not all of them —
	// so the crash lands mid-run with a partially populated cache.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := capsuleCount(t, cache); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no capsule ever appeared")
		}
		time.Sleep(500 * time.Microsecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	d1.cmd.Wait()

	d2 := spawnDaemon(t, []string{"-dir", corpus, "-cache-dir", cache, "-workers", "2"})
	c2 := dialDaemon(t, d2.socket)
	recovered := c2.call(t, Request{ID: "r", Op: OpAnalyze})
	if !recovered.OK {
		t.Fatalf("post-crash analyze: %s", recovered.Error)
	}
	if recovered.Report != want {
		t.Errorf("post-crash report != CLI report:\n--- daemon\n%s--- cli\n%s", recovered.Report, want)
	}
	if len(recovered.Incomplete) != 0 {
		t.Errorf("post-crash analyze incomplete: %+v", recovered.Incomplete)
	}
	warm := c2.call(t, Request{ID: "w", Op: OpAnalyze})
	if warm.Report != want {
		t.Error("warm post-crash report not byte-identical")
	}
	if warm.Stats.CacheEntriesHit != entries || warm.Stats.CacheEntriesMiss != 0 {
		t.Errorf("store did not recover warm: hit=%d miss=%d, want %d/0",
			warm.Stats.CacheEntriesHit, warm.Stats.CacheEntriesMiss, entries)
	}
	if r := c2.call(t, Request{ID: "s", Op: OpShutdown}); !r.OK {
		t.Errorf("shutdown: %+v", r)
	}
	if code := d2.wait(t, 30*time.Second); code != 0 {
		t.Errorf("exit code %d, want 0", code)
	}
}

// capsuleCount counts the intact frames in dir's capsule pack; 0 before
// the pack exists.
func capsuleCount(t *testing.T, dir string) int {
	t.Helper()
	ends, err := acache.FrameEnds(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(ends)
}

// TestDaemonStdioSession: the -stdio transport end to end — analyze and
// shutdown piped through stdin, responses on stdout, exit 0 (the CI smoke
// step runs the same shape through cmd/patad).
func TestDaemonStdioSession(t *testing.T) {
	corpus := t.TempDir()
	e2eCorpus(t, corpus, 3)
	want := e2eExpectedReport(t, corpus)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	argv, err := json.Marshal([]string{"-dir", corpus, "-stdio"})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "PATAD_BE_DAEMON=1", "PATAD_ARGS="+string(argv))
	cmd.Stderr = os.Stderr
	cmd.Stdin = strings.NewReader(`{"op":"analyze","id":"a1"}` + "\n" + `{"op":"shutdown","id":"s1"}` + "\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("stdio daemon failed: %v\n%s", err, out)
	}
	byID := map[string]Response{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("bad stdout line %q: %v", line, err)
		}
		byID[resp.ID] = resp
	}
	if a := byID["a1"]; !a.OK || a.Report != want {
		t.Errorf("stdio analyze: ok=%v report match=%v", a.OK, a.Report == want)
	}
	if s := byID["s1"]; !s.OK {
		t.Errorf("stdio shutdown: %+v", byID["s1"])
	}
}
