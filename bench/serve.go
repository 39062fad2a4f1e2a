package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/oscorpus"
	"repro/internal/patad"
)

// The daemon runs in its own directory with relative paths, so the socket
// path stays short and invalidate keys are exactly the daemon's -dir paths:
// a key the daemon did not load from -dir would add a second copy of the
// file instead of replacing it.
const (
	daemonCorpus = "corpus"
	daemonSocket = "d.sock"
	daemonCache  = "cache"
)

// opTimeout bounds one protocol request.
const opTimeout = 60 * time.Second

// daemon is one patad process with one socket connection.
type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
	conn   net.Conn
	rd     *bufio.Reader
	nextID int
}

// startDaemon spawns patad in dir (which holds the corpus) and connects
// once it listens.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-dir", daemonCorpus, "-socket", daemonSocket,
		"-cache-dir", daemonCache, "-workers", "0")
	d.cmd.Dir = dir
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	sock, err := socketPath(filepath.Join(dir, daemonSocket))
	if err != nil {
		d.kill()
		return nil, err
	}
	for {
		conn, err := net.Dial("unix", sock)
		if err == nil {
			d.conn, d.rd = conn, bufio.NewReaderSize(conn, 1<<20)
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("patad exited before listening: %s", strings.TrimSpace(d.stderr.String()))
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// socketPath returns the shorter of path's absolute and working-directory
// relative spellings; Unix socket addresses are limited to 108 bytes.
func socketPath(path string) (string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	best := abs
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, abs); err == nil && len(rel) < len(best) {
			best = rel
		}
	}
	if len(best) > 100 {
		return "", fmt.Errorf("socket path %s is too long for a Unix socket", best)
	}
	return best, nil
}

// call sends one request and reads its response, returning the response
// line's size.
func (d *daemon) call(req patad.Request) (*patad.Response, int, error) {
	d.nextID++
	req.ID = strconv.Itoa(d.nextID)
	data, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	d.conn.SetDeadline(time.Now().Add(opTimeout))
	if _, err := d.conn.Write(append(data, '\n')); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", req.Op, err)
	}
	line, err := d.rd.ReadBytes('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", req.Op, err)
	}
	var resp patad.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, 0, fmt.Errorf("%s response: %w", req.Op, err)
	}
	if resp.ID != req.ID {
		return nil, 0, fmt.Errorf("%s: response id %q, want %q", req.Op, resp.ID, req.ID)
	}
	if !resp.OK {
		return &resp, len(line), fmt.Errorf("%s: %s", req.Op, resp.Error)
	}
	return &resp, len(line), nil
}

// analyze requests an analysis and checks it: no incomplete entries and,
// when want is set, the same bug set.
func (d *daemon) analyze(want string) (*patad.Response, int, error) {
	resp, n, err := d.call(patad.Request{Op: patad.OpAnalyze})
	if err != nil {
		return nil, n, err
	}
	if len(resp.Incomplete) > 0 {
		return nil, n, fmt.Errorf("analyze: %d incomplete entries", len(resp.Incomplete))
	}
	if want != "" {
		if err := sameBugs(bugSet(resp.Bugs, daemonCorpus), want); err != nil {
			return nil, n, err
		}
	}
	return resp, n, nil
}

// cpu is the daemon's CPU time so far: the nanosecond run times in
// /proc/PID/task/*/schedstat, summed over its threads. The Go runtime does
// not retire threads, so the sum only grows; per-tick rusage would be too
// coarse for one op.
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread is gone
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat for task %s: %w", t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// rss is the daemon's resident set now, in KiB, from /proc/PID/status.
func (d *daemon) rss() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// stop asks the daemon to drain and waits for it to exit cleanly. A daemon
// that does not exit is killed.
func (d *daemon) stop() error {
	_, _, err := d.call(patad.Request{Op: patad.OpShutdown})
	select {
	case <-d.done:
	case <-time.After(opTimeout):
		d.kill()
		return errors.New("patad did not exit after shutdown")
	}
	d.conn.Close()
	if err != nil {
		return err
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("patad: %s: %s", d.cmd.ProcessState, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// kill ends the daemon at once and waits for it; safe after exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	if d.conn != nil {
		d.conn.Close()
	}
}

// editor produces the serve-edit workload's edits: each one mutates two
// more functions of the current sources (oscorpus.Mutate is inert, so the
// report must not change) and yields the changed files keyed by prefix
// plus their corpus name — for the daemon, its own -dir paths.
type editor struct {
	cur    map[string]string // corpus name → source
	seed   int64
	prefix string
	n      int
}

func (ed *editor) next() map[string]string {
	next, _ := oscorpus.Mutate(ed.cur, 2, ed.seed<<20+int64(ed.n))
	ed.n++
	changed := make(map[string]string)
	for name, src := range next {
		if ed.cur[name] != src {
			changed[ed.prefix+name] = src
		}
	}
	ed.cur = next
	return changed
}

// serveOut is what one serve op observed at the protocol.
type serveOut struct {
	total, invalidate time.Duration // the op, and its invalidate
	frontier          int
	misses            int64
	size              int // bytes of the analyze response
}

// serveOp runs one serve-edit op and checks it: invalidate the next edit
// and analyze, where exactly the frontier must miss the capsule store.
func (d *daemon) serveOp(ed *editor, want string) (serveOut, error) {
	var out serveOut
	start := time.Now()
	inv, _, err := d.call(patad.Request{Op: patad.OpInvalidate, Sources: ed.next()})
	if err != nil {
		return out, err
	}
	out.invalidate, out.frontier = time.Since(start), len(inv.Frontier)
	resp, size, err := d.analyze(want)
	out.total = time.Since(start)
	if err != nil {
		return out, err
	}
	out.misses, out.size = resp.Stats.CacheEntriesMiss, size
	if out.misses != int64(out.frontier) {
		return out, fmt.Errorf("analyze missed %d entries, the edit's frontier has %d", out.misses, out.frontier)
	}
	return out, nil
}

// serveStart writes c into dir, spawns patad there and waits for its ping
// response. It returns the daemon and the time from spawning it to that
// response.
func serveStart(ctx context.Context, e *env, c *oscorpus.Corpus, dir string) (*daemon, time.Duration, error) {
	if err := writeCorpus(c, filepath.Join(dir, daemonCorpus)); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(ctx, e.patad, dir)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := d.call(patad.Request{Op: patad.OpPing}); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// serveRun is the resident-daemon workload: start several fresh daemons
// (keeping the last), run the cold analyze that fills the kept one's
// capsule store, warm up, then run the timed loop of edits on one
// connection. The reference task runs after every set-up and every timed
// op.
func serveRun(ctx context.Context, e *env, w workload, opts options, runDir string, r *result) error {
	var (
		s samples
		d *daemon
	)
	c := w.corpus(opts.seed, opts.scale)
	for i := 0; i < setups; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("serve-%d", i))
		di, ready, err := serveStart(ctx, e, c, dir)
		if !r.check(err) {
			return fmt.Errorf("set-up %d: %v", i, err)
		}
		if err := s.addSetup(ctx, e, ready); err != nil {
			di.kill()
			return err
		}
		if i == setups-1 {
			d = di
			break
		}
		if err := di.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	defer d.kill()

	start := time.Now()
	cold, _, err := d.analyze("")
	if !r.check(err) {
		return fmt.Errorf("cold analyze: %v", err)
	}
	s.coldOp = ms(time.Since(start))
	want := bugSet(cold.Bugs, daemonCorpus)
	sc := scoreFindings(c.Truth, findings(cold.Bugs, daemonCorpus))

	ed := &editor{cur: c.Sources, seed: opts.seed, prefix: daemonCorpus + "/"}
	for i := 0; i < warmups; i++ {
		_, err := d.serveOp(ed, want)
		r.check(err)
	}
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	for n := 0; opts.until(deadline, n); n++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cpu0, err := d.cpu()
		if err != nil {
			return err
		}
		o, err := d.serveOp(ed, want)
		cpu1, cerr := d.cpu()
		rss, rerr := d.rss()
		if cerr != nil || rerr != nil {
			return errors.Join(cerr, rerr)
		}
		if !r.check(err) {
			continue
		}
		if err := s.addOp(ctx, e, o.total, cpu1-cpu0, float64(rss)/1024); err != nil {
			return err
		}
	}
	if err := d.stop(); err != nil {
		return err
	}
	if len(s.op) == 0 {
		return errors.New("no timed op succeeded")
	}
	r.endToEnd(s, sc)
	return nil
}
