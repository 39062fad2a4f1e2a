package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	pata "repro"
)

// Set-ups per run and untimed warm-up ops before the timed loop.
const (
	setups  = 15
	warmups = 3
)

// pataRun is one `pata -dir D -json` process.
type pataRun struct {
	wall, cpu time.Duration
	rssKB     int64
	bugs      []pata.Bug
}

// runPata runs the CLI once over dir and checks what it printed: exit code
// 0 with no bugs or 3 with some, JSON that decodes, and no incomplete
// entries.
func runPata(ctx context.Context, bin, dir string) (pataRun, error) {
	cmd := exec.CommandContext(ctx, bin, "-dir", dir, "-json", "-workers", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := pataRun{wall: time.Since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssKB = ru.Maxrss
	}
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		return r, fmt.Errorf("pata: %w", err)
	}
	if code != 0 && code != 3 {
		return r, fmt.Errorf("pata exited %d: %s", code, strings.TrimSpace(stderr.String()))
	}
	var out struct {
		Bugs       []pata.Bug             `json:"bugs"`
		Incomplete []pata.IncompleteEntry `json:"incomplete"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return r, fmt.Errorf("pata -json output: %w", err)
	}
	if len(out.Incomplete) > 0 {
		return r, fmt.Errorf("pata: %d incomplete entries, first %s (%s)", len(out.Incomplete), out.Incomplete[0].Entry, out.Incomplete[0].Reason)
	}
	if (code == 3) != (len(out.Bugs) > 0) {
		return r, fmt.Errorf("pata exited %d with %d bugs", code, len(out.Bugs))
	}
	r.bugs = out.Bugs
	return r, nil
}

// bugSet renders bugs one per line with file names relative to the corpus
// root, so runs over different directories compare equal. Trigger values
// are left out: with two Stage-2 workers on validate-heavy, the model the
// solver returns for a bug can differ from run to run, while the bug does
// not.
func bugSet(bugs []pata.Bug, corpusDir string) string {
	var b strings.Builder
	for _, g := range bugs {
		fmt.Fprintf(&b, "%s %s:%d %s<-%s %v\n", g.Type, relFile(g.File, corpusDir), g.Line,
			g.Function, g.EntryFunction, g.Validated)
	}
	return b.String()
}

func relFile(file, corpusDir string) string {
	return strings.TrimPrefix(file, corpusDir+string(filepath.Separator))
}

func findings(bugs []pata.Bug, corpusDir string) []finding {
	out := make([]finding, len(bugs))
	for i, g := range bugs {
		out[i] = finding{Type: g.Type, File: relFile(g.File, corpusDir), Line: g.Line}
	}
	return out
}

// sameBugs checks one op's report against the run's reference report.
func sameBugs(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end)"
	}
	return fmt.Errorf("bug set differs from the first run (%d bugs vs %d): got %q, want %q",
		len(g)-1, len(w)-1, line(g), line(w))
}

// scanRun is a cold-scan workload: set up several times (write the corpus
// to a fresh directory, then time the first pata run over it), warm up,
// then run pata back to back for the timed loop. The reference task runs
// after every set-up and every timed op.
func scanRun(ctx context.Context, e *env, w workload, opts options, runDir string, r *result) error {
	var (
		s    samples
		sc   score
		dir  string
		want string
	)
	c := w.corpus(opts.seed, opts.scale)
	for i := 0; i < setups; i++ {
		di := filepath.Join(runDir, fmt.Sprintf("corpus-%d", i))
		if err := writeCorpus(c, di); err != nil {
			return err
		}
		pr, err := runPata(ctx, e.pata, di)
		if i == 0 {
			if !r.check(err) {
				return fmt.Errorf("first run failed: %v", err)
			}
			dir, want = di, bugSet(pr.bugs, di)
			sc = scoreFindings(c.Truth, findings(pr.bugs, di))
		} else {
			if err == nil {
				err = sameBugs(bugSet(pr.bugs, di), want)
			}
			if rerr := os.RemoveAll(di); rerr != nil {
				return rerr
			}
			if !r.check(err) {
				continue
			}
		}
		if err := s.addSetup(ctx, e, pr.wall); err != nil {
			return err
		}
	}

	for i := 0; i < warmups; i++ {
		pr, err := runPata(ctx, e.pata, dir)
		if err == nil {
			err = sameBugs(bugSet(pr.bugs, dir), want)
		}
		r.check(err)
	}
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	for n := 0; opts.until(deadline, n); n++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		pr, err := runPata(ctx, e.pata, dir)
		if err == nil {
			err = sameBugs(bugSet(pr.bugs, dir), want)
		}
		if !r.check(err) {
			continue
		}
		if err := s.addOp(ctx, e, pr.wall, pr.cpu, float64(pr.rssKB)/1024); err != nil {
			return err
		}
	}
	if len(s.op) == 0 {
		return errors.New("no timed op succeeded")
	}
	r.endToEnd(s, sc)
	return nil
}

// samples are one run's measurements, each paired with the reference run
// made right after it: per timed op, latency, CPU and resident set; per
// set-up, its time. coldOp is serve-edit's cold analyze, printed but not
// gated.
type samples struct {
	op, cpu, rss    []float64 // ms, ms, MB
	refWall, refCPU []float64 // ms, after each timed op
	setup, setupRef []float64 // s, and the reference's wall ms after each
	coldOp          float64   // ms
}

// addOp records one successful timed op and runs the reference after it.
func (s *samples) addOp(ctx context.Context, e *env, wall, cpu time.Duration, rssMB float64) error {
	ref, err := e.runRef(ctx)
	if err != nil {
		return err
	}
	s.op, s.cpu, s.rss = append(s.op, ms(wall)), append(s.cpu, ms(cpu)), append(s.rss, rssMB)
	s.refWall, s.refCPU = append(s.refWall, ms(ref.wall)), append(s.refCPU, ms(ref.cpu))
	return nil
}

// addSetup records one set-up and runs the reference after it.
func (s *samples) addSetup(ctx context.Context, e *env, d time.Duration) error {
	ref, err := e.runRef(ctx)
	if err != nil {
		return err
	}
	s.setup, s.setupRef = append(s.setup, d.Seconds()), append(s.setupRef, ms(ref.wall))
	return nil
}

// endToEnd adds the gated metrics, in BENCHMARK.json order, and prints the
// raw medians and tails beside them. The gated times are normalized by the
// reference run paired with each measurement: on a shared host the CPU's
// speed drifts by tens of percent within minutes, for the op and the
// reference alike, so their quotient moves with the code and not with the
// neighbours (see README.md).
func (r *result) endToEnd(s samples, sc score) {
	r.add("op_norm_ms", normalized(s.op, s.refWall, refWallNominal), "ms")
	r.add("cpu_norm_ms", normalized(s.cpu, s.refCPU, refCPUNominal), "ms")
	r.add("rss_mb", median(s.rss), "MB")
	r.add("setup_s", normalized(s.setup, s.setupRef, refWallNominal), "s")
	r.add("recall", sc.recall(), "ratio")
	r.add("precision", sc.precision(), "ratio")
	r.extra("op_p50_ms", median(s.op), "ms", fmt.Sprintf("n=%d", len(s.op)))
	r.tail("op", s.op, "ms")
	r.extra("op_min_ms", slices.Min(s.op), "ms", "")
	r.extra("cpu_p50_ms", median(s.cpu), "ms", "")
	r.extra("setup_p50_s", median(s.setup), "s", fmt.Sprintf("n=%d", len(s.setup)))
	if s.coldOp > 0 {
		r.extra("cold_analyze_ms", s.coldOp, "ms", "")
	}
	r.extra("harness.ref_p50_ms", median(s.refWall), "ms", fmt.Sprintf("nominal %g", ms(refWallNominal)))
	r.extra("harness.ref_cpu_p50_ms", median(s.refCPU), "ms", fmt.Sprintf("nominal %g", ms(refCPUNominal)))
	r.extra("seeded_bugs", float64(sc.Seeded), "count", "")
	r.extra("false_positives", float64(sc.FalsePos), "count", "")
	r.Samples = map[string][]float64{"op_ms": s.op, "cpu_ms": s.cpu, "rss_mb": s.rss,
		"ref_wall_ms": s.refWall, "ref_cpu_ms": s.refCPU, "setup_s": s.setup, "setup_ref_ms": s.setupRef}
}
