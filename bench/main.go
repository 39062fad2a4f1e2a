// Command bench is PATA's benchmark. It generates a corpus with ground
// truth from a seed, builds cmd/pata and cmd/patad from the enclosing
// checkout, and drives them as black boxes in a closed loop: one child
// process or one socket request at a time. It prints every metric as
// `workload metric value unit`, checks every output, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. Gated times are
// normalized by a reference task run next to every measurement (see
// hostref/main.go), so that the host's drifting speed cancels out.
//
//	go run . -workload scan-linux -seed 1            (from bench/)
//	bash bench/run.sh --workload serve-edit --seed 1 --seconds 20 --trace 0
//
// With -trace 1 the run instead reports per-layer metrics, from an
// in-process replay of the pipeline with a span at every layer boundary;
// see README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runLimit caps one workload run, builds excluded, well inside the three
// minutes a run may take.
const runLimit = 150 * time.Second

// options is one invocation. scale and ops exist for the smoke test: 0
// selects the workload's own scale and a loop bounded by seconds.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	scale    int
	ops      int
}

// metric is one printed number. Note carries a tail's sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload run. Metrics is exactly the BENCHMARK.json set
// for the mode (end_to_end, or per_layer with -trace 1); Extra holds what
// is printed but not gated, such as raw medians, tails and the reference
// task's own times.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Machine   machine  `json:"machine"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	Extra     []metric `json:"extra,omitempty"`
	// Samples keeps the raw values behind the end-to-end metrics, in op
	// order, for the results file only.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// check counts one attempted op and records its failure, if any.
func (r *result) check(err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
	return false
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) extra(name string, v float64, unit, note string) {
	r.Extra = append(r.Extra, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// tail records the highest percentile of xs with at least ten samples
// above it, with the sample count.
func (r *result) tail(prefix string, xs []float64, unit string) {
	if p := tailPercentile(len(xs)); p > 0 {
		r.extra(fmt.Sprintf("%s_p%d_%s", prefix, int(p), unit), percentile(xs, p), unit, fmt.Sprintf("n=%d", len(xs)))
	}
}

func (r *result) correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// print writes the human-readable lines and then the final JSON line.
func (r *result) print(w io.Writer) {
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
		fmt.Fprintf(w, "%s %s %g %s", r.Workload, m.Name, m.Value, m.Unit)
		if m.Note != "" {
			fmt.Fprintf(w, " %s", m.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s machine num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", r.Workload,
		r.Machine.NumCPU, r.Machine.GOMAXPROCS, r.Machine.GoVersion, r.Machine.Commit)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error %s\n", r.Workload, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms})
	fmt.Fprintln(w, string(line))
}

// env is what every workload run shares: the checkout, its work area, and
// the freshly built tools.
type env struct {
	root    string
	workDir string // <root>/.bench_build, ignored by git
	pata    string
	patad   string
	hostref string
	refSum  string // the reference task's checksum, from its first run
	machine machine
}

func setup() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, workDir: filepath.Join(root, ".bench_build")}
	bin := filepath.Join(e.workDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	if err := buildTools(root, bin); err != nil {
		return nil, err
	}
	e.pata, e.patad = filepath.Join(bin, "pata"), filepath.Join(bin, "patad")
	e.hostref = filepath.Join(bin, "hostref")
	e.machine = machineInfo(root)
	return e, nil
}

// refRun is one run of the reference task.
type refRun struct{ wall, cpu time.Duration }

// runRef runs the reference task (bench/hostref) once as a fresh process
// and checks that it printed the same checksum as its first run.
func (e *env) runRef(ctx context.Context) (refRun, error) {
	cmd := exec.CommandContext(ctx, e.hostref)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	start := time.Now()
	err := cmd.Run()
	r := refRun{wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("reference task: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	sum := strings.TrimSpace(stdout.String())
	if e.refSum == "" {
		e.refSum = sum
	} else if sum != e.refSum {
		return r, fmt.Errorf("reference task printed %q, first run %q", sum, e.refSum)
	}
	if r.cpu <= 0 {
		return r, errors.New("reference task: no CPU time reported")
	}
	return r, nil
}

// run executes one workload run and returns its result; an error means the
// benchmark itself could not run, not that an op failed.
func run(e *env, opts options) (*result, error) {
	w, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.scale == 0 {
		opts.scale = w.scale
	}
	runDir, err := os.MkdirTemp(e.workDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	r := &result{Workload: w.name, Seed: opts.seed, Trace: opts.trace, Machine: e.machine}
	if opts.trace {
		err = traceRun(ctx, e, w, opts, runDir, r)
	} else if w.kind == scan {
		err = scanRun(ctx, e, w, opts, runDir, r)
	} else {
		err = serveRun(ctx, e, w, opts, runDir, r)
	}
	if err != nil {
		if len(r.Errors) > 0 {
			return nil, fmt.Errorf("%s: %w (first failed op: %s)", w.name, err, r.Errors[0])
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := writeResult(e, r); err != nil {
		return nil, err
	}
	return r, nil
}

// writeResult keeps the full result, machine record included, under the
// work area.
func writeResult(e *env, r *result) error {
	dir := filepath.Join(e.workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// until reports whether the timed loop of a run should continue after done
// ops: a fixed count when opts.ops is set, otherwise until the deadline,
// with at least one op.
func (o options) until(deadline time.Time, done int) bool {
	if o.ops > 0 {
		return done < o.ops
	}
	return done == 0 || time.Now().Before(deadline)
}

func main() {
	var (
		opts  options
		all   bool
		trace int
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run (scan-linux, scan-helper, scan-validate, serve-edit)")
	flag.BoolVar(&all, "all", false, "run every workload in turn")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed (>= 0); the same seed gives the same inputs")
	flag.IntVar(&opts.seconds, "seconds", 20, "length of the timed loop, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced in-process run instead of end-to-end ones")
	flag.StringVar(&opts.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	flag.Parse()
	if (opts.workload == "") == !all || opts.seed < 0 || opts.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench (-workload NAME | -all) [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE]")
		os.Exit(2)
	}
	opts.trace = trace == 1

	names := []string{opts.workload}
	if all {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if _, err := findWorkload(names[0]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	e, err := setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, name := range names {
		opts.workload = name
		r, err := run(e, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r.print(os.Stdout)
	}
}
