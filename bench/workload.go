package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/oscorpus"
)

// kind is how a workload drives the analyzer.
type kind int

const (
	// scan: one `pata -dir D -json` process per op.
	scan kind = iota
	// serveEdit: one op is an `invalidate` of two functions followed by an
	// `analyze` of the edited module, against a resident patad; the analyze
	// replays every other entry from patad's capsule store.
	serveEdit
)

// workload is one set of inputs. Why each exists is recorded in
// BENCHMARK.json and README.md; serve-edit reuses scan-linux's corpus so
// that a frontend or Stage-1 change can be told apart from a daemon or
// cache change.
type workload struct {
	name  string
	kind  kind
	spec  func() oscorpus.OSSpec
	scale int
}

var workloads = []workload{
	{name: "scan-linux", kind: scan, spec: oscorpus.LinuxSpec, scale: 4},
	{name: "scan-helper", kind: scan, spec: oscorpus.HelperHeavySpec, scale: 6},
	{name: "scan-validate", kind: scan, spec: oscorpus.ValidationHeavySpec, scale: 12},
	{name: "serve-edit", kind: serveEdit, spec: oscorpus.LinuxSpec, scale: 4},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaledSpec multiplies every per-category count of base by factor and
// offsets its seed by seed. oscorpus.Scaled leaves the helper and
// validation clusters at zero, which would turn the helper-heavy and
// validate-heavy corpora into plain ones, so both are scaled here too.
// Counts depend only on factor; layouts and constants change with seed.
func scaledSpec(base oscorpus.OSSpec, factor int, seed int64) oscorpus.OSSpec {
	out := oscorpus.Scaled(base, factor)
	cats := make([]oscorpus.CatSpec, len(out.Cats))
	for i, c := range out.Cats {
		c.Helpers = base.Cats[i].Helpers * factor
		c.Validation = base.Cats[i].Validation * factor
		cats[i] = c
	}
	out.Cats = cats
	out.Seed += seed
	return out
}

// corpus generates the workload's corpus for seed at the given scale.
func (w workload) corpus(seed int64, scale int) *oscorpus.Corpus {
	return oscorpus.Generate(scaledSpec(w.spec(), scale, seed))
}

// writeCorpus writes c's sources under dir, one file per source name.
func writeCorpus(c *oscorpus.Corpus, dir string) error {
	names := make([]string, 0, len(c.Sources))
	for n := range c.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := filepath.Join(dir, n)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(c.Sources[n]), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// repoRoot finds the checkout the benchmark measures: the nearest ancestor
// of the working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing checkout (go.mod with module repro) above the working directory")
		}
		dir = parent
	}
}

// buildTools builds cmd/pata and cmd/patad from the checkout, and the
// benchmark's reference task, into binDir.
func buildTools(root, binDir string) error {
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{root, []string{"./cmd/pata", "./cmd/patad"}},
		{filepath.Join(root, "bench"), []string{"./hostref"}},
	} {
		cmd := exec.Command("go", append([]string{"build", "-o", binDir + string(os.PathSeparator)}, b.pkgs...)...)
		cmd.Dir = b.dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", strings.Join(b.pkgs, " "), err, stderr.String())
		}
	}
	return nil
}

// machine is the host record every result carries, so two sets of runs
// can be compared only when they ran on comparable hosts.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineInfo(root string) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// A plain source tree has no commit; asking git there could name the
	// commit of some unrelated enclosing repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return m
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
