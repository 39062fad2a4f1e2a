package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oscorpus"
)

// TestMain runs the test binary as the pata command itself when
// PATA_BE_CLI=1, so a test can run main in a process of its own and watch
// its collector.
func TestMain(m *testing.M) {
	if os.Getenv("PATA_BE_CLI") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// writeCorpus writes linux-like ×4 to a temporary directory and returns it.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range oscorpus.Generate(oscorpus.Scaled(oscorpus.LinuxSpec(), 4)).Sources {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// gcLines runs main on dir under GODEBUG=gctrace=1 with env added to an
// environment without GOGC and GOMEMLIMIT, and returns the collector's
// trace lines.
func gcLines(t *testing.T, dir string, env ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-dir", dir)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") && !strings.HasPrefix(kv, "GODEBUG=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, append(env, "PATA_BE_CLI=1", "GODEBUG=gctrace=1")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("pata -dir: %v, want exit 3 (bugs found); stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "bug") {
		t.Fatalf("pata -dir printed no report:\n%s", stdout.String())
	}
	var gcs []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "gc ") {
			gcs = append(gcs, line)
		}
	}
	return gcs
}

// TestBatchHeapRunMakesNoCollection: a run on linux-like ×4 stays under
// the batch budget, so the collector never runs; GOGC or GOMEMLIMIT in the
// environment turns the budget off and the default pacing collects.
func TestBatchHeapRunMakesNoCollection(t *testing.T) {
	dir := writeCorpus(t)
	if gcs := gcLines(t, dir); len(gcs) != 0 {
		t.Errorf("under the batch budget the run collected %d times:\n%s", len(gcs), strings.Join(gcs, "\n"))
	}
	for _, env := range []string{"GOGC=100", "GOMEMLIMIT=1GiB"} {
		if gcs := gcLines(t, dir, env); len(gcs) == 0 {
			t.Errorf("with %s the run never collected: the budget ignored the environment", env)
		}
	}
}
