package patad

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// heapSettings reads the GC percent and the memory limit.
func heapSettings() (percent int, limit int64) {
	percent = debug.SetGCPercent(-1)
	debug.SetGCPercent(percent)
	return percent, debug.SetMemoryLimit(-1)
}

// batchProbe runs Main on dir in this process and checks that once it
// answers a ping, the GC percent and the memory limit are what they were
// before it started, though no collection has run: Main released the
// batch budget itself before it served.
func batchProbe(dir string) error {
	percent, limit := heapSettings()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- Main([]string{"-dir", dir, "-stdio"}, inR, outW, os.Stderr)
		outW.Close()
	}()
	fmt.Fprintln(inW, `{"op":"ping","id":"p"}`)
	sc := bufio.NewScanner(outR)
	if !sc.Scan() {
		return fmt.Errorf("no answer to ping: %v", sc.Err())
	}
	p, l := heapSettings()
	runtime.ReadMemStats(&after)
	go io.Copy(io.Discard, outR)
	fmt.Fprintln(inW, `{"op":"shutdown","id":"s"}`)
	inW.Close()
	if c := <-code; c != 0 {
		return fmt.Errorf("Main exited %d", c)
	}
	if after.NumGC != before.NumGC {
		return fmt.Errorf("%d collections ran before the ping was answered, so the finalizer may have released the budget", after.NumGC-before.NumGC)
	}
	if p != percent || l != limit {
		return fmt.Errorf("serving with GC percent %d, memory limit %d; want %d, %d", p, l, percent, limit)
	}
	return nil
}

// TestBatchHeapReleasedBeforeServing: patad.Main loads under the batch
// budget and serves with the runtime's default pacing. The check runs in a
// fresh process (the test binary re-executed), whose small heap lets the
// start-up finish without a collection.
func TestBatchHeapReleasedBeforeServing(t *testing.T) {
	dir := t.TempDir()
	e2eCorpus(t, dir, 4)
	cmd := exec.Command(os.Args[0])
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, "PATAD_BATCH_PROBE="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v:\n%s", err, out.String())
	}
}
