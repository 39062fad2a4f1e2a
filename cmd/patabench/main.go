// Command patabench regenerates the paper's evaluation tables and figures
// on the synthetic OS corpora.
//
// Usage:
//
//	patabench -exp table4|table5|table6|table7|table8|fig11|fpaudit|extensions|cases|fsm|degrade|all
//
// Timing lives in the bench/ harness (bash bench/run.sh, see bench/README.md);
// patabench only reproduces the paper's tables.
//
// -cpuprofile/-memprofile write pprof profiles of the selected experiment,
// for chasing regressions in the analysis hot loops. -blockprofile and
// -mutexprofile are the contention lens for the parallel experiments: they
// show time parked on channels and which locks workers convoy on.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/exp"
	"repro/internal/profiles"
)

func main() {
	which := flag.String("exp", "all", "experiment: table4, table5, table6, table7, table8, fig11, fpaudit, extensions, cases, fsm, degrade, or all")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile (channel/select waits) at exit to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile at exit to this file")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the running experiment through the engine's
	// context path; the run loop then stops between experiments and exits
	// 130. A second signal kills hard (NotifyContext restores default
	// handling after the first).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	exp.SetBaseContext(ctx)

	prof := &profiles.Set{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "patabench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "patabench:", err)
		}
	}()

	exit := func(code int) {
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "patabench:", perr)
		}
		os.Exit(code)
	}
	ran := false
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		ran = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "patabench: %s: %v\n", name, err)
			exit(1)
		}
		// A cancelled experiment returns a partial (well-formed) table, not
		// an error; stop the sequence here rather than printing the rest of
		// the suite against a dead context.
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "patabench: interrupted")
			exit(130)
		}
		fmt.Println()
	}

	run("fsm", func() error { exp.FSMs(os.Stdout); return nil })
	run("table4", func() error { exp.Table4(os.Stdout); return nil })
	run("table5", func() error { _, err := exp.Table5(os.Stdout); return err })
	run("fig11", func() error { _, err := exp.Fig11(os.Stdout); return err })
	run("table6", func() error { _, err := exp.Table6(os.Stdout); return err })
	run("table7", func() error { _, err := exp.Table7(os.Stdout); return err })
	run("table8", func() error { _, err := exp.Table8(os.Stdout); return err })
	run("fpaudit", func() error { _, err := exp.FPAudit(os.Stdout); return err })
	run("extensions", func() error { _, err := exp.Extensions(os.Stdout); return err })
	run("cases", func() error { _, err := exp.Cases(os.Stdout); return err })
	run("degrade", func() error { _, err := exp.DegradeTable(os.Stdout); return err })

	if !ran {
		fmt.Fprintf(os.Stderr, "patabench: unknown experiment %q\n", *which)
		exit(2)
	}
}
