// Command patabench regenerates the paper's evaluation tables and figures
// on the synthetic OS corpora.
//
// Usage:
//
//	patabench -exp table4|table5|table6|table7|table8|fig11|fpaudit|cases|fsm|pruning|degrade|daemon|all
//	patabench -exp bench [-bench-out BENCH_pipeline.json]
//	patabench -exp incremental [-incremental-out BENCH_incremental.json]
//	patabench -exp validate [-validate-out BENCH_validate.json]
//	patabench -exp scaling [-scaling-out BENCH_scaling.json]
//	patabench -exp smoke
//	patabench -exp validate-smoke
//	patabench -exp scaling-smoke
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
	which := flag.String("exp", "all", "experiment: table4, table5, table6, table7, table8, fig11, fpaudit, extensions, cases, fsm, pruning, degrade, daemon, bench, incremental, validate, scaling, or all")
	benchOut := flag.String("bench-out", "BENCH_pipeline.json", "output path for -exp bench")
	incOut := flag.String("incremental-out", "BENCH_incremental.json", "output path for -exp incremental")
	valOut := flag.String("validate-out", "BENCH_validate.json", "output path for -exp validate")
	scalingOut := flag.String("scaling-out", "BENCH_scaling.json", "output path for -exp scaling")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile (channel/select waits) at exit to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile at exit to this file")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the running experiment through the engine's
	// context path; the run loop then stops between experiments and exits
	// 130 without writing a partial BENCH json. A second signal kills hard
	// (NotifyContext restores default handling after the first).
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

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "patabench: %s: %v\n", name, err)
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "patabench:", perr)
		}
		os.Exit(1)
	}
	interrupted := func() {
		fmt.Fprintln(os.Stderr, "patabench: interrupted")
		if perr := prof.Stop(); perr != nil {
			fmt.Fprintln(os.Stderr, "patabench:", perr)
		}
		os.Exit(130)
	}
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := f(); err != nil {
			fail(name, err)
		}
		// A cancelled experiment returns a partial (well-formed) table, not
		// an error; stop the sequence here rather than printing the rest of
		// the suite against a dead context.
		if ctx.Err() != nil {
			interrupted()
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
	run("pruning", func() error { _, err := exp.PruningTable(os.Stdout); return err })
	run("degrade", func() error { _, err := exp.DegradeTable(os.Stdout); return err })
	run("daemon", func() error { _, err := exp.DaemonTable(os.Stdout); return err })

	// bench, incremental, validate and scaling write BENCH_*.json files, so
	// they only run when asked for explicitly, never under -exp all.
	if *which == "bench" {
		if err := exp.WriteBenchJSON(os.Stdout, *benchOut); err != nil {
			fail("bench", err)
		}
	}
	if *which == "incremental" {
		if err := exp.WriteIncrementalJSON(os.Stdout, *incOut); err != nil {
			fail("incremental", err)
		}
	}
	if *which == "validate" {
		if err := exp.WriteValidateJSON(os.Stdout, *valOut); err != nil {
			fail("validate", err)
		}
	}
	if *which == "scaling" {
		if err := exp.WriteScalingJSON(os.Stdout, *scalingOut); err != nil {
			fail("scaling", err)
		}
	}
	// smoke is the CI wall-clock gate for the adaptive size gate; it runs
	// only when selected so -exp all stays timing-independent.
	if *which == "smoke" {
		if err := exp.BenchSmoke(os.Stdout); err != nil {
			fail("smoke", err)
		}
	}
	// validate-smoke is the CI gate for batched Stage-2 validation: byte-
	// identical reports and solver time within 1.1x of per-candidate mode.
	if *which == "validate-smoke" {
		if err := exp.ValidateSmoke(os.Stdout); err != nil {
			fail("validate-smoke", err)
		}
	}
	// scaling-smoke is the CI gate for parallel scaling: workers=4 must beat
	// workers=1 by a CPU-count-aware floor with byte-identical reports.
	if *which == "scaling-smoke" {
		if err := exp.ScalingSmoke(os.Stdout); err != nil {
			fail("scaling-smoke", err)
		}
	}
	if ctx.Err() != nil {
		interrupted()
	}
}
