// Command pata analyzes mini-C source files with the PATA framework and
// prints bug reports.
//
// Usage:
//
//	pata [flags] file.c [file2.c ...]
//	pata [flags] -dir path/to/sources
//
// Flags:
//
//	-checkers npd,uva,ml   checkers to run (-h lists them; also: all)
//	-dir DIR               analyze every .c file under DIR
//	-no-alias              run the PATA-NA alias-unaware variant (§5.4)
//	-no-validate           skip Stage-2 SMT path validation
//	-validate-backend B    Stage-2 solver backend: builtin, smtlib2, or smtlib2:CMD
//	-max-conts N           callee continuations per call (P2 cap; negative = unlimited)
//	-stats                 print engine statistics
//	-json                  emit machine-readable JSON
//	-witness               print each bug's witness path and trigger values
//	-unroll N              loop unroll factor (default 1, the paper's rule)
//	-workers N             analysis workers for both stages (0 = GOMAXPROCS, 1 = one worker)
//	-entry-timeout D       wall-clock budget per entry function (0 = none)
//	-run-timeout D         wall-clock budget for the whole run (0 = none)
//	-max-retries N         degrade-ladder retries per sick entry (0 = default 1)
//	-cache-dir DIR         persist per-entry results in DIR for incremental re-runs
//	-cache-max-bytes N     evict least-recently-used cache entries past N bytes
//	-cpuprofile FILE       write a CPU profile of the analysis to FILE
//	-memprofile FILE       write an allocation profile at exit to FILE
//	-blockprofile FILE     write a goroutine blocking profile at exit to FILE
//	-mutexprofile FILE     write a mutex contention profile at exit to FILE
//
// Ctrl-C (or SIGTERM) cancels the analysis gracefully: the partial result is
// printed with its "incomplete analysis" section and a clean run exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	pata "repro"
	"repro/internal/profiles"
	"repro/internal/report"
	"repro/internal/typestate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, analyzes, writes the report to
// stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pata", flag.ContinueOnError)
	flags.SetOutput(stderr)
	checkers := flags.String("checkers", "", typestate.CheckersUsage())
	dir := flags.String("dir", "", "analyze every .c file under this directory")
	noAlias := flags.Bool("no-alias", false, "disable alias analysis (PATA-NA)")
	noValidate := flags.Bool("no-validate", false, "skip SMT path validation")
	validateBackend := flags.String("validate-backend", "", "Stage-2 solver backend: builtin (default), smtlib2, or smtlib2:CMD ARGS to cross-check against an external SMT-LIB2 solver")
	maxConts := flags.Int("max-conts", 0, "callee continuations per call: the P2 cap (0 = default 2, negative = unlimited)")
	stats := flags.Bool("stats", false, "print engine statistics")
	asJSON := flags.Bool("json", false, "emit machine-readable JSON instead of text")
	unroll := flags.Int("unroll", 1, "loop unroll factor (paper default 1)")
	workers := flags.Int("workers", 0, "analysis workers for both stages (0 = GOMAXPROCS, 1 = one worker)")
	cacheDir := flags.String("cache-dir", "", "persist per-entry analysis results in this directory for incremental re-runs")
	cacheMaxBytes := flags.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries once the cache exceeds this many bytes (0 = unlimited)")
	entryTimeout := flags.Duration("entry-timeout", 0, "wall-clock budget per entry function, e.g. 30s (0 = no deadline); sick entries retry on the degrade ladder and are reported as incomplete")
	runTimeout := flags.Duration("run-timeout", 0, "wall-clock budget for the whole analysis (0 = no deadline); on expiry the partial result is reported")
	maxRetries := flags.Int("max-retries", 0, "degrade-ladder retries for a timed-out or panicking entry (0 = default 1, negative = none)")
	witness := flags.Bool("witness", false, "print each bug's witness path and trigger values")
	cpuProfile := flags.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memProfile := flags.String("memprofile", "", "write an allocation profile at exit to this file")
	blockProfile := flags.String("blockprofile", "", "write a goroutine blocking profile at exit to this file (captures channel and lock waits)")
	mutexProfile := flags.String("mutexprofile", "", "write a mutex contention profile at exit to this file (captures lock convoys)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := pata.Config{
		NoAlias:                 *noAlias,
		SkipValidation:          *noValidate,
		MaxContinuationsPerCall: *maxConts,
		LoopUnroll:              *unroll,
		Workers:                 *workers,
		CacheDir:                *cacheDir,
		CacheMaxBytes:           *cacheMaxBytes,
		WitnessPaths:            *witness,
		EntryTimeout:            *entryTimeout,
		RunTimeout:              *runTimeout,
		MaxRetries:              *maxRetries,
		ValidateBackend:         *validateBackend,
	}
	if *checkers != "" {
		cfg.Checkers = strings.Split(*checkers, ",")
	}

	prof := &profiles.Set{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "pata:", err)
		return 1
	}

	// Ctrl-C / SIGTERM cancels the analysis through the engine's context
	// path: the run stops at the next bounded unit of work and the partial
	// result — with its "incomplete analysis" section — is still printed.
	// A second signal kills the process the default way (stop() restores
	// default handling once the analysis returns).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	var (
		res *pata.Result
		err error
	)
	switch {
	case *dir != "":
		res, err = pata.AnalyzeDirCtx(ctx, *dir, cfg)
	case flags.NArg() > 0:
		res, err = pata.AnalyzeFilesCtx(ctx, flags.Args(), cfg)
	default:
		stop()
		fmt.Fprintln(stderr, "usage: pata [flags] file.c ...  |  pata -dir DIR")
		flags.PrintDefaults()
		return 2
	}
	interrupted := ctx.Err() != nil
	stop()

	// exit writes the requested profiles before the code is returned. An
	// interrupted clean run exits 130 (128+SIGINT convention) — "no bugs"
	// from a partial analysis is not a clean bill; bugs found still exit 3
	// (the finding stands even if the run was cut short).
	exit := func(code int) int {
		if werr := prof.Stop(); werr != nil {
			fmt.Fprintln(stderr, "pata:", werr)
			if code == 0 {
				code = 1
			}
		}
		if interrupted && code == 0 {
			code = 130
		}
		return code
	}
	if err != nil {
		// Library errors already carry the "pata:" prefix.
		fmt.Fprintln(stderr, err)
		return exit(1)
	}
	if interrupted {
		fmt.Fprintln(stderr, "pata: interrupted, reporting partial results")
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Bugs       []pata.Bug             `json:"bugs"`
			Incomplete []pata.IncompleteEntry `json:"incomplete,omitempty"`
			Stats      pata.Stats             `json:"stats"`
		}{Bugs: res.Bugs, Incomplete: res.Incomplete, Stats: res.Stats}); err != nil {
			fmt.Fprintln(stderr, "pata:", err)
			return exit(1)
		}
		if len(res.Bugs) > 0 {
			return exit(3)
		}
		return exit(0)
	}
	if len(res.Bugs) == 0 {
		fmt.Fprintln(stdout, "no bugs found")
		// Result.String (the branch below) already renders the incomplete
		// section; without bugs it must still be visible.
		report.WriteIncomplete(stdout, res.Incomplete)
	} else {
		fmt.Fprint(stdout, res)
		if *witness {
			for i, b := range res.Bugs {
				fmt.Fprintf(stdout, "\n[%d] %s at %s:%d\n", i+1, b.Type, b.File, b.Line)
				if len(b.Trigger) > 0 {
					fmt.Fprintf(stdout, "    trigger: %s\n", strings.Join(b.Trigger, ", "))
				}
				if len(b.AliasSet) > 0 {
					fmt.Fprintf(stdout, "    alias set: %s\n", strings.Join(b.AliasSet, ", "))
				}
				for _, line := range b.Witness {
					fmt.Fprintln(stdout, "   ", line)
				}
			}
		}
	}
	if *stats {
		fmt.Fprintln(stdout)
		report.WriteStats(stdout, res.Stats)
	}
	if len(res.Bugs) > 0 {
		return exit(3) // bugs found: non-zero for CI use
	}
	return exit(0)
}
