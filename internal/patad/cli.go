package patad

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pata "repro"
	"repro/internal/profiles"
	"repro/internal/typestate"
)

// Main is the patad command-line entry point, factored out of cmd/patad so
// tests can run the daemon in-process (and the re-exec e2e tests can run it
// as the test binary itself). It returns the process exit code: 0 for a
// clean drain (including SIGTERM), 1 for startup or serve errors, 2 for
// usage errors. Start-up (reading, lowering and indexing the sources) is
// one batch job and runs under profiles.BatchHeap's budget; Main releases
// it before it serves, so the resident daemon keeps the runtime's default
// pacing.
func Main(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("patad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir            = fs.String("dir", "", "load every .c file under this directory")
		socket         = fs.String("socket", "", "serve the NDJSON protocol on this Unix socket path")
		stdio          = fs.Bool("stdio", false, "serve the NDJSON protocol on stdin/stdout (default when -socket is not given)")
		checkers       = fs.String("checkers", "", typestate.CheckersUsage())
		unroll         = fs.Int("unroll", 1, "loop unroll factor (paper default 1)")
		workers        = fs.Int("workers", 0, "analysis workers for both stages per request (0 = GOMAXPROCS, 1 = one worker)")
		entryTimeout   = fs.Duration("entry-timeout", 0, "wall-clock budget per entry function (0 = none)")
		requestTimeout = fs.Duration("request-timeout", 0, "default wall-clock budget per analyze request; a request's timeout_ms overrides it (0 = none)")
		maxRetries     = fs.Int("max-retries", 0, "degrade-ladder retries per sick entry (0 = default 1, negative = none)")
		maxInFlight    = fs.Int("max-inflight", 1, "concurrently running analyses before requests queue")
		maxQueue       = fs.Int("max-queue", 8, "requests waiting for a slot before load-shedding with retry_after_ms")
		drainTimeout   = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain grace period for in-flight work on SIGTERM/shutdown")
		cacheDir       = fs.String("cache-dir", "", "persist per-entry analysis capsules in this directory (enables crash-safe warm restart)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var paths []string
	var err error
	if *dir != "" {
		paths, err = pata.SourcePaths(*dir)
		if err != nil {
			fmt.Fprintln(stderr, "patad:", err)
			return 1
		}
	} else {
		paths = fs.Args()
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: patad [flags] file.c ...  |  patad [flags] -dir DIR")
		fs.PrintDefaults()
		return 2
	}
	release := profiles.BatchHeap(profiles.BatchBudget)
	defer release()
	sources, err := pata.ReadSources(paths)
	if err != nil {
		fmt.Fprintln(stderr, "patad:", err)
		return 1
	}

	if !*stdio && *socket == "" {
		*stdio = true
	}

	cfg := pata.Config{
		LoopUnroll:   *unroll,
		Workers:      *workers,
		EntryTimeout: *entryTimeout,
		MaxRetries:   *maxRetries,
		CacheDir:     *cacheDir,
	}
	if *checkers != "" {
		cfg.Checkers = strings.Split(*checkers, ",")
	}

	srv, err := New(Options{
		Config:         cfg,
		Sources:        sources,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		Stderr:         stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "patad:", err)
		return 1
	}
	release()

	// First SIGTERM/SIGINT drains gracefully (stop admitting, finish
	// in-flight, flush the store, exit 0); a second one cancels in-flight
	// work so the drain completes immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		go srv.Shutdown()
		<-sigCh
		srv.Kill()
	}()

	serveErr := make(chan error, 1)
	if *socket != "" {
		go func() {
			if err := srv.ServeUnix(*socket); err != nil {
				select {
				case serveErr <- err:
				default:
				}
				go srv.Shutdown()
			}
		}()
	}
	if *stdio {
		go func() {
			srv.ServeStream(stdin, stdout)
			// stdin EOF (client gone) or protocol shutdown: drain.
			go srv.Shutdown()
		}()
	}

	<-srv.Done()
	if *socket != "" {
		os.Remove(*socket)
	}
	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "patad:", err)
		return 1
	default:
	}
	return 0
}
