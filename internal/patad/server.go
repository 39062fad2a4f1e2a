package patad

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	pata "repro"
	"repro/internal/core"
)

// Options configures a Server.
type Options struct {
	// Config is the analysis configuration every request runs under.
	// CacheDir enables the persistent capsule store — without it the
	// daemon still works, but a restart is cold. Workers follows the usual
	// convention (<= 0 = GOMAXPROCS).
	Config pata.Config
	// Sources is the initial module (file name → content).
	Sources map[string]string
	// MaxInFlight caps concurrently running analyses (default 1: requests
	// beyond it queue; the per-run Workers already use the machine).
	MaxInFlight int
	// MaxQueue caps requests waiting for an analysis slot (default 8,
	// negative = no queue at all);
	// past it requests are shed with a retry_after_ms hint.
	MaxQueue int
	// DefaultTimeout bounds each analyze request's wall-clock when the
	// request does not carry its own timeout_ms; 0 means no deadline.
	DefaultTimeout time.Duration
	// DrainTimeout is how long a graceful drain waits for in-flight work
	// before cancelling it (default 10s). Cancelled requests still get
	// well-formed partial responses.
	DrainTimeout time.Duration
	// Stderr receives operational warnings; nil selects os.Stderr.
	Stderr io.Writer
	// FaultHook is the test-only per-(entry, rung) fault injector threaded
	// into the engine configuration (see core.Config.FaultHook).
	FaultHook func(entry string, rung int) *core.FaultSpec
}

// Server is the resident analyzer. One Server owns one module (replaced
// atomically by invalidation requests), one engine configuration, one
// capsule store, and one admission gate; any number of protocol sessions
// (stdio, socket connections) share them.
type Server struct {
	opts Options
	ec   core.Config // template; value-copied per request
	// resident is the engine's cache: the in-memory tier in front of the
	// capsule store. nil when CacheDir is unset or unusable.
	resident *residentCache
	adm      *admission
	// maxLine caps a request line's length (scanMaxBuf).
	maxLine int

	// prog is the published program epoch. Analyses load the pointer and
	// run on it unlocked: a published Program is immutable and indexed, so
	// concurrent requests only read its fingerprint memo. An invalidate
	// derives the next Program and stores it; in-flight analyses on the
	// old epoch finish undisturbed. invalidateMu serializes invalidates
	// from load to store, so each derives from the epoch the one before it
	// published and no edit is lost.
	prog         atomic.Pointer[pata.Program]
	invalidateMu sync.Mutex

	served atomic.Int64

	// Drain machinery. workMu serializes begin-work against the start of
	// drain so workWG.Add never races workWG.Wait; drainCh short-circuits
	// queued admissions; killCtx is the ancestor of every request context
	// and is cancelled when the drain grace period expires.
	workMu       sync.Mutex
	drainStarted bool
	workWG       sync.WaitGroup
	drainCh      chan struct{}
	killCtx      context.Context
	killCancel   context.CancelFunc
	doneCh       chan struct{}

	// Open listeners and session connections. At the end of drain the
	// conns' read deadlines are expired (unblocking their readers), the
	// session goroutines (sessWG) finish writing whatever responses are
	// still pending, and only then are the conns closed.
	connMu    sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	sessWG    sync.WaitGroup
}

// New builds a Server: resolves the engine configuration once (one shared
// validator, so the in-memory verdict cache stays warm across requests),
// opens the capsule store, and loads the initial Program, indexing it
// before it is published so concurrent requests only ever read the
// fingerprint memo.
func New(opts Options) (*Server, error) {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 1
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 8
	} else if opts.MaxQueue < 0 {
		opts.MaxQueue = 0
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}

	ec, err := opts.Config.EngineConfig()
	if err != nil {
		return nil, err
	}
	ec.FaultHook = opts.FaultHook

	s := &Server{
		opts:    opts,
		ec:      ec,
		adm:     newAdmission(opts.MaxInFlight, opts.MaxQueue),
		maxLine: scanMaxBuf,
		drainCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.killCtx, s.killCancel = context.WithCancel(context.Background())

	// Same trade as the CLI: an unusable cache directory degrades to an
	// uncached (cold-restart) daemon, never to a dead one.
	if store := opts.Config.OpenCache(opts.Stderr); store != nil {
		store.WarnLog = opts.Stderr
		s.resident = newResidentCache(store)
		s.ec.Cache = s.resident
	}

	prog, err := pata.Load("program", opts.Sources)
	if err != nil {
		return nil, err
	}
	prog.Index()
	s.prog.Store(prog)
	return s, nil
}

// beginWork registers one unit of in-flight work, refusing once drain has
// started (the mutex makes Add-vs-Wait safe).
func (s *Server) beginWork() bool {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	if s.drainStarted {
		return false
	}
	s.workWG.Add(1)
	return true
}

// beginSession registers one socket session, refusing once drain has
// started (same Add-vs-Wait discipline as beginWork).
func (s *Server) beginSession() bool {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	if s.drainStarted {
		return false
	}
	s.sessWG.Add(1)
	return true
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	return s.drainStarted
}

// Done is closed when a drain has fully completed (in-flight work
// finished or was cancelled, capsule store flushed, connections closed).
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Shutdown drains the server gracefully: stop admitting, close listeners,
// wait up to DrainTimeout for in-flight requests (then cancel them — their
// sessions still deliver well-formed partial responses), flush the capsule
// store, and unwind the remaining sessions. Idempotent; every call blocks
// until the drain completes.
func (s *Server) Shutdown() {
	s.workMu.Lock()
	if s.drainStarted {
		s.workMu.Unlock()
		<-s.doneCh
		return
	}
	s.drainStarted = true
	close(s.drainCh)
	s.workMu.Unlock()

	s.connMu.Lock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		// Grace expired: cancel the in-flight runs. RunParallelCtx stops
		// at the next bounded unit of work and returns a partial result,
		// so responses still go out before the sessions unwind.
		s.killCancel()
		<-done
	}
	s.killCancel()

	if s.resident != nil {
		if err := s.resident.disk.Flush(); err != nil {
			fmt.Fprintf(s.opts.Stderr, "patad: cache flush: %v\n", err)
		}
	}

	// Unblock session readers (expired read deadline, writes unaffected)
	// and give the sessions a bounded window to finish writing their last
	// responses; then close for real. The listener is already closed, so
	// sessWG cannot grow under the Wait.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	sessDone := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(sessDone)
	}()
	select {
	case <-sessDone:
	case <-time.After(s.opts.DrainTimeout):
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.connMu.Unlock()
	close(s.doneCh)
}

// Kill force-cancels all in-flight work immediately (second Ctrl-C). The
// drain, if running, then completes promptly.
func (s *Server) Kill() { s.killCancel() }

// ServeUnix listens on a Unix socket and serves each connection as one
// protocol session. It returns after Shutdown closes the listener. A stale
// socket file from a crashed predecessor is removed first — the daemon is
// restart-safe by design, and a dead socket path must not block recovery.
func (s *Server) ServeUnix(path string) error {
	if err := removeStaleSocket(path); err != nil {
		return err
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	s.connMu.Lock()
	if s.drainStarted {
		s.connMu.Unlock()
		ln.Close()
		return nil
	}
	s.listeners = append(s.listeners, ln)
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.Draining() {
				return nil
			}
			return err
		}
		// beginSession's workMu gate makes the sessWG.Add safe against
		// Shutdown's Wait; a conn racing the start of drain is dropped
		// (the client sees a closed conn, same as a post-drain dial).
		if !s.beginSession() {
			conn.Close()
			return nil
		}
		s.connMu.Lock()
		if s.conns == nil {
			s.connMu.Unlock()
			conn.Close()
			s.sessWG.Done()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		go func() {
			defer s.sessWG.Done()
			defer func() {
				s.connMu.Lock()
				if s.conns != nil {
					delete(s.conns, conn)
				}
				s.connMu.Unlock()
				conn.Close()
			}()
			s.ServeStream(conn, conn)
		}()
	}
}

// removeStaleSocket unlinks path when nothing is listening on it, and
// errors when a live daemon is.
func removeStaleSocket(path string) error {
	if _, err := os.Stat(path); err != nil {
		return nil // nothing there (or will fail in Listen with a real error)
	}
	if conn, err := net.DialTimeout("unix", path, 200*time.Millisecond); err == nil {
		conn.Close()
		return fmt.Errorf("patad: %s: another daemon is listening", path)
	}
	return os.Remove(path)
}

// analyze runs one admission-controlled analysis request synchronously and
// returns its response (test and tooling convenience around analyzeInto).
func (s *Server) analyze(ctx context.Context, req *Request) *Response {
	var out *Response
	s.analyzeInto(ctx, req, func(r *Response) { out = r })
	return out
}

// analyzeInto runs one admission-controlled analysis request and delivers
// the response through send BEFORE releasing its in-flight registration:
// a graceful drain's workWG.Wait therefore covers not just the analysis but
// the write of its response, so SIGTERM can never race a response out of
// existence. Panics anywhere in the pipeline are contained into an error
// response.
func (s *Server) analyzeInto(ctx context.Context, req *Request, send func(*Response)) {
	sent := false
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(s.opts.Stderr, "patad: contained panic in %q request: %v\n%s",
				req.Op, rec, debug.Stack())
			if !sent {
				send(&Response{ID: req.ID, Op: req.Op, OK: false,
					Error: fmt.Sprintf("internal: contained panic: %v", rec)})
			}
		}
	}()

	resp := &Response{ID: req.ID, Op: req.Op}
	switch s.adm.acquire(ctx, s.drainCh) {
	case shedOverload:
		resp.Error = "overloaded"
		resp.RetryAfterMs = s.adm.retryAfter().Milliseconds()
		send(resp)
		sent = true
		return
	case shedDraining:
		resp.Error = "draining"
		resp.RetryAfterMs = s.opts.DrainTimeout.Milliseconds()
		send(resp)
		sent = true
		return
	case shedCancelled:
		resp.Error = "cancelled while queued"
		send(resp)
		sent = true
		return
	}
	defer s.adm.release()
	if !s.beginWork() {
		resp.Error = "draining"
		resp.RetryAfterMs = s.opts.DrainTimeout.Milliseconds()
		send(resp)
		sent = true
		return
	}
	defer s.workWG.Done()

	// The request context obeys three cancellation sources: the caller's
	// ctx (session gone), the drain-deadline kill switch, and the request
	// deadline. All three end in the same well-formed partial result.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.killCtx, cancel)
	defer stop()
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		rctx, tcancel = context.WithTimeout(rctx, timeout)
		defer tcancel()
	}

	pres := s.prog.Load().Analyze(rctx, s.ec, s.opts.Config.Workers, s.opts.Config.WitnessPaths || req.Witness)
	if s.resident != nil {
		s.resident.endAnalyze()
	}
	s.served.Add(1)

	resp.OK = true
	resp.Report = pres.Report()
	resp.Bugs = pres.Bugs
	resp.Incomplete = pres.Incomplete
	resp.Stats = &pres.Stats
	send(resp)
	sent = true
}

// invalidate applies a source edit through Program.Update, publishes the
// next epoch, and reports the changed functions and the invalidation
// frontier. A module that no longer lowers (parse error) costs this
// request only: the previous epoch stays published and keeps serving.
func (s *Server) invalidate(req *Request) *Response {
	resp := &Response{ID: req.ID, Op: req.Op}
	s.invalidateMu.Lock()
	defer s.invalidateMu.Unlock()
	next, changed, frontier, err := s.prog.Load().Update(req.Sources, req.Remove)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	s.prog.Store(next)
	resp.OK = true
	resp.Changed, resp.Frontier = changed, frontier
	return resp
}

// status builds the OpStatus payload.
func (s *Server) status(req *Request) *Response {
	prog := s.prog.Load()
	info := &StatusInfo{
		InFlight: s.adm.inFlight(),
		Queued:   int(s.adm.queued.Load()),
		Draining: s.Draining(),
		Files:    prog.Files(),
		Entries:  prog.Entries(),
		Served:   s.served.Load(),
		Shed:     s.adm.shed.Load(),
	}
	if s.resident != nil {
		info.CacheDir = s.resident.disk.Dir()
		n, b := s.resident.size()
		info.ResidentEntries, info.ResidentKB = n, b/1024
	}
	return &Response{ID: req.ID, Op: req.Op, OK: true, Status: info}
}
