package patad

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pata "repro"
	"repro/internal/acache"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/report"
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

	// modMu guards the current module epoch. Analyses snapshot the module
	// pointer and run on it unlocked (modules are immutable once
	// published, fingerprints pre-warmed); invalidations build and publish
	// a fresh one. In-flight analyses on the old epoch finish undisturbed.
	// cg is the epoch's call graph and entryKeys its salt-0 entry keys by
	// entry name, so the next invalidate diffs against them instead of
	// rebuilding the old graph. The initial epoch's keys are computed by
	// the first invalidate (nil until then), keeping start-up as cheap as
	// a cold daemon needs.
	modMu     sync.Mutex
	sources   map[string]string
	mod       *cir.Module
	cg        *callgraph.Graph
	entryKeys map[string]uint64

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
// opens the capsule store, lowers the initial module, and pre-warms every
// function fingerprint so concurrent requests only ever read the memo.
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

	// Resolve the engine config with CacheDir stripped: the server owns
	// the store's lifecycle (shared across requests, flushed on drain), so
	// it opens the store itself instead of letting EngineConfig do it as a
	// side effect.
	cfgNoCache := opts.Config
	cfgNoCache.CacheDir = ""
	ec, err := cfgNoCache.EngineConfig()
	if err != nil {
		return nil, err
	}
	ec.FaultHook = opts.FaultHook

	s := &Server{
		opts:    opts,
		ec:      ec,
		adm:     newAdmission(opts.MaxInFlight, opts.MaxQueue),
		drainCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.killCtx, s.killCancel = context.WithCancel(context.Background())

	if opts.Config.CacheDir != "" {
		store, err := acache.Open(opts.Config.CacheDir, opts.Config.CacheMaxBytes)
		if err != nil {
			// Same trade as the CLI: an unusable cache directory degrades
			// to an uncached (cold-restart) daemon, never to a dead one.
			fmt.Fprintf(opts.Stderr, "patad: cache disabled: %v\n", err)
		} else {
			store.WarnLog = opts.Stderr
			s.resident = newResidentCache(store)
			s.ec.Cache = s.resident
		}
	}

	mod, err := lowerAndFingerprint(opts.Sources, nil)
	if err != nil {
		return nil, fmt.Errorf("patad: frontend: %w", err)
	}
	s.publish(cloneSources(opts.Sources), mod, callgraph.Build(mod), nil)
	return s, nil
}

// entryKeys returns cg's salt-0 entry keys by entry name. The module's
// fingerprints must already be warmed (lowerAndFingerprint).
func entryKeys(cg *callgraph.Graph) map[string]uint64 {
	entries := cg.EntryFunctions()
	keys := make(map[string]uint64, len(entries))
	for _, fn := range entries {
		keys[fn.Name] = cg.EntryKey(fn, 0)
	}
	return keys
}

// publish installs a new module epoch.
func (s *Server) publish(sources map[string]string, mod *cir.Module, cg *callgraph.Graph, keys map[string]uint64) {
	s.modMu.Lock()
	s.sources = sources
	s.mod = mod
	s.cg = cg
	s.entryKeys = keys
	s.modMu.Unlock()
}

// snapshot returns the current module epoch.
func (s *Server) snapshot() *cir.Module {
	s.modMu.Lock()
	defer s.modMu.Unlock()
	return s.mod
}

// lowerAndFingerprint lowers sources into a fresh module and warms every
// defined function's fingerprint memo before the module is shared, so
// later concurrent key passes are read-only. When prev is non-nil, only
// functions whose defining file actually changed are re-fingerprinted —
// unchanged files' functions adopt the previous epoch's memo (identical
// source text lowers to an identical rendering, so the hash is the same by
// construction; TestAdoptedFingerprintsMatchRecompute pins it).
func lowerAndFingerprint(sources map[string]string, prev *prevEpoch) (*cir.Module, error) {
	mod, err := minicc.LowerAll("program", sources)
	if err != nil {
		return nil, err
	}
	for _, fn := range mod.SortedFuncs() {
		if prev != nil && !prev.changedFiles[fn.File] {
			if old, ok := prev.mod.Funcs[fn.Name]; ok && fn.AdoptFingerprint(old) {
				continue
			}
		}
		fn.Fingerprint()
	}
	return mod, nil
}

// prevEpoch carries what lowerAndFingerprint needs to skip unchanged work.
type prevEpoch struct {
	mod          *cir.Module
	changedFiles map[string]bool
}

func cloneSources(src map[string]string) map[string]string {
	out := make(map[string]string, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
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

	mod := s.snapshot()
	res := core.RunParallelCtx(rctx, mod, s.ec, s.opts.Config.Workers)
	if s.resident != nil {
		s.resident.endAnalyze()
	}
	pres := pata.ConvertResult(res, s.opts.Config.WitnessPaths || req.Witness)
	s.served.Add(1)

	resp.OK = true
	resp.Report = renderReport(pres)
	resp.Bugs = pres.Bugs
	resp.Incomplete = pres.Incomplete
	resp.Stats = &pres.Stats
	send(resp)
	sent = true
}

// invalidate applies a source edit, re-lowers, re-fingerprints exactly the
// changed files' functions, and reports the invalidation frontier. A
// module that no longer lowers (parse error) costs this request only: the
// previous epoch stays published and keeps serving.
func (s *Server) invalidate(req *Request) *Response {
	resp := &Response{ID: req.ID, Op: req.Op}

	s.modMu.Lock()
	oldMod, oldCG, oldKeys := s.mod, s.cg, s.entryKeys
	next := cloneSources(s.sources)
	s.modMu.Unlock()

	changedFiles := make(map[string]bool)
	for name, content := range req.Sources {
		if prev, ok := next[name]; !ok || prev != content {
			changedFiles[name] = true
		}
		next[name] = content
	}
	for _, name := range req.Remove {
		if _, ok := next[name]; ok {
			changedFiles[name] = true
		}
		delete(next, name)
	}
	if len(changedFiles) == 0 {
		resp.OK = true // no-op invalidation: everything stays warm
		return resp
	}
	if len(next) == 0 {
		resp.Error = "invalidate would remove every source file"
		return resp
	}

	mod, err := lowerAndFingerprint(next, &prevEpoch{mod: oldMod, changedFiles: changedFiles})
	if err != nil {
		resp.Error = fmt.Sprintf("frontend: %v", err)
		return resp
	}

	// Changed = defined functions whose content fingerprint differs across
	// the epochs (including added and removed definitions). Declarations
	// are opaque to the engine and do not contribute to entry keys.
	changed := make(map[string]bool)
	for name, old := range oldMod.Funcs {
		if old.IsDecl() {
			continue
		}
		nf, ok := mod.Funcs[name]
		if !ok || nf.IsDecl() || nf.Fingerprint() != old.Fingerprint() {
			changed[name] = true
		}
	}
	for name, nf := range mod.Funcs {
		if nf.IsDecl() {
			continue
		}
		if of, ok := oldMod.Funcs[name]; !ok || of.IsDecl() {
			changed[name] = true
		}
	}

	// Frontier = entry functions whose transitive content key changed —
	// computed with the same callgraph.EntryKey the incremental cache
	// uses (salt 0: both sides share whatever configuration salt the real
	// keys carry, so it cancels out of the comparison). This is exactly
	// the set the next analyze re-runs; everything else replays warm.
	if oldKeys == nil {
		oldKeys = entryKeys(oldCG)
	}
	cg := callgraph.Build(mod)
	keys := entryKeys(cg)
	var frontier []string
	for name, key := range keys {
		if old, ok := oldKeys[name]; !ok || old != key {
			frontier = append(frontier, name)
		}
	}
	sort.Strings(frontier)

	s.publish(next, mod, cg, keys)

	resp.OK = true
	resp.Changed = sortedNames(changed)
	resp.Frontier = frontier
	return resp
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// status builds the OpStatus payload.
func (s *Server) status(req *Request) *Response {
	s.modMu.Lock()
	files, entries := len(s.sources), len(s.cg.EntryFunctions())
	s.modMu.Unlock()
	info := &StatusInfo{
		InFlight: s.adm.inFlight(),
		Queued:   int(s.adm.queued.Load()),
		Draining: s.Draining(),
		Files:    files,
		Entries:  entries,
		Served:   s.served.Load(),
		Shed:     s.adm.shed.Load(),
		CacheDir: s.cacheDir(),
	}
	if s.resident != nil {
		n, b := s.resident.size()
		info.ResidentEntries, info.ResidentKB = n, b/1024
	}
	return &Response{ID: req.ID, Op: req.Op, OK: true, Status: info}
}

func (s *Server) cacheDir() string {
	if s.resident == nil {
		return ""
	}
	return s.resident.disk.Dir()
}

// renderReport produces the same text the pata CLI prints for a result
// (sans the optional -witness / -stats trailers) — the warm-restart and
// parity tests compare this byte-for-byte against CLI stdout.
func renderReport(res *pata.Result) string {
	var b strings.Builder
	if len(res.Bugs) == 0 {
		b.WriteString("no bugs found\n")
		report.WriteIncomplete(&b, res.Incomplete)
	} else {
		fmt.Fprint(&b, res)
	}
	return b.String()
}
