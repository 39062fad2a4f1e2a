package patad

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
)

// Request lines inline whole source files, so they can be large: reads go
// through a 64 KiB buffer, and a line longer than 64 MiB (Server.maxLine)
// is answered with an error instead of being served.
const (
	scanInitBuf = 64 << 10
	scanMaxBuf  = 64 << 20
)

// readLine returns the next line of r without its newline, reusing buf. A
// line of more than max bytes, newline included, is read to its end and
// reported as tooLong, so the session can answer it and go on with the
// next line. err is r's error after the last line (io.EOF at the end of
// the stream).
func readLine(r *bufio.Reader, buf []byte, max int) (line []byte, tooLong bool, err error) {
	line = buf[:0]
	for {
		frag, err := r.ReadSlice('\n')
		if tooLong = tooLong || len(line)+len(frag) > max; !tooLong {
			line = append(line, frag...)
		}
		if err != bufio.ErrBufferFull {
			return bytes.TrimSuffix(line, []byte("\n")), tooLong, err
		}
	}
}

// sessionWriter serializes one-line JSON responses onto a shared stream.
// Analyze responses come from per-request goroutines, so writes must be
// atomic per line or two responses could interleave mid-object.
type sessionWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (sw *sessionWriter) send(resp *Response) {
	data, err := json.Marshal(resp)
	if err != nil {
		// Response types marshal by construction; a failure here means a
		// programming error, and the session must still emit *a* line so
		// the client's id doesn't dangle.
		data = []byte(fmt.Sprintf(`{"id":%q,"op":%q,"ok":false,"error":"internal: response marshal failed"}`, resp.ID, resp.Op))
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.w.Write(data)
	sw.w.Write([]byte("\n"))
}

// ServeStream runs one protocol session over r/w until EOF, a read error
// (reported on Options.Stderr unless the server is draining), or server
// drain. Every non-blank line read gets exactly one response, a line too
// long to serve included. Analyze requests are dispatched to goroutines
// so the session keeps reading (that is how admission control gets
// exercised and how a client cancels-by-disconnecting); control ops
// answer inline in arrival order. ServeStream returns only after every
// dispatched request has written its response.
func (s *Server) ServeStream(r io.Reader, w io.Writer) {
	sw := &sessionWriter{w: w}
	// Session context: cancelled when the session ends (so queued requests
	// from a vanished client are shed, not run) or when the server's drain
	// grace expires (killCtx).
	ctx, cancel := context.WithCancel(s.killCtx)
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()

	br := bufio.NewReaderSize(r, scanInitBuf)
	var buf []byte
	for {
		line, tooLong, err := readLine(br, buf, s.maxLine)
		buf = line
		if err != nil && err != io.EOF {
			if !s.Draining() {
				fmt.Fprintf(s.opts.Stderr, "patad: session read: %v\n", err)
			}
			return
		}
		if tooLong {
			sw.send(&Response{OK: false, Error: fmt.Sprintf("bad request: line longer than %d bytes", s.maxLine)})
		} else if len(bytes.TrimSpace(line)) > 0 && s.serveLine(ctx, &wg, sw, line) {
			return
		}
		if err == io.EOF {
			return
		}
	}
}

// serveLine answers one request line, dispatching analyze requests onto
// wg. It reports whether the line ended the session (a shutdown request).
func (s *Server) serveLine(ctx context.Context, wg *sync.WaitGroup, sw *sessionWriter, line []byte) bool {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		sw.send(&Response{OK: false, Error: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	switch req.Op {
	case OpAnalyze:
		wg.Add(1)
		go func() {
			defer wg.Done()
			// analyzeInto sends the response itself, inside the
			// drain-tracked window, and contains its own panics.
			s.analyzeInto(ctx, &req, sw.send)
		}()
	case OpInvalidate:
		// Invalidation is serialized with the reader loop on purpose: it
		// defines an epoch boundary, and a client that pipelines
		// "invalidate, analyze" must see the analyze hit the new epoch.
		sw.send(s.guarded(&req, func() *Response { return s.invalidate(&req) }))
	case OpStatus:
		sw.send(s.status(&req))
	case OpPing:
		sw.send(&Response{ID: req.ID, Op: req.Op, OK: true})
	case OpShutdown:
		// A client that pipelines "analyze, shutdown" means the analyze to
		// run: wait for this session's dispatched requests (their
		// responses land first), then ack and drain. The impolite path is
		// SIGTERM, where the drain deadline caps the wait instead.
		wg.Wait()
		sw.send(&Response{ID: req.ID, Op: req.Op, OK: true})
		go s.Shutdown()
		return true
	default:
		sw.send(&Response{ID: req.ID, Op: req.Op, OK: false,
			Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
	return false
}

// guarded runs fn, converting a panic into an error response. The engine
// already contains per-entry panics on its degrade ladder; this is the
// outer hull for everything else (protocol handling, frontend, result
// conversion) so one poisoned request can never take down the daemon or
// even its session.
func (s *Server) guarded(req *Request, fn func() *Response) (resp *Response) {
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(s.opts.Stderr, "patad: contained panic in %q request: %v\n%s",
				req.Op, rec, debug.Stack())
			resp = &Response{ID: req.ID, Op: req.Op, OK: false,
				Error: fmt.Sprintf("internal: contained panic: %v", rec)}
		}
	}()
	return fn()
}
