// Package patad implements the PATA resident analysis service: a daemon
// that loads a mini-C module once, serves analysis requests over a
// newline-delimited JSON protocol (stdin/stdout and/or a Unix socket),
// re-fingerprints only changed functions on explicit invalidation requests,
// and re-analyzes exactly the invalidation frontier through the existing
// content-addressed cache (callgraph.EntryKey + acache).
//
// The failure model is the point, not an afterthought:
//
//   - per-request deadlines with well-formed partial results (the
//     "incomplete analysis" records of core.RunParallelCtx);
//   - admission control — bounded in-flight analyses and a queue-depth
//     cap; past both, requests are shed with a retry_after_ms backoff hint
//     instead of queuing without bound;
//   - per-request panic containment: a poisoned request gets an error
//     response, its session and the daemon live on;
//   - graceful drain on SIGTERM — stop admitting, finish (or deadline out)
//     in-flight work, flush the capsule store, exit 0;
//   - crash-safe warm restart: after kill -9 mid-run, a restarted daemon
//     recovers from the checksummed capsule store and serves byte-identical
//     reports for unchanged entries (corrupt frames delete-and-miss).
package patad

import (
	pata "repro"
)

// Protocol operations. Every request line is one JSON object with an "op"
// and an optional client-chosen "id" echoed on the response; every response
// is one JSON object on one line. Responses to concurrently admitted
// requests may arrive out of order — the id is the correlation key.
const (
	// OpAnalyze analyzes the currently loaded module. Warm entries replay
	// from the capsule cache; the rendered report is byte-identical to a
	// cold CLI run over the same sources and configuration.
	OpAnalyze = "analyze"
	// OpInvalidate updates source files (set and/or remove), re-lowers the
	// module, re-fingerprints exactly the functions whose file changed,
	// and reports the invalidation frontier — the entry functions whose
	// content-addressed key changed, i.e. what the next analyze will
	// actually re-run.
	OpInvalidate = "invalidate"
	// OpStatus reports server load, admission, and module counters.
	OpStatus = "status"
	// OpPing answers ok (liveness probe).
	OpPing = "ping"
	// OpShutdown acknowledges, then drains gracefully and exits 0 — the
	// protocol-level equivalent of SIGTERM.
	OpShutdown = "shutdown"
)

// Request is one client request line.
type Request struct {
	ID string `json:"id,omitempty"`
	Op string `json:"op"`

	// TimeoutMs bounds this analyze request's wall-clock; 0 selects the
	// server's default request timeout. On expiry the response still
	// carries a well-formed partial report with unfinished entries listed
	// in incomplete as cancelled.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Witness asks for rendered witness paths on this analyze's bugs.
	Witness bool `json:"witness,omitempty"`

	// Sources maps file name → new content for an invalidate request;
	// Remove lists file names to delete from the module.
	Sources map[string]string `json:"sources,omitempty"`
	Remove  []string          `json:"remove,omitempty"`
}

// Response is one server response line.
type Response struct {
	ID string `json:"id,omitempty"`
	Op string `json:"op"`
	OK bool   `json:"ok"`
	// Error explains a rejected or failed request ("overloaded",
	// "draining", a frontend error, a contained panic, ...).
	Error string `json:"error,omitempty"`
	// RetryAfterMs is the load-shed backoff hint: how long the client
	// should wait before retrying. Set exactly when the request was shed
	// by admission control or refused because the server is draining.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`

	// Analyze results. Report is the rendered text report — byte-identical
	// to what `pata` prints for the same sources and configuration — and
	// Bugs/Incomplete/Stats are the structured equivalents.
	Report     string                 `json:"report,omitempty"`
	Bugs       []pata.Bug             `json:"bugs,omitempty"`
	Incomplete []pata.IncompleteEntry `json:"incomplete,omitempty"`
	Stats      *pata.Stats            `json:"stats,omitempty"`

	// Invalidate results: Changed lists the functions whose content
	// fingerprint actually changed (added, removed, or edited); Frontier
	// lists the entry functions whose transitive key changed — the exact
	// set the next analyze re-runs, everything else replays warm.
	Changed  []string `json:"changed,omitempty"`
	Frontier []string `json:"frontier,omitempty"`

	// Status payload.
	Status *StatusInfo `json:"status,omitempty"`
}

// StatusInfo is the OpStatus payload.
type StatusInfo struct {
	InFlight int   `json:"in_flight"`
	Queued   int   `json:"queued"`
	Draining bool  `json:"draining"`
	Files    int   `json:"files"`
	Entries  int   `json:"entries"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	// CacheDir is empty when the daemon runs without a persistent store
	// (warm restarts are then cold).
	CacheDir string `json:"cache_dir,omitempty"`
	// ResidentEntries and ResidentKB size the in-memory capsule tier: the
	// cached payloads the last analyze touched (or that the current one
	// has touched so far), in entries and KiB of payload. Both are 0
	// without a cache directory.
	ResidentEntries int   `json:"resident_entries"`
	ResidentKB      int64 `json:"resident_kb"`
}
