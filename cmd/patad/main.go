// Command patad is the resident PATA analysis daemon: it loads a mini-C
// module once and serves analysis over a newline-delimited JSON protocol
// on stdin/stdout and/or a Unix socket, keeping the content-addressed
// incremental cache warm across requests.
//
// Usage:
//
//	patad [flags] file.c [file2.c ...]
//	patad [flags] -dir path/to/sources -socket /tmp/patad.sock
//
// Protocol (one JSON object per line; see internal/patad):
//
//	{"op":"analyze","id":"a1","timeout_ms":5000}
//	{"op":"invalidate","id":"i1","sources":{"f.c":"..."},"remove":["g.c"]}
//	{"op":"status","id":"s1"}   {"op":"ping"}   {"op":"shutdown"}
//
// SIGTERM (or the shutdown op) drains gracefully and exits 0; with
// -cache-dir even a kill -9 mid-run restarts warm from the checksummed
// capsule store.
//
// Start-up (reading, lowering and indexing the sources) runs under the
// same 64 MiB heap budget as a pata run (profiles.BatchHeap); the budget is
// released before the daemon serves, so serving keeps the runtime's
// default collector pacing. A GOGC or GOMEMLIMIT in the environment turns
// the budget off.
package main

import (
	"os"

	"repro/internal/patad"
)

func main() {
	os.Exit(patad.Main(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
