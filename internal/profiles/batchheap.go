package profiles

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// BatchBudget is the heap budget both binaries give a batch phase: a pata
// run, and patad's start-up up to the moment it serves.
const BatchBudget = 64 << 20

// BatchHeap turns the garbage collector's pacing off for a batch phase
// whose heap is mostly live: it sets the GC percent to off and the soft
// memory limit to budget, so the first collection comes when the
// runtime's memory nears budget, not each time the heap doubles. That
// first collection puts both settings back to the values they had (the
// runtime's default pacing, unless a caller changed them), so a run that
// outgrows budget collects once near it and then paces as usual. release
// puts them back at once; it and the first collection act at most once
// between them.
//
// If GOGC or GOMEMLIMIT is set in the environment, BatchHeap leaves the
// runtime's settings alone: they are the user's choice. So does a call
// while an earlier budget is still in force, whose saved settings would
// otherwise be the budget's.
func BatchHeap(budget int64) (release func()) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" || !batchActive.CompareAndSwap(false, true) {
		return func() {}
	}
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(budget)
	var once sync.Once
	release = func() {
		once.Do(func() {
			debug.SetGCPercent(percent)
			debug.SetMemoryLimit(limit)
			batchActive.Store(false)
		})
	}
	// The sentinel is unreachable from the start, so the first collection
	// finds it and queues its finalizer. It is too large for the tiny
	// allocator, whose blocks may never be finalized.
	runtime.SetFinalizer(new(sentinel), func(*sentinel) { release() })
	return release
}

// batchActive is set while a budget is in force.
var batchActive atomic.Bool

type sentinel [32]byte
