// Package par is the analyzer's one worker pool: a data-parallel loop over
// [0, n) on a fixed number of goroutines that take indices from one shared
// cursor. Every parallel pass — the frontend's parse, lower and verify
// passes, the cache probe's decodes, Stage 1's entries, Stage 2's entry
// groups and the capsule saves — runs through For.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls f(w, i) for every i in [0, n) on min(workers, n) goroutines
// (at least one) and returns when all calls have. Goroutines take indices
// from one shared counter, in increasing order, so an index order that puts
// the costliest work first schedules it first. w, in [0, min(workers, n)),
// names the goroutine making the call: a caller can keep per-worker state,
// such as an engine, in a slice indexed by w. A panic in f stops the
// goroutine that raised it; the others run on, and once every goroutine has
// stopped the panic is re-raised on the caller's goroutine, where the
// caller's recover can contain it (with several panics, one of them).
func For(n, workers int, f func(w, i int)) {
	if n <= 0 {
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := range max(min(workers, n), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					panicV = p
					panicMu.Unlock()
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}
