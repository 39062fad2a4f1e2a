package core

// stepArena bump-allocates []PathStep slices whose lifetime is one
// analyzeEntry call: the path suffixes captured into memo recordings. The DFS emits candidates constantly and each emission copies
// a short suffix per open recording frame, so individual makes dominate the
// hot path's allocation profile; carving them out of shared chunks amortizes
// that to one allocation per ~chunk of steps. reset keeps the chunks for the
// next entry instead of returning them to the GC.
//
// Slices are handed out with capacity == length (three-index carve), so an
// append by the holder reallocates instead of clobbering a neighbor.
type stepArena struct {
	chunks [][]PathStep // filled chunks retained for reuse across resets
	cur    []PathStep   // active chunk; len = used, cap = size
	next   int          // index into chunks of the next chunk to reuse
}

const stepArenaChunk = 4096

// alloc returns a zeroed slice of n steps carved from the arena.
func (a *stepArena) alloc(n int) []PathStep {
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		a.retire()
		for a.next < len(a.chunks) {
			c := a.chunks[a.next]
			a.next++
			if cap(c) >= n {
				a.cur = c[:0]
				break
			}
		}
		if cap(a.cur) < n {
			size := stepArenaChunk
			if n > size {
				size = n
			}
			a.cur = make([]PathStep, 0, size)
		}
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	out := a.cur[off : off+n : off+n]
	for i := range out {
		out[i] = PathStep{}
	}
	return out
}

// retire parks the active chunk back in the reuse list.
func (a *stepArena) retire() {
	if cap(a.cur) == 0 {
		return
	}
	for _, c := range a.chunks {
		if &c[:1][0] == &a.cur[:1][0] {
			a.cur = nil
			return
		}
	}
	a.chunks = append(a.chunks, a.cur)
	a.cur = nil
}

// reset invalidates every outstanding slice and makes all chunks available
// again. Callers must only reset once nothing references arena memory —
// analyzeEntry does so at entry start, after the previous entry's memo
// table (the only suffix holder) has been dropped.
func (a *stepArena) reset() {
	a.retire()
	a.next = 0
}
