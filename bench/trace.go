package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Run;
// Parent is the ID of the span that made the call, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends. Stage-2 hooks
// and cache probes call it from the scheduler's worker goroutines. A nil
// recorder records nothing, which is how the untraced half of the
// in-process run shares the traced half's code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRun makes later spans belong to op run.
func (r *recorder) setRun(run int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Run: r.run, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far; call it once no op runs.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers the per-op questions the metrics ask of a span set.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

// childCover is how much of span id's interval its children cover, counted
// once where children overlap one another — two Stage-2 validators run at
// the same time under one core.run span.
func (ix *spanIndex) childCover(id int) time.Duration {
	p := ix.spans[id]
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range ix.children[id] {
		s := ix.spans[c]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// selfTime is span id's duration minus the part its children cover.
func (ix *spanIndex) selfTime(id int) time.Duration {
	return ix.spans[id].dur() - ix.childCover(id)
}

// medianMs sums val over each run's spans and returns the median of those
// sums over runs, in ms.
func (ix *spanIndex) medianMs(runs []int, val func(s span) time.Duration) float64 {
	sums := make(map[int]time.Duration)
	for _, s := range ix.spans {
		sums[s.Run] += val(s)
	}
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = ms(sums[r])
	}
	return median(xs)
}
