package main

import (
	"sync"
	"testing"
	"time"
)

// Two Stage-2 validators overlap under one core.run span, and a child may
// end after its parent's recorded end; self time subtracts the union of
// the children clipped to the parent, not their sum.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "core.run", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "pathval.batch", Parent: 0, Start: 10, End: 50},
		{ID: 2, Name: "pathval.batch", Parent: 0, Start: 30, End: 70},
		{ID: 3, Name: "acache.load", Parent: 0, Start: 90, End: 130},
		{ID: 4, Name: "pathval.validate", Parent: 0, Start: 200, End: 300},
		{ID: 5, Name: "smt", Parent: 1, Start: 15, End: 45}, // grandchild: not subtracted again
	}
	ix := indexSpans(spans)
	if got := ix.childCover(0); got != 70 {
		t.Errorf("child cover %d, want 70 ([10,70) and [90,100))", got)
	}
	if got := ix.selfTime(0); got != 30 {
		t.Errorf("self time %d, want 30", got)
	}
	if got := ix.selfTime(1); got != 10 {
		t.Errorf("self time of a span with one child %d, want 10", got)
	}
	if got := ix.selfTime(2); got != 40 {
		t.Errorf("self time of a leaf %d, want its duration 40", got)
	}
}

func TestMedianMsPerRun(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Name: "minicc.parse", Parent: -1, Run: 0, Start: 0, End: 2 * ms},
		{ID: 1, Name: "minicc.parse", Parent: -1, Run: 0, Start: 2 * ms, End: 3 * ms},
		{ID: 2, Name: "minicc.parse", Parent: -1, Run: 1, Start: 0, End: 5 * ms},
		{ID: 3, Name: "minicc.lower", Parent: -1, Run: 2, Start: 0, End: 9 * ms},
	}
	ix := indexSpans(spans)
	parse := func(s span) time.Duration {
		if s.Name == "minicc.parse" {
			return s.dur()
		}
		return 0
	}
	// Per run: 3 ms, 5 ms, and 0 for run 2, which has no parse span.
	if got := ix.medianMs([]int{0, 1, 2}, parse); got != 3 {
		t.Errorf("median %v ms, want 3", got)
	}
}

// The Stage-2 hooks and the capsule store record spans from the
// scheduler's worker goroutines.
func TestRecorderConcurrentUse(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("core.run", -1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.end(rec.begin("pathval.validate", root))
			}
		}()
	}
	wg.Wait()
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	if self := indexSpans(spans).selfTime(root); self < 0 || self > spans[root].dur() {
		t.Fatalf("self time %v outside [0, %v]", self, spans[root].dur())
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin("op", -1)
	rec.end(id)
	rec.setRun(3)
	if id != -1 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
}
