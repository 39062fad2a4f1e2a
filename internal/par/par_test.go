package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestForVisitsEveryIndexOnce: every index in [0, n) is visited exactly
// once, whatever the worker count, and w stays in [0, min(workers, n)).
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{1, 1}, {7, 1}, {100, 2}, {100, 4}, {3, 8}, {50, 0}, {50, -1}} {
		visits := make([]atomic.Int32, tc.n)
		var badW atomic.Int32
		For(tc.n, tc.workers, func(w, i int) {
			if w < 0 || w >= min(max(tc.workers, 1), tc.n) {
				badW.Store(int32(w) + 1)
			}
			visits[i].Add(1)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
		if w := badW.Load(); w != 0 {
			t.Errorf("n=%d workers=%d: worker index %d out of range", tc.n, tc.workers, w-1)
		}
	}
}

// TestForEmpty: n = 0 calls nothing.
func TestForEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		For(n, 4, func(w, i int) { t.Errorf("n=%d: f(%d, %d) called", n, w, i) })
	}
}

// TestForPanicAfterOthersFinish: a panic in f is re-raised on the caller,
// and only after the other goroutines have finished their indices.
func TestForPanicAfterOthersFinish(t *testing.T) {
	const n = 64
	var done atomic.Int32
	var doneAtRecover int32
	func() {
		defer func() {
			doneAtRecover = done.Load()
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want boom", p)
			}
		}()
		For(n, 2, func(w, i int) {
			if i == 0 {
				panic("boom")
			}
			time.Sleep(100 * time.Microsecond)
			done.Add(1)
		})
		t.Error("For returned normally after a panic")
	}()
	// The panicking goroutine stops at index 0; the other takes every
	// remaining index before For re-raises.
	if doneAtRecover != n-1 {
		t.Errorf("%d of %d other indices finished before the panic reached the caller", doneAtRecover, n-1)
	}
	if got := done.Load(); got != doneAtRecover {
		t.Errorf("%d indices finished after the panic reached the caller", got-doneAtRecover)
	}
}
