package profiles

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
)

// settings reads the GC percent and the memory limit.
func settings() (percent int, limit int64) {
	percent = debug.SetGCPercent(-1)
	debug.SetGCPercent(percent)
	return percent, debug.SetMemoryLimit(-1)
}

// clearEnv runs the test as if neither GOGC nor GOMEMLIMIT were set, and
// puts the process's settings back when it ends.
func clearEnv(t *testing.T) {
	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	percent, limit := settings()
	t.Cleanup(func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	})
}

// runtimeMemory is the memory the runtime's limit counts now: all it has
// mapped, less the heap it has given back.
func runtimeMemory() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

var sink []byte

// waitForLimit polls until the memory limit is want, for up to 5 s.
func waitForLimit(want int64) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if debug.SetMemoryLimit(-1) == want {
			return true
		}
	}
	return false
}

// TestBatchHeapFirstCollectionRestores: allocating 4× a small budget makes
// the runtime collect, and the first collection puts the GC percent and
// the memory limit back; a release after that changes nothing.
func TestBatchHeapFirstCollectionRestores(t *testing.T) {
	clearEnv(t)
	percent, limit := settings()
	budget := runtimeMemory() + 8<<20
	release := BatchHeap(budget)
	if p, l := settings(); p != -1 || l != budget {
		t.Fatalf("under the budget: GC percent %d, limit %d; want -1, %d", p, l, budget)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < 4*budget>>16; i++ {
		sink = make([]byte, 1<<16)
	}
	sink = nil
	// The finalizer restores the percent before the limit.
	if !waitForLimit(limit) {
		t.Fatalf("memory limit still %d after allocating 4× the budget, want %d", debug.SetMemoryLimit(-1), limit)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.NumGC == before.NumGC {
		t.Fatal("the settings came back without a collection")
	}
	if p, _ := settings(); p != percent {
		t.Fatalf("GC percent %d after the first collection, want %d", p, percent)
	}

	debug.SetGCPercent(77)
	debug.SetMemoryLimit(1 << 40)
	release()
	if p, l := settings(); p != 77 || l != 1<<40 {
		t.Errorf("release after the first collection changed the settings to %d, %d", p, l)
	}
}

// TestBatchHeapReleaseRestores: release puts the settings back at once,
// before any collection, and the sentinel's finalizer, run by a later
// collection, changes nothing. A BatchHeap inside another's budget changes
// nothing either.
func TestBatchHeapReleaseRestores(t *testing.T) {
	clearEnv(t)
	percent, limit := settings()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	const budget = math.MaxInt64 / 2
	release := BatchHeap(budget)
	BatchHeap(8 << 20)()
	if p, l := settings(); p != -1 || l != budget {
		t.Fatalf("a nested BatchHeap left GC percent %d, limit %d; want -1, %d", p, l, budget)
	}
	release()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.NumGC != before.NumGC {
		t.Fatal("a collection ran between BatchHeap and release")
	}
	if p, l := settings(); p != percent || l != limit {
		t.Fatalf("after release: GC percent %d, limit %d; want %d, %d", p, l, percent, limit)
	}

	debug.SetGCPercent(77)
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if p, _ := settings(); p != 77 {
			t.Fatalf("the finalizer set the GC percent to %d after release", p)
		}
	}
	release()
	if p, _ := settings(); p != 77 {
		t.Fatalf("a second release set the GC percent to %d", p)
	}
}

// TestBatchHeapYieldsToEnvironment: with GOGC or GOMEMLIMIT set,
// BatchHeap changes nothing.
func TestBatchHeapYieldsToEnvironment(t *testing.T) {
	for _, kv := range [][2]string{{"GOGC", "100"}, {"GOMEMLIMIT", "1GiB"}} {
		clearEnv(t)
		t.Setenv(kv[0], kv[1])
		percent, limit := settings()
		release := BatchHeap(8 << 20)
		if p, l := settings(); p != percent || l != limit {
			t.Errorf("with %s=%s: GC percent %d, limit %d; want %d, %d", kv[0], kv[1], p, l, percent, limit)
		}
		release()
	}
}
