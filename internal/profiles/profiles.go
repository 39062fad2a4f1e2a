// Package profiles holds the runtime settings the binaries share. Set
// wires the standard pprof dump files so both binaries (pata, patabench)
// expose identical -cpuprofile/-memprofile/-blockprofile/-mutexprofile
// behavior. Block and mutex profiles are the contention lens for the
// parallel scheduler: `go tool pprof` over a -mutexprofile dump shows
// exactly which lock (verdict-cache shard, acache index) parallel workers
// convoy on, and -blockprofile shows time parked on channels and locks
// (singleflight waits, the worker pool's barrier). BatchHeap is the heap
// budget pata and patad give a batch phase (DESIGN §11).
package profiles

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Set holds the four profile output paths; empty strings disable the
// corresponding profile.
type Set struct {
	CPU   string
	Mem   string
	Block string
	Mutex string
}

// Start begins CPU profiling and arms block/mutex sampling for the profiles
// that were requested. Sampling rates are maximal (every event): these are
// opt-in debugging runs where completeness beats overhead. Call Stop to
// write everything out.
func (s *Set) Start() error {
	if s.CPU != "" {
		f, err := os.Create(s.CPU)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	if s.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if s.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return nil
}

// Stop finalizes every requested profile: the CPU profile is stopped and the
// memory/block/mutex snapshots are written. The first write error is
// returned; later dumps are still attempted.
func (s *Set) Stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.CPU != "" {
		pprof.StopCPUProfile()
	}
	if s.Mem != "" {
		runtime.GC() // settle allocations so the heap profile reflects live data
		keep(writeProfile("allocs", s.Mem))
	}
	if s.Block != "" {
		keep(writeProfile("block", s.Block))
	}
	if s.Mutex != "" {
		keep(writeProfile("mutex", s.Mutex))
	}
	return first
}

func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("profiles: unknown profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.WriteTo(f, 0)
}
