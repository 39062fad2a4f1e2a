package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// tailPercentile is the highest of a few standard percentiles that still
// has at least ten samples above it, so a tail is never read off a handful
// of points; 0 means n is too small for any tail.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 80, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Nominal wall and CPU times of the reference task (bench/hostref), its
// medians on the quiet 2-vCPU host the benchmark was written on. A
// normalized time is a measured time scaled by nominal/measured for the
// reference run made right after it: roughly what the measurement would
// have read on that host, whatever the host's speed at the moment.
const (
	refWallNominal = 80 * time.Millisecond
	refCPUNominal  = 150 * time.Millisecond
)

// normalized returns the median over i of xs[i] × nominal / refs[i],
// where refs[i] is the reference run paired with xs[i], in xs's unit.
func normalized(xs, refs []float64, nominal time.Duration) float64 {
	q := make([]float64, len(xs))
	for i, x := range xs {
		q[i] = x * ms(nominal) / refs[i]
	}
	return median(q)
}
