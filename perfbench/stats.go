package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// median of xs; xs must be non-empty. It does not reorder xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread summarizes xs as its minimum, quartiles and maximum, for the
// notes a run prints before its result.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g p25 %.4g median %.4g p75 %.4g max %.4g over %d",
		s[0], at(0.25), median(s), at(0.75), s[len(s)-1], len(s))
}

// percentile returns the nearest-rank q-quantile of samples, computed
// exactly from the retained samples, and how many samples lie beyond it.
// A percentile with fewer than ten samples beyond it is not reported.
func percentile(samples []time.Duration, q float64) (time.Duration, int, error) {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond := len(s) - rank
	if beyond < 10 {
		return 0, beyond, fmt.Errorf("p%g of %d samples has only %d beyond it; need 10", 100*q, len(s), beyond)
	}
	return s[rank-1], beyond, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeap forces a collection and returns the bytes still reachable.
// The second collection frees what the first only moved to sync.Pool's
// victim cache: pooled objects from the previous round can still
// reach that round's oracle.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapDelta is the live heap that grew between two liveHeap readings,
// in MB.
func heapDelta(before, after uint64) float64 {
	return (float64(after) - float64(before)) / (1 << 20)
}
