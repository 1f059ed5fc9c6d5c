package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]); 0 for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// spread is the interquartile range of xs as a share of its median —
// the run's own noise reading. 0 when the median is 0 or there are
// fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// segment is one equal slice of a workload's fixed work. Every timing
// metric is a median over segments, so a neighbour's burst on this
// shared box spoils a few segments and not the reported number.
type segment struct {
	wallS   float64   // wall time of the whole segment
	cpuS    float64   // process user+sys CPU over the segment
	records int       // left records answered in the segment
	opMS    []float64 // latency of each full-size operation in the segment

	// The reference kernel's samples inside this segment (see speed.go);
	// its wall and CPU time are already taken out of wallS and cpuS.
	kernelMS                []float64
	kernelWallS, kernelCPUS float64
}

// timings are the per-segment values the timing metrics are read from,
// each at reference speed (see speed.go); raw* are the same as the clock
// read them.
type timings struct {
	rate  []float64 // records per second
	latMS []float64 // the segment's median operation latency
	cpuMS []float64 // process CPU per record
	wallS []float64 // wall time per record, for the spread
	speed []float64 // nominal / measured kernel time: < 1 on a slow box

	rawRate, rawLatMS, rawCPUMS []float64
}

func segmentTimings(segs []segment) timings {
	var t timings
	for _, s := range segs {
		if s.records == 0 || s.wallS <= 0 {
			continue
		}
		n := float64(s.records)
		f := s.speed()
		rate, lat, cpu := n/s.wallS, median(s.opMS), 1000*s.cpuS/n
		t.speed = append(t.speed, f)
		t.rawRate, t.rawLatMS, t.rawCPUMS = append(t.rawRate, rate), append(t.rawLatMS, lat), append(t.rawCPUMS, cpu)
		t.rate, t.latMS, t.cpuMS = append(t.rate, rate/f), append(t.latMS, lat*f), append(t.cpuMS, cpu*f)
		t.wallS = append(t.wallS, f*s.wallS/n)
	}
	return t
}

// splitEven cuts n items into k consecutive [lo,hi) ranges whose sizes
// differ by at most one.
func splitEven(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// splitBatches cuts n records into consecutive [lo,hi) ranges of size
// records each; the remainder goes out as a short last batch so every
// record is sent exactly once.
func splitBatches(n, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
