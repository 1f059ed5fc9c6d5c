package main

import (
	"strings"
	"time"
)

// This box's speed drifts: for tens of seconds to minutes at a time a
// neighbour slows it by 10-60%, CPU time and the fastest request of a
// run included, so no statistic over a run's own segments removes it
// (ten runs of one commit put raw timings' quartiles 17-43% apart on a
// bad hour). The harness therefore carries its own yardstick: a fixed
// unit of work, refKernel, run every few operations between the
// workload's own. A segment's timings are reported at reference speed —
// multiplied by refKernelNominalMS over the kernel's median time in that
// same segment — which cancels what the box did to both. In the worst
// hour measured that brought the run-to-run spread from 18-27% down to
// 6-12%. The raw timings are in every report beside them.
//
// refKernel is frozen: it is the unit every timing is expressed in, so
// editing it (or its corpus) rebases every number ever reported. It is
// the benchmark's own code on purpose — a reference inside the program
// would speed up with the program and hide the gain.

// refKernelNominalMS is refKernel's time on the quiet reference box;
// it only fixes the scale, so that on a quiet box the reported and the
// raw timings agree.
const refKernelNominalMS = 3.7

var refCorpus = makeRefCorpus(160)

// makeRefCorpus builds n fixed pseudo-titles from a xorshift stream.
func makeRefCorpus(n int) []string {
	words := strings.Fields("soil water crop yield genetic dairy forest climate nutrient pest management " +
		"improving analysis of and the in systems production quality wisconsin research plant animal " +
		"health economic rural food safety energy")
	x := uint64(12345)
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for j, k := 0, 5+int(x%6); j < k; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[x%uint64(len(words))])
		}
		out[i] = b.String()
	}
	return out
}

var refSink int

// refKernel does what the system under test mostly does, in miniature:
// tokenize titles, build an inverted index in maps, probe it, and run an
// edit distance over the hits — allocation, hashing, strings, compute.
func refKernel() {
	index := make(map[string][]int)
	for i, t := range refCorpus {
		for _, w := range strings.Fields(strings.ToUpper(t)) {
			index[w] = append(index[w], i)
		}
	}
	n := 0
	for q := 0; q < 12; q++ {
		counts := make(map[int]int)
		for _, w := range strings.Fields(strings.ToUpper(refCorpus[q])) {
			for _, i := range index[w] {
				counts[i]++
			}
		}
		for i, c := range counts {
			if c >= 3 {
				n += refEditDistance(refCorpus[q], refCorpus[i])
			}
		}
	}
	refSink += n
}

func refEditDistance(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			c = min(c, prev[j]+1, cur[j-1]+1)
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// probe runs the reference kernel n times inside a segment and keeps
// the samples; its own wall and CPU time are taken out of the segment's.
func (s *segment) probe(n int) {
	for i := 0; i < n; i++ {
		t, c := time.Now(), cpuSeconds()
		refKernel()
		d := time.Since(t)
		s.kernelMS = append(s.kernelMS, float64(d)/float64(time.Millisecond))
		s.kernelWallS += d.Seconds()
		s.kernelCPUS += cpuSeconds() - c
	}
}

// speed is the factor that turns a duration measured beside this
// segment's kernel samples into reference speed: below 1 on a slow box,
// 1 with no samples.
func (s *segment) speed() float64 {
	if len(s.kernelMS) == 0 {
		return 1
	}
	return refKernelNominalMS / median(s.kernelMS)
}
