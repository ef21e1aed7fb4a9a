package main

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"anufs/internal/obs"
)

// quantile returns the q-quantile of samples, linearly interpolated
// between order statistics.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	samples = append([]time.Duration(nil), samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[lo]
	}
	frac := pos - float64(lo)
	return samples[lo] + time.Duration(frac*float64(samples[lo+1]-samples[lo]))
}

// histQuantile is the q-quantile of an obs histogram, interpolated
// linearly inside the bucket that holds it. obs.Histogram.Quantile reports
// that bucket's midpoint; the bucket layout (8 linear sub-buckets per
// power of two of nanoseconds) gives its bounds, and bisecting on Quantile
// finds the ranks the bucket spans.
func histQuantile(h *obs.Histogram, q float64) time.Duration {
	n := h.Count()
	mid := h.Quantile(q)
	if n < 2 || mid < 8 {
		return mid
	}
	rank := int64(q*float64(n-1)) + 1 // the rank obs resolves q to
	at := func(r int64) time.Duration {
		return h.Quantile(math.Min(1, (float64(r-1)+0.5)/float64(n-1)))
	}
	// at is nondecreasing in r: first and last are the ranks the bucket spans.
	first := 1 + int64(sort.Search(int(rank), func(i int) bool { return at(int64(i)+1) >= mid }))
	last := rank - 1 + int64(sort.Search(int(n-rank+1), func(i int) bool { return at(rank+int64(i)) > mid }))
	e := bits.Len64(uint64(mid)) - 1
	width := time.Duration(1) << uint(e-3)
	lower := mid - width/2
	return lower + time.Duration(float64(width)*(float64(rank-first)+0.5)/float64(last-first+1))
}

// merged folds every histogram named name whose labels contain label
// (empty = any) across the registries into one.
func merged(name, label string, regs ...*obs.Registry) *obs.Histogram {
	out := obs.NewHistogram()
	for _, r := range regs {
		r.Hist.Each(func(n, labels string, h *obs.Histogram) {
			if n == name && strings.Contains(labels, label) {
				out.Merge(h)
			}
		})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p99Block is the block size tailP99 takes p99s over: the largest block
// whose p99 still has ten samples beyond it.
const p99Block = 1000

// tailP99 is the p99 of samples (in arrival order) made robust to a
// transient stall: the median, over consecutive blocks of p99Block
// samples, of each block's p99. With fewer than two blocks it is the
// plain p99. A slow path that recurs (queueing behind checkpoints, say)
// raises most blocks' p99 and shows; one scheduling hiccup of a shared
// machine raises one block's and does not.
func tailP99(samples []time.Duration) time.Duration {
	if len(samples) < 2*p99Block {
		return quantile(samples, 0.99)
	}
	var blocks []time.Duration
	for lo := 0; lo+p99Block <= len(samples); lo += p99Block {
		blocks = append(blocks, quantile(samples[lo:lo+p99Block], 0.99))
	}
	return quantile(blocks, 0.5)
}
