package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail backed by fewer samples is noise, not a measurement.
const minBeyond = 10

// tail is a reported tail percentile: the value, which percentile it is,
// and whether enough samples backed it.
type tail struct {
	Value float64
	Pct   float64 // percentile actually reported, in (0, 100]
	OK    bool    // false when fewer than minBeyond+1 samples existed
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs, lowered
// until at least minBeyond samples lie strictly beyond the reported rank.
// With too few samples for any such percentile it reports the maximum and
// OK=false.
func tailPercentile(xs []float64, p float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		return tail{Value: s[n-1], Pct: 100}
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	return tail{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), OK: true}
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dueLatency is how long a request took counted from when it was due to
// be sent, not from when the generator got round to sending it: a stall
// that delays later sends is charged to those requests too. A failed
// request misses every latency limit, so it counts as +Inf.
func dueLatency(due, end time.Time, ok bool) time.Duration {
	if !ok {
		return time.Duration(math.MaxInt64)
	}
	return end.Sub(due)
}

// latencyMs converts due-time latencies to milliseconds, mapping failures
// (MaxInt64) to +Inf so they sort beyond every real sample.
func latencyMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d == time.Duration(math.MaxInt64) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(d)
	}
	return out
}
