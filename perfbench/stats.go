package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile, so the tail is never a single outlier.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, with that percentile. With too few samples it returns
// the maximum and reports percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is one half-open span [start, end) on the run's clock.
type interval struct{ start, end time.Duration }

// covered returns the total length of the union of spans.
func covered(spans []interval) time.Duration {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	end := time.Duration(math.MinInt64)
	for _, iv := range s {
		if iv.start > end {
			total += iv.end - iv.start
			end = iv.end
			continue
		}
		if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}
