package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 98, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs (p in (0, 100]),
// or NaN for an empty sample. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples; the
// epsilon keeps p*n/100 that is an exact integer in decimal from rounding up.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tail returns the highest percentile of tailLevels that has at least ten
// samples beyond it, and its value. ok is false when even the median has
// fewer than ten samples above it (fewer than 20 samples).
func tail(xs []float64) (level, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLevels {
		if n-nearestRank(p, n) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, math.NaN(), false
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs, counting overlapping
// and nested parts once.
func unionLen(ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range s {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// remainder is the part of the wall-clock window [from, to) that no phase
// interval covers: the "other" bucket of a phase breakdown. Phases nested
// inside others (ks-sweep inside cut-enum, rebalance inside augment) are
// subtracted once, and the result is never negative.
func remainder(from, to int64, phases []interval) int64 {
	clipped := make([]interval, 0, len(phases))
	for _, p := range phases {
		clipped = append(clipped, interval{max(p.start, from), min(p.end, to)})
	}
	return max(0, (to-from)-unionLen(clipped))
}

// openLoopTiming returns a request's latency as an open-loop client sees
// it, measured from when the request was due rather than when it was sent,
// so a stalled sender charges its stall to every request it delayed; late
// is how far behind schedule the sender ran.
func openLoopTiming(due, sent, done time.Time) (latency, late time.Duration) {
	return done.Sub(due), max(0, sent.Sub(due))
}

// dueTime is when request i of an open-loop schedule at rate req/s
// starting at start is due.
func dueTime(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// foldDigests folds per-output digests, in order, into one workload digest.
func foldDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
