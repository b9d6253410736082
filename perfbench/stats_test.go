package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		level float64
		ok    bool
	}{
		{10000, 99.9, true}, // rank 9990, 10 beyond
		{9999, 99, true},    // p99.9 would leave 9
		{1000, 99, true},    // rank 990, 10 beyond
		{999, 98, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		level, v, ok := tail(seq(c.n))
		if ok != c.ok || level != c.level {
			t.Errorf("n=%d: tail level %v ok=%v, want %v ok=%v", c.n, level, ok, c.level, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the p%v value %v, want >= 10", c.n, beyond, level, v)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRemainderCountsNestedPhasesOnce(t *testing.T) {
	// cut-enum [0,100) holds ks-sweep [10,60) and ks-materialise [60,90);
	// augment [100,150). Summing durations would give 230 > 200 and a
	// negative remainder; the union is 150.
	phases := []interval{{0, 100}, {10, 60}, {60, 90}, {100, 150}}
	if got := remainder(0, 200, phases); got != 50 {
		t.Fatalf("remainder = %d, want 50", got)
	}
}

func TestRemainderNeverNegative(t *testing.T) {
	// Phases that spill outside the measured window (clock skew between
	// the observer and the caller's timer) are clipped, not subtracted.
	phases := []interval{{-5, 40}, {30, 120}}
	if got := remainder(0, 100, phases); got != 0 {
		t.Fatalf("remainder = %d, want 0", got)
	}
	if got := remainder(0, 100, nil); got != 100 {
		t.Fatalf("remainder with no phases = %d, want 100", got)
	}
	if got := remainder(0, 100, []interval{{20, 10}}); got != 100 {
		t.Fatalf("remainder with an empty phase = %d, want 100", got)
	}
}

func TestOpenLoopLatencyFromScheduledSend(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(5 * time.Millisecond) // the sender stalled 5ms
	done := sent.Add(2 * time.Millisecond)
	lat, late := openLoopTiming(due, sent, done)
	if lat != 7*time.Millisecond {
		t.Errorf("latency = %v, want 7ms (from the due time, not the send)", lat)
	}
	if late != 5*time.Millisecond {
		t.Errorf("late = %v, want 5ms", late)
	}
	// Sent early (timer slack): not late, and latency is still from due.
	lat, late = openLoopTiming(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if lat != time.Millisecond || late != 0 {
		t.Errorf("early send: latency %v late %v, want 1ms and 0", lat, late)
	}
}

func TestDueTimeSchedule(t *testing.T) {
	start := time.Unix(0, 0)
	if got := dueTime(start, 250, 5).Sub(start); got != 20*time.Millisecond {
		t.Fatalf("request 5 at 250/s due after %v, want 20ms", got)
	}
}

func TestFoldDigestsOrderSensitive(t *testing.T) {
	a := foldDigests([]string{"x", "y"})
	if a == foldDigests([]string{"y", "x"}) || a != foldDigests([]string{"x", "y"}) {
		t.Fatal("fold must be deterministic and order-sensitive")
	}
}

func TestInterpolateRateBracketsTheLimit(t *testing.T) {
	// Passing step 100 req/s at 10ms, failing step 200 req/s at 50ms: the
	// 30ms limit is crossed halfway.
	if got := interpolateRate(100, 10, 200, 50, 30); got != 150 {
		t.Fatalf("crossing at %v req/s, want 150", got)
	}
	// A failing step with failed requests (infinite tail) or a tail that
	// did not grow gives the passing rate, never more.
	if got := interpolateRate(100, 10, 200, math.Inf(1), 30); got != 100 {
		t.Fatalf("infinite tail: %v, want 100", got)
	}
	if got := interpolateRate(100, 10, 200, 5, 30); got != 100 {
		t.Fatalf("shrinking tail: %v, want 100", got)
	}
}

func TestTrimmedMeanDropsOneOutlierEachSide(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 10, 12, 11}); got != 11 {
		t.Fatalf("trimmed mean %v, want 11", got)
	}
	if got := trimmedMean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("short sample: %v, want the plain mean 2", got)
	}
}
