package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 300, 999, 1000, 1001, 1100, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		got := tailPercentile(xs, 99)
		if !got.OK {
			t.Fatalf("n=%d: OK=false", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond %v, want >= %d", n, beyond, got.Value, minBeyond)
		}
		// Nearest-rank p99 when it already leaves 10 beyond.
		if want := int(math.Ceil(0.99 * float64(n))); n-want >= minBeyond && got.Value != float64(want) {
			t.Errorf("n=%d: got %v, want the p99 rank %d", n, got.Value, want)
		}
		// Nearest rank may round up by less than one sample.
		if got.Pct >= 99+100/float64(n) {
			t.Errorf("n=%d: reported p%.4f, above p99's nearest rank", n, got.Pct)
		}
	}
}

func TestTailPercentileLowersPercentileForSmallSamples(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := tailPercentile(xs, 99)
	// p99 of 300 is rank 297 with 3 beyond; rank 290 leaves 10.
	if got.Value != 290 || math.Abs(got.Pct-96.6667) > 0.001 {
		t.Fatalf("got %+v, want value 290 at p96.67", got)
	}
}

func TestTailPercentileTooFewSamples(t *testing.T) {
	got := tailPercentile([]float64{3, 1, 2}, 99)
	if got.OK || got.Value != 3 {
		t.Fatalf("got %+v, want max with OK=false", got)
	}
	if !math.IsNaN(tailPercentile(nil, 99).Value) {
		t.Fatal("empty input should give NaN")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// at returns an instant ms milliseconds after a fixed origin.
func at(ms int) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(ms) * time.Millisecond)
}

func iv(a, b int) interval { return interval{at(a), at(b)} }

func TestLockWaitIsOverlapWithStepSpans(t *testing.T) {
	steps := union([]interval{iv(28, 40), iv(0, 15), iv(20, 25)})
	cases := []struct {
		req  interval
		want time.Duration
	}{
		{iv(10, 30), 12 * time.Millisecond}, // 5 + 5 + 2
		{iv(15, 20), 0},                     // between Steps
		{iv(41, 60), 0},                     // after every Step
		{iv(21, 23), 2 * time.Millisecond},  // inside one Step
		{iv(-5, 100), 32 * time.Millisecond},
	}
	for _, c := range cases {
		if got := overlap(c.req, steps); got != c.want {
			t.Errorf("overlap(%v..%v) = %v, want %v", c.req.Start.Sub(at(0)), c.req.End.Sub(at(0)), got, c.want)
		}
	}
}

func TestUnionMergesOverlapsAndDropsEmpty(t *testing.T) {
	got := union([]interval{iv(15, 30), iv(10, 20), iv(40, 40), iv(30, 35), iv(50, 60)})
	want := []interval{iv(10, 35), iv(50, 60)}
	if len(got) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
			t.Errorf("interval %d = %v..%v", i, got[i].Start.Sub(at(0)), got[i].End.Sub(at(0)))
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	parent := iv(0, 100)
	// Overlapping children count once; the part outside the parent is
	// clipped: covered = [10,30] + [90,100] = 30ms.
	children := []interval{iv(10, 20), iv(15, 30), iv(90, 120)}
	if got := selfTime(parent, children); got != 70*time.Millisecond {
		t.Fatalf("selfTime = %v, want 70ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("selfTime without children = %v", got)
	}
}

func TestLatencyIsMeasuredFromDueTime(t *testing.T) {
	due, end := at(0), at(12)
	// The request was sent late (at 5ms); the wait before sending counts.
	if got := dueLatency(due, end, true); got != 12*time.Millisecond {
		t.Fatalf("dueLatency = %v, want 12ms", got)
	}
	lat := latencyMs([]time.Duration{dueLatency(due, at(3), true), dueLatency(due, at(1), false)})
	if lat[0] != 3 || !math.IsInf(lat[1], 1) {
		t.Fatalf("latencyMs = %v, want [3 +Inf]: a failed request misses every limit", lat)
	}
	if m := median([]float64{1, 2, math.Inf(1)}); m != 2 {
		t.Fatalf("failed request should sort beyond real samples, median = %v", m)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := &result{Workload: "daemon-steady", Seconds: 10, Host: hostInfo{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1"}}
	b := *a
	if err := comparable(a, &b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Host.NumCPU = 4
	if err := comparable(a, &b); !errors.Is(err, errOtherHost) {
		t.Fatalf("different host: err = %v, want errOtherHost", err)
	}
}

func TestResultLineShape(t *testing.T) {
	r := &result{Workload: "offline-campaign", Seconds: 1}
	r.add(metric{Key: "rate_per_s", Name: "campaigns_per_s", Value: 1.25, Unit: "1/s", N: 3})
	r.add(metric{Name: "report_only", Value: 7, Unit: "s"})
	r.check("ok", true, "")
	var buf bytes.Buffer
	if err := printResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("keys = %v, want correct, attempted, failed, metrics", got)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 1 || metrics["rate_per_s"].Value != 1.25 || metrics["rate_per_s"].Unit != "1/s" {
		t.Fatalf("metrics = %+v, want only the keyed metric", metrics)
	}
}
