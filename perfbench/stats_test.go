package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(v)
	if s.N != 1000 || s.TailQ != 99 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 {
		t.Errorf("p50 = %v, want 500.5", s.P50)
	}
	if math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("p99 = %v, want 990.01", s.Tail)
	}
	if (summarize(nil) != summary{}) {
		t.Error("empty summary not zero")
	}
}

func TestCapacityStepRule(t *testing.T) {
	ok := stepResult{OfferedPerS: 1000, Attempted: 1000, Committed: 1000, CommitP99Ms: 40}
	for _, tc := range []struct {
		name string
		edit func(*stepResult)
		want bool
	}{
		{"all committed fast", func(*stepResult) {}, true},
		{"p99 at the bound", func(s *stepResult) { s.CommitP99Ms = 100 }, true},
		{"p99 over the bound", func(s *stepResult) { s.CommitP99Ms = 100.01 }, false},
		{"one failure", func(s *stepResult) { s.Failed, s.Committed = 1, 999 }, false},
		{"99% committed", func(s *stepResult) { s.Committed = 990 }, true},
		{"under 99% committed", func(s *stepResult) { s.Committed = 989 }, false},
		{"no arrivals", func(s *stepResult) { s.Attempted, s.Committed = 0, 0 }, false},
	} {
		s := ok
		tc.edit(&s)
		if got := defaultSLO.passes(s); got != tc.want {
			t.Errorf("%s: passes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCapacityIsHighestPassingStep(t *testing.T) {
	steps := []stepResult{
		{OfferedPerS: 1000, GoodputPerS: 1010, Pass: true},
		{OfferedPerS: 2000, GoodputPerS: 1990, Pass: true},
		{OfferedPerS: 2800, GoodputPerS: 2100, Pass: false},
		{OfferedPerS: 2400, GoodputPerS: 2390, Pass: true},
	}
	if got := capacityOf(steps); got != 2390 {
		t.Errorf("capacity = %v, want 2390", got)
	}
	if got := capacityOf(steps[2:3]); got != 0 {
		t.Errorf("capacity with no passing step = %v, want 0", got)
	}
}
