package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may report as its tail, from
// the highest down. summarize picks the highest one that still has at
// least minBeyond samples above it.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; fewer would make the tail one or two samples' worth of noise.
const minBeyond = 10

// summary describes one timing: its median, the highest percentile that
// has at least minBeyond samples beyond it, and the sample count.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
	Max   float64 `json:"max"`
}

// summarize sorts v in place and reports its summary. An empty v has N 0
// and zero values.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	sort.Float64s(v)
	s := summary{N: len(v), P50: quantile(v, 50), Max: v[len(v)-1]}
	s.TailQ = tailPercentile(len(v))
	s.Tail = quantile(v, s.TailQ)
	return s
}

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it, or 50 when n is too small for
// any of them.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= minBeyond-1e-9 {
			return q
		}
	}
	return 50
}

// quantile returns the q-th percentile (0..100) of sorted by linear
// interpolation between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentileOf is quantile on an unsorted copy of v.
func percentileOf(v []float64, q float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return quantile(c, q)
}

// median is percentileOf(v, 50).
func median(v []float64) float64 { return percentileOf(v, 50) }

// mean is the arithmetic mean of v, 0 when v is empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// capacitySLO is the rule a capacity ramp step must meet to pass.
type capacitySLO struct {
	P99Ms       float64 // commit p99 at most this
	MinGoodFrac float64 // committed share of the step's arrivals at least this
}

// defaultSLO is the rule every workload's ramp uses.
var defaultSLO = capacitySLO{P99Ms: 100, MinGoodFrac: 0.99}

// stepResult is what one ramp step measured.
type stepResult struct {
	OfferedPerS float64 `json:"offered_per_s"`
	Attempted   int     `json:"attempted"`
	Committed   int     `json:"committed"`
	Failed      int     `json:"failed"`
	CommitP99Ms float64 `json:"commit_p99_ms"`
	GoodputPerS float64 `json:"goodput_per_s"`
	Pass        bool    `json:"pass"`
}

// passes applies the SLO: no failed broadcast, commit p99 within the
// bound, and at least MinGoodFrac of the step's arrivals committed.
func (s capacitySLO) passes(r stepResult) bool {
	if r.Attempted == 0 || r.Failed > 0 {
		return false
	}
	if r.CommitP99Ms > s.P99Ms {
		return false
	}
	return float64(r.Committed) >= s.MinGoodFrac*float64(r.Attempted)
}

// capacityOf returns the goodput of the highest-rate passing step, or 0
// when none passed.
func capacityOf(steps []stepResult) float64 {
	best, bestRate := 0.0, -1.0
	for _, s := range steps {
		if s.Pass && s.OfferedPerS > bestRate {
			best, bestRate = s.GoodputPerS, s.OfferedPerS
		}
	}
	return best
}
