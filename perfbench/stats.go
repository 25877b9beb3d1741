package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one stall, not a distribution.
const minBeyond = 10

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted samples: the smallest sample with at least p·n samples at or
// below it. ok is false when fewer than minBeyond samples lie beyond
// that rank, so the figure cannot be trusted as that percentile.
func nearestRank(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// dist is a sample set of one timing or size, reported as a median and
// a tail percentile with its sample count.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) addDur(t time.Duration, unit time.Duration) {
	d.xs = append(d.xs, float64(t)/float64(unit))
}

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return s
}

// q returns the nearest-rank p-quantile; when the sample is too small
// for p (see nearestRank) it falls back to the highest rank that still
// has minBeyond samples above it, or the maximum for tiny samples, and
// reports ok=false so the caller can flag the substitution.
func (d *dist) q(p float64) (float64, bool) {
	s := d.sorted()
	v, ok := nearestRank(s, p)
	if ok || len(s) == 0 {
		return v, ok
	}
	if len(s) > minBeyond {
		return s[len(s)-1-minBeyond], false
	}
	return s[len(s)-1], false
}

func (d *dist) sum() float64 {
	t := 0.0
	for _, x := range d.xs {
		t += x
	}
	return t
}

func (d *dist) max() float64 {
	m := 0.0
	for i, x := range d.xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// median of a small set of repeated measurements (set-up times).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts operations against the operations that failed. An
// operation is one simulated or submitted job, one non-submit request,
// or one correctness check; failedShare is the run's failed_share.
type tally struct {
	attempted int64
	failed    int64
	// firstFailure names the first failure, for the report.
	firstFailure string
	// badCheck names the first failed correctness check; a run with one
	// reports no numbers.
	badCheck string
}

// ok records n operations that succeeded.
func (t *tally) ok(n int64) { t.attempted += n }

// fail records n failed operations and remembers why the first failed.
func (t *tally) fail(n int64, why string) {
	t.attempted += n
	t.failed += n
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

// check records one correctness check.
func (t *tally) check(pass bool, why string) {
	if pass {
		t.ok(1)
		return
	}
	t.fail(1, "check failed: "+why)
	if t.badCheck == "" {
		t.badCheck = why
	}
}

// merge adds another tally's operations and failures.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
