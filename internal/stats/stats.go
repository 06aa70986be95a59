// Package stats provides the statistics machinery behind every figure of
// the evaluation: running moments, Student-t 95% confidence intervals over
// replicated runs (the paper reports 10–15 repetitions per point), time
// series with rolling averages (Fig. 10–12) and replication drivers that run
// independent seeds in parallel.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates mean and variance incrementally (Welford's method).
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N reports the number of observations.
func (r *Running) N() int { return r.n }

// Mean reports the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance reports the unbiased sample variance (0 for fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// tTable holds two-sided 95% Student-t quantiles for df = 1..30; larger
// degrees of freedom fall back to the normal quantile.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile95 reports the two-sided 95% Student-t quantile for the given
// degrees of freedom.
func TQuantile95(df int) float64 {
	switch {
	case df < 1:
		return math.NaN()
	case df <= len(tTable):
		return tTable[df-1]
	default:
		return 1.96
	}
}

// CI95 reports the half-width of the 95% confidence interval of the mean.
// It is 0 for fewer than two observations.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return TQuantile95(r.n-1) * r.StdDev() / math.Sqrt(float64(r.n))
}

// Estimate is a mean with its 95% confidence half-width, as printed in every
// figure ("All results are presented with a 95% confidence interval").
type Estimate struct {
	Mean float64
	CI   float64
	N    int
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", e.Mean, e.CI, e.N)
}

// Estimate converts the accumulated moments into an Estimate.
func (r *Running) Estimate() Estimate {
	return Estimate{Mean: r.Mean(), CI: r.CI95(), N: r.n}
}

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is an append-only time series.
type Series struct {
	points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.points = append(s.points, Point{T: t, V: v}) }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Rolling returns a new series whose value at i is the mean of the last
// `window` samples ending at i (Fig. 11 uses a rolling 10-frame average).
func (s *Series) Rolling(window int) *Series {
	if window < 1 {
		window = 1
	}
	out := &Series{points: make([]Point, 0, len(s.points))}
	var sum float64
	for i, p := range s.points {
		sum += p.V
		if i >= window {
			sum -= s.points[i-window].V
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out.Add(p.T, sum/float64(n))
	}
	return out
}

// Downsample keeps at most max evenly spaced samples, for compact reports.
// The first and the final sample are always kept — recovery-time readers
// (dynamics, faults) look at the tail of windowed-PDR series, so the last
// window must survive — and the indices are computed with integer math so no
// sample is ever emitted twice (float stepping used to duplicate indices for
// awkward (len, max) pairs).
func (s *Series) Downsample(max int) *Series {
	if max <= 0 || len(s.points) <= max {
		return &Series{points: append([]Point(nil), s.points...)}
	}
	out := &Series{points: make([]Point, 0, max)}
	if max == 1 {
		out.points = append(out.points, s.points[len(s.points)-1])
		return out
	}
	// i*last/(max-1) hits 0 and last exactly; len > max makes consecutive
	// indices differ by at least floor(last/(max-1)) >= 1, so the selection
	// is strictly increasing.
	last := len(s.points) - 1
	for i := 0; i < max; i++ {
		out.points = append(out.points, s.points[i*last/(max-1)])
	}
	return out
}

// Quantile reports the q-quantile (0..1) of the series values using linear
// interpolation; NaN when empty.
func (s *Series) Quantile(q float64) float64 {
	vals := make([]float64, len(s.points))
	for i, p := range s.points {
		vals[i] = p.V
	}
	sort.Float64s(vals)
	return quantileSorted(vals, q)
}

// quantileSorted interpolates the q-quantile over an ascending slice; NaN
// when empty.
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[lo]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// Sample accumulates raw observations for quantile estimation — the delay
// percentile machinery of the overload and fault tables (p50/p95/p99). The
// zero value is ready to use.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add incorporates one observation.
func (s *Sample) Add(x float64) {
	s.vals = append(s.vals, x)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean reports the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Quantile reports the q-quantile (0..1) with linear interpolation; NaN when
// empty. The sort is cached across calls until the next Add.
func (s *Sample) Quantile(q float64) float64 {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return quantileSorted(s.vals, q)
}
