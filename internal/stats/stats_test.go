package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 || r.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", r.N(), r.Mean())
	}
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want 32/7", r.Variance())
	}
}

func TestCI95KnownCase(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	// sd = sqrt(2.5), n = 5, t(4) = 2.776 → CI = 2.776*sqrt(2.5)/sqrt(5)
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(r.CI95()-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", r.CI95(), want)
	}
	if r.Estimate().N != 5 {
		t.Error("estimate N wrong")
	}
	if got, want := r.Estimate().String(), "3.0000 ± 1.9629 (n=5)"; got != want {
		t.Errorf("Estimate renders %q, want %q", got, want)
	}
}

func TestCI95Degenerate(t *testing.T) {
	var r Running
	if r.CI95() != 0 {
		t.Error("empty CI should be 0")
	}
	r.Add(3)
	if r.CI95() != 0 || r.Variance() != 0 {
		t.Error("single-sample CI should be 0")
	}
}

func TestTQuantile(t *testing.T) {
	if TQuantile95(1) != 12.706 || TQuantile95(30) != 2.042 || TQuantile95(1000) != 1.96 {
		t.Error("t-table values wrong")
	}
	if !math.IsNaN(TQuantile95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestRunningMatchesBatchProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		var sum float64
		for _, x := range raw {
			r.Add(float64(x))
			sum += float64(x)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, x := range raw {
			ss += (float64(x) - mean) * (float64(x) - mean)
		}
		batchVar := ss / float64(len(raw)-1)
		return math.Abs(r.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(r.Variance()-batchVar) < 1e-6*(1+batchVar)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesRolling(t *testing.T) {
	var s Series
	for i, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(float64(i), v)
	}
	r := s.Rolling(3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i, w := range want {
		if math.Abs(r.At(i).V-w) > 1e-12 {
			t.Errorf("rolling[%d] = %v, want %v", i, r.At(i).V, w)
		}
	}
	// Window 1 is the identity; invalid windows clamp to 1.
	id := s.Rolling(0)
	for i := 0; i < s.Len(); i++ {
		if id.At(i) != s.At(i) {
			t.Fatal("Rolling(0) should be the identity")
		}
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled length %d", d.Len())
	}
	if d.At(0).T != 0 {
		t.Error("first sample dropped")
	}
	// Downsample with a larger budget copies.
	c := s.Downsample(1000)
	if c.Len() != 100 {
		t.Error("oversized downsample should keep everything")
	}
}

// TestSeriesDownsampleAwkwardPairs pins the integer-index behaviour across
// (len, max) pairs where the old float stepping emitted duplicate indices or
// dropped the final sample: exactly min(len, max) points come back, strictly
// increasing, with the first and last original samples always present.
func TestSeriesDownsampleAwkwardPairs(t *testing.T) {
	cases := []struct{ n, max int }{
		{2, 1}, {3, 2}, {5, 4}, {7, 3}, {10, 3}, {10, 7}, {11, 10},
		{13, 5}, {100, 7}, {100, 99}, {101, 100}, {1000, 999}, {997, 31},
	}
	for _, tc := range cases {
		var s Series
		for i := 0; i < tc.n; i++ {
			s.Add(float64(i), float64(i)*2)
		}
		d := s.Downsample(tc.max)
		want := tc.max
		if tc.n < want {
			want = tc.n
		}
		if d.Len() != want {
			t.Errorf("n=%d max=%d: got %d points, want %d", tc.n, tc.max, d.Len(), want)
			continue
		}
		if last := d.At(d.Len() - 1).T; last != float64(tc.n-1) {
			t.Errorf("n=%d max=%d: last point T=%v, want %v (tail dropped)", tc.n, tc.max, last, float64(tc.n-1))
		}
		if tc.max > 1 && d.At(0).T != 0 {
			t.Errorf("n=%d max=%d: first sample dropped", tc.n, tc.max)
		}
		for i := 1; i < d.Len(); i++ {
			if d.At(i).T <= d.At(i-1).T {
				t.Errorf("n=%d max=%d: duplicate or out-of-order index at %d (T=%v after %v)",
					tc.n, tc.max, i, d.At(i).T, d.At(i-1).T)
			}
		}
	}
}

func TestSeriesQuantile(t *testing.T) {
	var s Series
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(0, v)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	var empty Series
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestReplicateOrderAndParallelism(t *testing.T) {
	for _, parallel := range []int{1, 3, 0} {
		out := make([]float64, 8)
		ForEach(len(out), parallel, func(i int) { out[i] = float64(i * i) })
		for i, v := range out {
			if v != float64(i*i) {
				t.Fatalf("parallel=%d: out[%d] = %v", parallel, i, v)
			}
		}
	}
}

func TestReplicateMany(t *testing.T) {
	grid, _ := ReplicateGrid(1, 4, 0, func(_ int, seed uint64) map[string]float64 {
		return map[string]float64{"a": float64(seed), "b": 2}
	})
	est := grid[0]
	if est["a"].Mean != 1.5 || est["a"].N != 4 {
		t.Errorf("a = %+v", est["a"])
	}
	if est["b"].Mean != 2 || est["b"].CI != 0 {
		t.Errorf("b = %+v", est["b"])
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sample should yield NaN quantiles")
	}
	if s.Mean() != 0 || s.N() != 0 {
		t.Errorf("empty sample: mean %v n %d", s.Mean(), s.N())
	}
	// Out-of-order insertion; quantiles must match the sorted view.
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Quantile(0.75); got != 4 {
		t.Errorf("p75 = %v", got)
	}
	if s.Mean() != 3 || s.N() != 5 {
		t.Errorf("mean %v n %d", s.Mean(), s.N())
	}
	// Adding after a quantile call must invalidate the sort cache.
	s.Add(0)
	if got := s.Quantile(0); got != 0 {
		t.Errorf("q0 after add = %v", got)
	}
	// Sample and Series share the interpolation rule.
	var ser Series
	for i, v := range []float64{1, 2, 3, 4, 5, 0} {
		ser.Add(float64(i), v)
	}
	if a, b := s.Quantile(0.95), ser.Quantile(0.95); a != b {
		t.Errorf("Sample p95 %v != Series p95 %v", a, b)
	}
}
