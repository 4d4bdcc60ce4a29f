package metrics

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestHistogramSpillStaysAccurate drives the histogram past the spill
// threshold and checks the contract: count/mean/min/max stay exact,
// quantiles stay within the log-bucket relative error, and memory is the
// fixed bucket array rather than the sample vector.
func TestHistogramSpillStaysAccurate(t *testing.T) {
	var h Histogram
	n := 50_000
	sum := 0.0
	for i := 1; i <= n; i++ {
		v := float64(i) / 1000 // 0.001 .. 50.0 — latency-like range
		h.Add(v)
		sum += v
	}
	if !h.Spilled() {
		t.Fatalf("histogram did not spill after %d samples", n)
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
	if math.Abs(h.Mean()-sum/float64(n)) > 1e-9 {
		t.Fatalf("mean %g, want %g", h.Mean(), sum/float64(n))
	}
	if h.Min() != 0.001 || h.Max() != 50 {
		t.Fatalf("min/max %g/%g, want exact 0.001/50", h.Min(), h.Max())
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		exact := math.Ceil(p/100*float64(n)) / 1000
		got := h.Percentile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.04 {
			t.Fatalf("p%g = %g, exact %g: relative error %.3f exceeds bucket bound", p, got, exact, rel)
		}
	}
}

// TestHistogramExactBelowSpill pins that short runs keep the historical
// exact nearest-rank behaviour.
func TestHistogramExactBelowSpill(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if h.Spilled() {
		t.Fatal("histogram spilled below the threshold")
	}
	if h.Percentile(50) != 500 || h.Percentile(99) != 990 {
		t.Fatalf("exact percentiles wrong: p50=%g p99=%g", h.Percentile(50), h.Percentile(99))
	}
}

// TestHistogramMergeExactInBucketDomain checks the merge contract: two
// spilled histograms merged equal one histogram fed every sample.
func TestHistogramMergeExactInBucketDomain(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 10_000; i++ {
		v := float64(i) * 0.0007
		a.Add(v)
		all.Add(v)
	}
	for i := 1; i <= 10_000; i++ {
		v := float64(i) * 0.0031
		b.Add(v)
		all.Add(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %g, want %g", a.Mean(), all.Mean())
	}
	for _, p := range []float64{0, 10, 50, 95, 100} {
		if got, want := a.Percentile(p), all.Percentile(p); got != want {
			t.Fatalf("p%g: merged %g != streamed %g", p, got, want)
		}
	}
	if b.Count() != 10_000 {
		t.Fatal("merge mutated the source")
	}
}

// TestHistogramMergeUnspilledIntoSpilled covers the mixed-form merge.
func TestHistogramMergeUnspilledIntoSpilled(t *testing.T) {
	var big, small Histogram
	for i := 1; i <= 20_000; i++ {
		big.Add(float64(i))
	}
	small.Add(5)
	small.Add(25_000)
	big.Merge(&small)
	if big.Count() != 20_002 {
		t.Fatalf("count %d", big.Count())
	}
	if big.Max() != 25_000 || big.Min() != 1 {
		t.Fatalf("min/max %g/%g", big.Min(), big.Max())
	}
}

// TestHistogramSpilledNonPositive pins the spilled form's handling of
// zeros and negatives: ranks landing on a zero answer exactly 0; only
// ranks landing on a negative collapse to the exact minimum.
func TestHistogramSpilledNonPositive(t *testing.T) {
	var h Histogram
	h.Add(-1)
	for i := 0; i < 5000; i++ {
		h.Add(0)
	}
	for i := 0; i < 5000; i++ {
		h.Add(10)
	}
	if !h.Spilled() {
		t.Fatal("expected spill")
	}
	if got := h.Percentile(0.001); got != -1 {
		t.Fatalf("lowest rank = %g, want the exact min -1", got)
	}
	if got := h.Percentile(40); got != 0 {
		t.Fatalf("p40 = %g, want 0 (rank lands on a zero sample)", got)
	}
	if got := h.Percentile(90); math.Abs(got-10)/10 > 0.04 {
		t.Fatalf("p90 = %g, want ≈10", got)
	}
}

// TestTimeSeriesDecimationBounds pins the memory bound and the exactness
// of the aggregates the harnesses read: total weight (RateBin mass) is
// preserved exactly, and the point count never exceeds the bound.
func TestTimeSeriesDecimationBounds(t *testing.T) {
	var ts TimeSeries
	n := 100_000
	horizon := time.Hour
	total := 0.0
	for i := 0; i < n; i++ {
		at := time.Duration(i) * horizon / time.Duration(n)
		w := float64(1 + i%3)
		ts.Add(at, w)
		total += w
	}
	if ts.Len() > DefaultTimeSeriesPoints {
		t.Fatalf("series holds %d points, bound %d", ts.Len(), DefaultTimeSeriesPoints)
	}
	rates := ts.RateBin(horizon, time.Minute)
	got := 0.0
	for _, r := range rates {
		got += r * 60
	}
	if math.Abs(got-total) > total*1e-9 {
		t.Fatalf("RateBin mass %g, want exactly %g", got, total)
	}
	// Bin means stay near the true per-bin mean (weights cycle 1,2,3 →
	// mean 2 everywhere; decimation must not distort a uniform series).
	for i, m := range ts.Bin(horizon, time.Minute) {
		if math.Abs(m-2) > 0.05 {
			t.Fatalf("bin %d mean %g, want ≈2", i, m)
		}
	}
}

// TestTimeSeriesLateBirthKeepsResolution pins that decimation width
// derives from the observed span, not the absolute clock: a series
// born late in a long run (a replacement GPU's batch series) keeps the
// designed point budget over its own lifetime.
func TestTimeSeriesLateBirthKeepsResolution(t *testing.T) {
	var ts TimeSeries
	base := 10 * time.Hour // born ten hours into the run
	for i := 0; i < 100_000; i++ {
		ts.Add(base+time.Duration(i)*time.Millisecond, 1) // 100s of data
	}
	if ts.Len() > DefaultTimeSeriesPoints {
		t.Fatalf("series holds %d points, bound %d", ts.Len(), DefaultTimeSeriesPoints)
	}
	// Span/points ≈ per-point width; it must track the 100 s span, not
	// the 10 h clock (which would leave ~57 points at ≥1.7 s each).
	if ts.Len() < DefaultTimeSeriesPoints/8 {
		t.Fatalf("late-born series decimated to %d points — width derived from absolute time?", ts.Len())
	}
}

// TestTimeSeriesSmallExact pins that an un-decimated series behaves
// exactly as the historical implementation (the metrics_test.go cases
// cover values; this covers Points round-tripping).
func TestTimeSeriesSmallExact(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Second, 3)
	ts.Add(2*time.Second, 5)
	pts := ts.Points()
	if len(pts) != 2 || pts[0] != (Point{T: time.Second, V: 3}) || pts[1] != (Point{T: 2 * time.Second, V: 5}) {
		t.Fatalf("points %v", pts)
	}
}

// TestTimeSeriesCustomBound checks the override knob.
func TestTimeSeriesCustomBound(t *testing.T) {
	ts := TimeSeries{MaxPoints: 16}
	for i := 0; i < 10_000; i++ {
		ts.Add(time.Duration(i)*time.Millisecond, 1)
	}
	if ts.Len() > 16 {
		t.Fatalf("series holds %d points, bound 16", ts.Len())
	}
}

// tsMass sums a series' total mass and count through its points.
func tsMass(ts *TimeSeries) (mass float64, count int64) {
	for _, p := range ts.points {
		mass += p.sum
		count += p.count
	}
	return mass, count
}

// TestTimeSeriesMergeExactMass: merging preserves total mass and count
// exactly, interleaves by timestamp, and is deterministic across merge
// order of disjoint shards.
func TestTimeSeriesMergeExactMass(t *testing.T) {
	var a, b TimeSeries
	for i := 0; i < 100; i++ {
		a.Add(time.Duration(2*i)*time.Millisecond, float64(i))
		b.Add(time.Duration(2*i+1)*time.Millisecond, float64(10*i))
	}
	am, ac := tsMass(&a)
	bm, bc := tsMass(&b)
	a.Merge(&b)
	gm, gc := tsMass(&a)
	if gm != am+bm || gc != ac+bc {
		t.Fatalf("merge lost mass: got (%v,%d), want (%v,%d)", gm, gc, am+bm, ac+bc)
	}
	pts := a.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("merged series out of order at %d: %v after %v", i, pts[i].T, pts[i-1].T)
		}
	}
}

// TestTimeSeriesMergeRespectsBound: merging two full series re-decimates
// into the bound instead of growing without limit, still mass-exact.
func TestTimeSeriesMergeRespectsBound(t *testing.T) {
	a := TimeSeries{MaxPoints: 64}
	b := TimeSeries{MaxPoints: 64}
	for i := 0; i < 500; i++ {
		a.Add(time.Duration(i)*time.Millisecond, 1)
		b.Add(time.Duration(i)*time.Millisecond+500*time.Microsecond, 2)
	}
	am, ac := tsMass(&a)
	bm, bc := tsMass(&b)
	a.Merge(&b)
	if a.Len() >= 64 {
		t.Fatalf("merged series holds %d points, bound is 64", a.Len())
	}
	gm, gc := tsMass(&a)
	if gm != am+bm || gc != ac+bc {
		t.Fatalf("bounded merge lost mass: got (%v,%d), want (%v,%d)", gm, gc, am+bm, ac+bc)
	}
}

// TestTimeSeriesMergeEmpty: merging nil or empty series is a no-op.
func TestTimeSeriesMergeEmpty(t *testing.T) {
	var a, empty TimeSeries
	a.Add(time.Millisecond, 3)
	a.Merge(nil)
	a.Merge(&empty)
	if m, c := tsMass(&a); m != 3 || c != 1 {
		t.Fatalf("no-op merge changed series: (%v,%d)", m, c)
	}
}

// sameHistogram fails unless a and b answer every query with the same
// bits: count, mean, extrema, the quantiles at 0, 1, 50, 99 and 100,
// and the form (exact or spilled).
func sameHistogram(t *testing.T, what string, a, b *Histogram) {
	t.Helper()
	if a.Count() != b.Count() || a.Spilled() != b.Spilled() {
		t.Fatalf("%s: count/spilled %d/%v vs %d/%v", what, a.Count(), a.Spilled(), b.Count(), b.Spilled())
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Mean(), b.Mean()) || !same(a.Min(), b.Min()) || !same(a.Max(), b.Max()) {
		t.Fatalf("%s: mean/min/max %v/%v/%v vs %v/%v/%v", what,
			a.Mean(), a.Min(), a.Max(), b.Mean(), b.Min(), b.Max())
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if x, y := a.Percentile(p), b.Percentile(p); !same(x, y) {
			t.Fatalf("%s: p%g %v vs %v", what, p, x, y)
		}
	}
}

// TestAddNMatchesRepeatedAdd checks that AddN(d.Seconds(), n) leaves the
// histogram bit-identical to n AddDuration(d) calls — on an empty
// histogram and on partly filled ones, for n on both sides of the
// 4096-sample spill and crossing it inside one call — and that merging
// either into a third histogram gives the same result.
func TestAddNMatchesRepeatedAdd(t *testing.T) {
	// Gap-like durations whose float sums depend on addition order.
	prior := []time.Duration{13_697_853, 24_635_464, 9_999_991}
	const d = 19_042_969 * time.Nanosecond
	for _, filled := range []int{0, 1000, 4000} {
		for _, n := range []int{1, 95, 96, 4095, 4096, 4097, 9000} {
			var one, each Histogram
			for i := 0; i < filled; i++ {
				v := prior[i%len(prior)]
				one.AddDuration(v)
				each.AddDuration(v)
			}
			one.AddN(d.Seconds(), n)
			for i := 0; i < n; i++ {
				each.AddDuration(d)
			}
			what := fmt.Sprintf("filled=%d n=%d", filled, n)
			sameHistogram(t, what, &one, &each)
			// A later sample on top, so the insert is not only the tail.
			one.AddDuration(prior[0])
			each.AddDuration(prior[0])
			sameHistogram(t, what+" then one more", &one, &each)

			var mergedOne, mergedEach Histogram
			for i := 0; i < 300; i++ {
				mergedOne.AddDuration(prior[i%len(prior)])
				mergedEach.AddDuration(prior[i%len(prior)])
			}
			mergedOne.Merge(&one)
			mergedEach.Merge(&each)
			sameHistogram(t, what+" merged", &mergedOne, &mergedEach)
		}
	}
	var h Histogram
	h.AddN(1, 0)
	h.AddN(1, -3)
	if h.Count() != 0 {
		t.Fatalf("AddN with n <= 0 recorded %d samples", h.Count())
	}
}
