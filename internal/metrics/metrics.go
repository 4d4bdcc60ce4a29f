// Package metrics provides the measurement primitives the experiment
// harnesses use: histograms with percentiles, time series for the Fig. 13
// panels, and a throughput accumulator.
//
// Both Histogram and TimeSeries are bounded: short runs keep exact
// samples (bit-identical to the historical implementations), and long
// runs — the million-request scale traces — switch to fixed-memory
// streaming forms (log-bucketed counts, pair-merged series) instead of
// growing without limit and becoming GC ballast.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram spill/bucket geometry. Up to histSpillAt samples are stored
// exactly; beyond that the histogram folds into log-spaced buckets:
// histSubBuckets linear sub-buckets per power of two bounds the relative
// quantile error at 1/(2·histSubBuckets) ≈ 3%. Exponents outside
// [histMinExp, histMaxExp) clamp to the edge buckets — seconds-scale
// latencies live many orders of magnitude inside the range.
const (
	histSpillAt    = 4096
	histSubBuckets = 16
	histMinExp     = -64
	histMaxExp     = 64
	histBuckets    = (histMaxExp - histMinExp) * histSubBuckets
)

// Histogram accumulates float64 samples and answers mean/percentile
// queries. The zero value is ready to use. Until histSpillAt samples it
// is exact (nearest-rank on the sorted sample vector); past that it
// spills into fixed-memory log buckets and quantiles carry ≈3% relative
// error, while Count, Mean, Min and Max stay exact. Memory is bounded at
// histBuckets counters regardless of sample count.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
	count   int64
	min     float64
	max     float64

	// Spilled form: buckets counts positive samples log-spaced; zeros
	// and negs count the non-positive samples separately, so quantile
	// ranks landing on a zero answer exactly 0 and only ranks landing on
	// a negative collapse to the (exact) minimum — negatives sort first,
	// but their distribution is not retained.
	buckets []int64
	zeros   int64
	negs    int64
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.samples = append(h.samples, v)
		h.sorted = false
		if len(h.samples) > histSpillAt {
			h.spill()
		}
		return
	}
	h.bucketAdd(v, 1)
}

// AddDuration records a duration sample in seconds.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// AddN records n samples of value v, bit-identical to n calls of Add(v):
// count, min, max and the bucket change once, and v is added to the sum
// n times, in order, so Mean keeps the same float.
func (h *Histogram) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += int64(n)
	for range n {
		h.sum += v
	}
	if h.buckets == nil {
		if len(h.samples)+n <= histSpillAt {
			for range n {
				h.samples = append(h.samples, v)
			}
			h.sorted = false
			return
		}
		h.spill()
	}
	h.bucketAdd(v, int64(n))
}

// spill converts the exact sample vector into the bounded bucket form.
func (h *Histogram) spill() {
	h.buckets = make([]int64, histBuckets)
	for _, v := range h.samples {
		h.bucketAdd(v, 1)
	}
	h.samples = nil
	h.sorted = false
}

// Spilled reports whether the histogram has switched to the bounded
// (approximate-quantile) form.
func (h *Histogram) Spilled() bool { return h.buckets != nil }

func (h *Histogram) bucketAdd(v float64, n int64) {
	if v == 0 {
		h.zeros += n
		return
	}
	if v < 0 {
		h.negs += n
		return
	}
	h.buckets[bucketIndex(v)] += n
}

// bucketIndex maps a positive value to its log bucket: v = frac·2^exp
// with frac ∈ [0.5, 1), the exponent selects the power-of-two band and
// the mantissa the linear sub-bucket within it.
func bucketIndex(v float64) int {
	frac, exp := math.Frexp(v)
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return (exp-histMinExp)*histSubBuckets + sub
}

// bucketValue returns the bucket's representative value (its midpoint).
func bucketValue(idx int) float64 {
	exp := histMinExp + idx/histSubBuckets
	sub := idx % histSubBuckets
	frac := 0.5 + (float64(sub)+0.5)/(2*histSubBuckets)
	return math.Ldexp(frac, exp)
}

// Merge folds other's samples into h (other is unchanged). Sweep
// harnesses use it to aggregate per-run distributions — e.g. recovery
// latencies across the cells of an availability sweep. Merging two
// spilled histograms is exact in the bucket domain: the result's buckets
// equal those of one histogram fed every sample.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	if h.buckets == nil && other.buckets == nil && len(h.samples)+len(other.samples) <= histSpillAt {
		h.samples = append(h.samples, other.samples...)
		h.sorted = false
		return
	}
	if h.buckets == nil {
		h.spill()
	}
	if other.buckets != nil {
		for i, n := range other.buckets {
			h.buckets[i] += n
		}
		h.zeros += other.zeros
		h.negs += other.negs
		return
	}
	for _, v := range other.samples {
		h.bucketAdd(v, 1)
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Mean returns the sample mean (0 with no samples). Exact in both forms.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Percentile returns the p-th percentile (p in [0,100]) by
// nearest-rank; 0 with no samples. Exact until the histogram spills,
// then accurate to the bucket width (≈3% relative).
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p/100*float64(h.count))) - 1
	if rank < 0 {
		rank = 0
	}
	if h.buckets == nil {
		if !h.sorted {
			sort.Float64s(h.samples)
			h.sorted = true
		}
		return h.samples[rank]
	}
	if rank < h.negs {
		return h.min // negatives sort first; only min is retained exactly
	}
	if rank < h.negs+h.zeros {
		return 0
	}
	cum := h.negs + h.zeros
	for i, n := range h.buckets {
		cum += n
		if rank < cum {
			v := bucketValue(i)
			// The exact extrema are tracked scalar-side; never answer
			// outside them.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Max returns the largest sample (0 with no samples). Always exact.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest sample (0 with no samples). Always exact.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Summary formats count/mean/p50/p99 on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Point is one time-series observation as reported by Points. For a
// series that has decimated, V is the mean of the merged observations.
type Point struct {
	T time.Duration
	V float64
}

// tsPoint is the internal aggregated observation: merged points carry
// their total weight and observation count so Bin means and RateBin
// sums stay exact in value (time is quantized to the merged timestamp).
type tsPoint struct {
	t     time.Duration
	sum   float64
	count int64
}

// DefaultTimeSeriesPoints bounds a TimeSeries at zero value: once
// reached, the series decimates into time buckets of a doubling width,
// trading time resolution for flat memory. 4096 points comfortably
// out-resolve the widest Fig. 13 binning while keeping a 256-GPU
// fleet's per-GPU batch series under ~25 MB total.
const DefaultTimeSeriesPoints = 4096

// TimeSeries records timestamped values, e.g. per-GPU batch size over the
// course of the cluster experiment (Fig. 13's lower panel). Memory is
// bounded: when the series reaches MaxPoints entries it decimates by
// merging points into fixed-width time buckets (summing weights,
// weight-averaging timestamps) and doubling the bucket width until it
// fits in half the bound. Resolution degrades uniformly across the whole
// series — every retained point spans the same wall-clock width — so a
// ten-hour run is as readable at the start as at the end.
type TimeSeries struct {
	// MaxPoints overrides the decimation bound when > 0 (min 2);
	// the zero value uses DefaultTimeSeriesPoints.
	MaxPoints int

	points []tsPoint
	// width is the current decimation bucket (0 until the series first
	// overflows; observations are exact until then).
	width time.Duration
}

func (ts *TimeSeries) bound() int {
	if ts.MaxPoints > 1 {
		return ts.MaxPoints
	}
	if ts.MaxPoints == 1 {
		return 2
	}
	return DefaultTimeSeriesPoints
}

// Add appends an observation. Timestamps should be non-decreasing.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if ts.width > 0 && len(ts.points) > 0 {
		last := &ts.points[len(ts.points)-1]
		if t/ts.width == last.t/ts.width {
			// Same decimation bucket as the newest point: fold in.
			last.count++
			last.t += (t - last.t) / time.Duration(last.count)
			last.sum += v
			return
		}
	}
	ts.points = append(ts.points, tsPoint{t: t, sum: v, count: 1})
	if len(ts.points) >= ts.bound() {
		ts.decimate()
	}
}

// decimate merges points into time buckets, doubling the bucket width
// until the series fits in half its bound. Merged timestamps are the
// count-weighted mean, so each point's mass stays near the bins it came
// from; sums and counts are preserved exactly.
func (ts *TimeSeries) decimate() {
	target := ts.bound() / 2
	for len(ts.points) > target {
		if ts.width == 0 {
			// Width derives from the observed span, not the absolute end
			// time: a series born mid-run (e.g. a replacement GPU's batch
			// series) must not decimate to the coarseness of the whole
			// run's clock.
			span := ts.points[len(ts.points)-1].t - ts.points[0].t
			ts.width = span/time.Duration(target) + 1
		} else {
			ts.width *= 2
		}
		if ts.width <= 0 {
			ts.width = 1 // degenerate span (all-equal or negative timestamps)
		}
		out := ts.points[:0]
		for _, p := range ts.points {
			if len(out) > 0 {
				last := &out[len(out)-1]
				if p.t/ts.width == last.t/ts.width {
					n := last.count + p.count
					last.t += time.Duration(float64(p.t-last.t) * float64(p.count) / float64(n))
					last.sum += p.sum
					last.count = n
					continue
				}
			}
			out = append(out, p)
		}
		ts.points = out
	}
}

// Merge folds other's observations into ts (other is unchanged). The
// merge is exact in mass and count: every retained point's sum and
// count carry over, interleaved by timestamp (ts's points first on
// ties, so merging in a fixed shard order is deterministic). The result
// adopts the coarser of the two decimation widths and re-decimates if
// the combined series exceeds the bound — cell-sharded runs use this to
// fold per-cell arrival/processed series into one fleet series.
func (ts *TimeSeries) Merge(other *TimeSeries) {
	if other == nil || len(other.points) == 0 {
		return
	}
	merged := make([]tsPoint, 0, len(ts.points)+len(other.points))
	i, j := 0, 0
	for i < len(ts.points) && j < len(other.points) {
		if other.points[j].t < ts.points[i].t {
			merged = append(merged, other.points[j])
			j++
		} else {
			merged = append(merged, ts.points[i])
			i++
		}
	}
	merged = append(merged, ts.points[i:]...)
	merged = append(merged, other.points[j:]...)
	ts.points = merged
	if other.width > ts.width {
		ts.width = other.width
	}
	if len(ts.points) >= ts.bound() {
		ts.decimate()
	}
}

// Len returns the number of retained (possibly merged) points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Points returns the observations; merged points report their mean
// value at their weighted timestamp.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	for i, p := range ts.points {
		out[i] = Point{T: p.t, V: p.sum / float64(p.count)}
	}
	return out
}

// Bin aggregates the series into fixed-width bins over [0, horizon),
// returning each bin's mean (NaN-free: empty bins carry the previous
// bin's value, starting from 0). Used to downsample hour-long runs into
// plottable rows. Merged points contribute their full weight and count
// at their merged timestamp.
func (ts *TimeSeries) Bin(horizon, width time.Duration) []float64 {
	if width <= 0 {
		panic("metrics: bin width must be positive")
	}
	n := int((horizon + width - 1) / width)
	if n <= 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int64, n)
	for _, p := range ts.points {
		if p.t < 0 || p.t >= horizon {
			continue
		}
		i := int(p.t / width)
		sums[i] += p.sum
		counts[i] += p.count
	}
	out := make([]float64, n)
	prev := 0.0
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		} else {
			out[i] = prev
		}
		prev = out[i]
	}
	return out
}

// RateBin counts events per second in fixed-width bins: used for the
// req/s and tok/s panels where each point is an event with a weight.
func (ts *TimeSeries) RateBin(horizon, width time.Duration) []float64 {
	if width <= 0 {
		panic("metrics: bin width must be positive")
	}
	n := int((horizon + width - 1) / width)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, p := range ts.points {
		if p.t < 0 || p.t >= horizon {
			continue
		}
		out[int(p.t/width)] += p.sum
	}
	for i := range out {
		out[i] /= width.Seconds()
	}
	return out
}

// Throughput accumulates a count over a window and reports the rate.
type Throughput struct {
	total int64
}

// Add increments the accumulated count.
func (t *Throughput) Add(n int64) { t.total += n }

// Total returns the accumulated count.
func (t *Throughput) Total() int64 { return t.total }

// PerSecond returns total / elapsed.
func (t *Throughput) PerSecond(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(t.total) / elapsed.Seconds()
}
