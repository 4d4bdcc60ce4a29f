package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTrafficFairnessRegression pins the flash-crowd acceptance story to
// the default (seeded, fully deterministic) sweep:
//
//   - with no spike the fairness layer is inert: the off and on runs
//     produce byte-identical outcome digests;
//   - under the whale's flash crowd, turning fairness on collapses the
//     stall skew by at least 2x and the tail tenants' p99 (whale
//     excluded) by at least 2x — the regression satellite for the
//     "skewed hot tenant inflates tail-tenant AdapterStalls" bug.
func TestTrafficFairnessRegression(t *testing.T) {
	points, err := Traffic(TrafficOptions{SpikePeaks: []float64{0, 32}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 points (2 peaks x off/on), got %d", len(points))
	}
	for i := range points {
		p := &points[i]
		if p.Finished != int64(p.Requests) {
			t.Fatalf("peak%g/fair=%v: finished %d of %d", p.SpikePeak, p.Fairness, p.Finished, p.Requests)
		}
	}
	quiet0 := mustPoint(t, points, 0, false)
	quiet1 := mustPoint(t, points, 0, true)
	if quiet0.Digest != quiet1.Digest {
		t.Fatalf("no-spike control diverged: fairness off digest %s, on %s — the VTC layer must be inert without contention",
			quiet0.Digest, quiet1.Digest)
	}
	off := mustPoint(t, points, 32, false)
	on := mustPoint(t, points, 32, true)
	if off.AdapterStalls == 0 {
		t.Fatal("flash crowd produced no adapter stalls fairness-off; the scenario no longer exercises store contention")
	}
	if on.StallSkew <= 0 {
		t.Fatalf("fairness-on stall skew %v; want > 0", on.StallSkew)
	}
	if off.StallSkew < 2*on.StallSkew {
		t.Fatalf("stall skew off %.2f vs on %.2f: fairness must improve the skew >= 2x (got %.2fx)",
			off.StallSkew, on.StallSkew, off.StallSkew/on.StallSkew)
	}
	if on.TailP99 <= 0 || off.TailP99 < 2*on.TailP99 {
		t.Fatalf("tail p99 off %.2fs vs on %.2fs: fairness must improve the non-whale p99 >= 2x",
			off.TailP99, on.TailP99)
	}
}

func mustPoint(t *testing.T, points []TrafficPoint, peak float64, fair bool) *TrafficPoint {
	t.Helper()
	for i := range points {
		if points[i].SpikePeak == peak && points[i].Fairness == fair {
			return &points[i]
		}
	}
	t.Fatalf("sweep has no point peak=%g fairness=%v", peak, fair)
	return nil
}

// TestTrafficDeterministic: the sweep is a pure function of its options —
// two full runs must agree digest-for-digest, which is what lets the
// committed BENCH_traffic.json act as an exact baseline.
func TestTrafficDeterministic(t *testing.T) {
	opts := TrafficOptions{SpikePeaks: []float64{32}}
	a, err := Traffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Traffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Digest != b[i].Digest {
			t.Fatalf("point %d digest diverged across identical runs: %s vs %s", i, a[i].Digest, b[i].Digest)
		}
	}
}

// TestTrafficCSVAndRecords: the CSV has one row per run plus a header,
// and the bench records carry the fairness-gain metrics the baseline
// gate reads.
func TestTrafficCSVAndRecords(t *testing.T) {
	points, err := Traffic(TrafficOptions{SpikePeaks: []float64{32}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := TrafficReport(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; lines != len(points)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(points)+1)
	}
	recs := TrafficReport(points).Records()
	var gain *BenchRecord
	for i := range recs {
		if recs[i].Name == "peak32/fairness-gain" {
			gain = &recs[i]
		}
	}
	if gain == nil {
		t.Fatalf("records lack the peak32/fairness-gain row: %+v", recs)
	}
	if gain.Metrics["skew_ratio"] < 2 {
		t.Fatalf("fairness-gain skew_ratio %.2f < 2", gain.Metrics["skew_ratio"])
	}
	if gain.Metrics["tail_p99_gain"] < 2 {
		t.Fatalf("fairness-gain tail_p99_gain %.2f < 2", gain.Metrics["tail_p99_gain"])
	}
}

// TestSoakSmoke: a shortened everything-at-once soak — popularity drift,
// autoscaling, random faults, churn, fairness on — must finish every
// request and be deterministic run-to-run. CI runs this under -race and
// -tags punica_invariants.
func TestSoakSmoke(t *testing.T) {
	opts := SoakOptions{Horizon: 4 * time.Minute}
	a, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Finished != int64(a.Requests) {
		t.Fatalf("finished %d of %d", a.Finished, a.Requests)
	}
	if a.Requests == 0 || a.TenantCount == 0 {
		t.Fatalf("degenerate soak: %d requests, %d tenants", a.Requests, a.TenantCount)
	}
	b, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("soak digest diverged across identical runs: %s vs %s", a.Digest, b.Digest)
	}
	var buf bytes.Buffer
	if err := SoakReport(a).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := SoakReport(a).Records(); len(recs) != 1 || recs[0].Experiment != "soak" {
		t.Fatalf("unexpected soak records: %+v", recs)
	}
}
