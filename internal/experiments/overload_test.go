package experiments

import (
	"bytes"
	"testing"
	"time"
)

// smokeOverloadOptions is a deliberately tiny sweep — one GPU, one 4x
// factor, short horizon, fast clock — so the full HTTP round trip runs
// in a few seconds of wall time.
func smokeOverloadOptions() OverloadOptions {
	return OverloadOptions{
		NumGPUs:             1,
		MaxBatch:            4,
		Speedup:             2000,
		Horizon:             10 * time.Second,
		LoadFactors:         []float64{4},
		MaxQueue:            8,
		SLO:                 15 * time.Second,
		RetryAttempts:       2,
		RetryWaitCap:        100 * time.Millisecond,
		Grace:               1500 * time.Millisecond,
		CalibrationRequests: 120,
		Seed:                5,
	}
}

// TestOverloadSmoke drives the full capstone path — calibration, live
// HTTP serving, 429 envelopes, client retries — and checks the
// structural outcomes that do not depend on wall-clock timing: the
// bounded queue holds its cap and rejects, the unbounded queue does
// neither, and the records carry the gateable retention metric.
func TestOverloadSmoke(t *testing.T) {
	points, err := Overload(smokeOverloadOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2 (off/on at one factor)", len(points))
	}
	off, on := points[0], points[1]
	if off.Shedding || !on.Shedding {
		t.Fatalf("point order wrong: %+v / %+v", off, on)
	}
	if off.Offered != on.Offered {
		t.Fatalf("off/on replayed different traces: %d vs %d offered", off.Offered, on.Offered)
	}
	if off.Completed == 0 || on.Completed == 0 {
		t.Fatalf("no completions: off %d, on %d", off.Completed, on.Completed)
	}
	// Both rows carry the offline sim of the factor's one trace.
	if off.SimQueuePeak <= 0 || off.SimP99 <= 0 {
		t.Fatalf("sim columns empty: queue peak %d, p99 %v", off.SimQueuePeak, off.SimP99)
	}
	if on.SimQueuePeak != off.SimQueuePeak || on.SimP99 != off.SimP99 {
		t.Fatalf("off/on rows carry different sims: %d/%v vs %d/%v",
			off.SimQueuePeak, off.SimP99, on.SimQueuePeak, on.SimP99)
	}
	// The unbounded legacy queue never refuses; at 4x it must outgrow
	// the cap the shedding run is held to.
	if off.HTTP429 != 0 {
		t.Fatalf("shedding-off answered %d 429s, want 0", off.HTTP429)
	}
	if off.QueuePeak <= on.QueuePeak {
		t.Fatalf("queue peaks: off %d must exceed on %d at 4x load", off.QueuePeak, on.QueuePeak)
	}
	// The bounded queue holds its cap (Overload errors otherwise, but
	// keep the witness visible here) and sheds load as 429s that the
	// clients retried.
	if on.QueuePeak > on.QueueCap {
		t.Fatalf("queue peak %d exceeds cap %d", on.QueuePeak, on.QueueCap)
	}
	if on.HTTP429 == 0 {
		t.Fatal("shedding-on at 4x answered no 429s")
	}
	if on.Retries == 0 {
		t.Fatal("clients never retried a 429")
	}
	if on.Rejected == 0 {
		t.Fatal("server admission counters never moved")
	}

	recs := OverloadReport(points).Records()
	var gain map[string]float64
	for _, r := range recs {
		if r.Name == "x4/shedding-gain" {
			gain = r.Metrics
		}
	}
	if gain == nil {
		t.Fatalf("no shedding-gain record in %d records", len(recs))
	}
	if gain["goodput_retention"] <= 0 {
		t.Fatalf("goodput_retention = %v, want > 0", gain["goodput_retention"])
	}

	if s := OverloadReport(points).Text(); s == "" {
		t.Fatal("empty table")
	}
	var buf bytes.Buffer
	if err := OverloadReport(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty CSV")
	}
}
