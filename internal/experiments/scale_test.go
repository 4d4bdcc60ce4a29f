package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestScaleCellRunsAndMeasures runs one small cell end to end and checks
// the harness's accounting: events counted, every drawn request finished,
// and the measurement fields populated.
func TestScaleCellRunsAndMeasures(t *testing.T) {
	o := DefaultScaleOptions()
	o.Seed = 7
	p, err := ScaleCell(o, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUs != 4 || p.Requests != 2000 {
		t.Fatalf("cell identity %d/%d", p.GPUs, p.Requests)
	}
	if p.Events <= 0 || p.EventsPerSec <= 0 {
		t.Fatalf("no events measured: %+v", p)
	}
	if p.Finished <= 0 || p.Throughput <= 0 || p.SimMakespan <= 0 {
		t.Fatalf("run did no simulated work: %+v", p)
	}
	var csvOut, jsonName strings.Builder
	if err := ScaleReport([]ScalePoint{p}).CSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "gpus,requests,cells,workers,cell,wall_seconds") {
		t.Fatalf("csv header: %q", csvOut.String()[:40])
	}
	recs := ScaleReport([]ScalePoint{p}).Records()
	if len(recs) != 1 || recs[0].Experiment != "scale" {
		t.Fatalf("records: %+v", recs)
	}
	jsonName.WriteString(recs[0].Name)
	if jsonName.String() != "4gpus/2000reqs" {
		t.Fatalf("record name %q", jsonName.String())
	}
	if _, ok := recs[0].Metrics["allocs_per_event"]; !ok {
		t.Fatal("record missing allocs_per_event")
	}
}

// TestScaleDeterministicSimulation pins that the simulated outcome of a
// cell is independent of wall-clock measurement: two runs of the same
// cell produce identical event counts and simulated results.
func TestScaleDeterministicSimulation(t *testing.T) {
	o := DefaultScaleOptions()
	o.Seed = 11
	a, err := ScaleCell(o, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleCell(o, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Finished != b.Finished ||
		a.SimMakespan != b.SimMakespan || a.Throughput != b.Throughput ||
		a.QueuePeak != b.QueuePeak {
		t.Fatalf("nondeterministic cell:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("digest mismatch: %q vs %q", a.Digest, b.Digest)
	}
}

// TestAutoCells: shard count derives from fleet size alone.
func TestAutoCells(t *testing.T) {
	for _, tc := range []struct{ gpus, want int }{
		{1, 1}, {16, 1}, {31, 1}, {32, 1}, {64, 2}, {256, 8}, {1024, 16}, {4096, 16},
	} {
		if got := autoCells(tc.gpus); got != tc.want {
			t.Fatalf("autoCells(%d) = %d, want %d", tc.gpus, got, tc.want)
		}
	}
}

// TestScaleShardedDigestInvariantAcrossWorkers is the harness-level
// determinism gate: the same sharded grid point run with 1 and 8
// workers must report identical event counts, digests and simulated
// metrics — -parallel may only change wall-clock time.
func TestScaleShardedDigestInvariantAcrossWorkers(t *testing.T) {
	o := DefaultScaleOptions()
	o.Seed = 5
	o.Cells = 4
	run := func(workers int) ScalePoint {
		o.Workers = workers
		p, err := ScaleCell(o, 8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq := run(1)
	if seq.Cells != 4 || len(seq.PerCell) != 4 {
		t.Fatalf("sharded point lost its cells: %+v", seq)
	}
	var cellEvents int64
	for _, d := range seq.PerCell {
		cellEvents += d.Events
	}
	if cellEvents != seq.Events {
		t.Fatalf("per-cell events %d don't sum to fleet events %d", cellEvents, seq.Events)
	}
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if par.Events != seq.Events || par.Digest != seq.Digest {
			t.Fatalf("workers=%d changed the simulation: events %d vs %d, digest %s vs %s",
				workers, par.Events, seq.Events, par.Digest, seq.Digest)
		}
		if par.Finished != seq.Finished || par.SimMakespan != seq.SimMakespan ||
			par.QueuePeak != seq.QueuePeak || par.Spills != seq.Spills {
			t.Fatalf("workers=%d changed metrics:\n  seq=%+v\n  par=%+v", workers, seq, par)
		}
	}
	// Per-cell rows land in the CSV with their own spill/stall columns.
	var out strings.Builder
	if err := ScaleReport([]ScalePoint{seq}).CSV(&out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1; lines != 1+1+4 {
		t.Fatalf("CSV rows = %d, want header + fleet + 4 cells:\n%s", lines, out.String())
	}
}

// TestScaleParallelSpeedup measures the acceptance ratio — 8 workers vs
// the sequential reference on a sharded fleet — and requires ≥4× only
// where the hardware can physically deliver it.
func TestScaleParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is long")
	}
	o := DefaultScaleOptions()
	o.Seed = 42
	o.Cells = 8
	run := func(workers int) ScalePoint {
		o.Workers = workers
		p, err := ScaleCell(o, 64, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq := run(1)
	par := run(8)
	if par.Digest != seq.Digest || par.Events != seq.Events {
		t.Fatalf("parallel run changed the simulation: %s/%d vs %s/%d",
			par.Digest, par.Events, seq.Digest, seq.Events)
	}
	speedup := seq.WallSeconds / par.WallSeconds
	t.Logf("speedup with 8 workers on %d CPUs: %.2fx (seq %.2fs, par %.2fs)",
		runtime.NumCPU(), speedup, seq.WallSeconds, par.WallSeconds)
	if runtime.NumCPU() < 8 {
		t.Skipf("need ≥8 CPUs to assert the 4x speedup target, have %d", runtime.NumCPU())
	}
	if speedup < 4 {
		t.Fatalf("speedup %.2fx < 4x with 8 workers on %d CPUs", speedup, runtime.NumCPU())
	}
}

// TestCompareBaseline: the regression gate flags only drops past the
// threshold and ignores baseline rows the current run didn't produce,
// but fails a run that shares no gated row with the baseline at all.
func TestCompareBaseline(t *testing.T) {
	rec := func(name string, eps float64) BenchRecord {
		return BenchRecord{Experiment: "scale", Name: name,
			Metrics: map[string]float64{"events_per_sec": eps}}
	}
	baseline := []BenchRecord{rec("a", 1000), rec("b", 1000), rec("gone", 1000)}
	current := []BenchRecord{rec("a", 850), rec("b", 700), rec("new", 10)}
	errs := CompareBaseline(baseline, current, "events_per_sec", 0.20)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "scale/b") {
		t.Fatalf("want exactly one regression on scale/b, got %v", errs)
	}
	if errs := CompareBaseline(baseline, current, "events_per_sec", 0.50); len(errs) != 0 {
		t.Fatalf("50%% threshold should pass, got %v", errs)
	}
	for _, tc := range []struct {
		why     string
		current []BenchRecord
		metric  string
	}{
		{"no row in common", []BenchRecord{rec("new", 10)}, "events_per_sec"},
		{"metric not in the baseline", current, "skew_ratio"},
	} {
		errs := CompareBaseline(baseline, tc.current, tc.metric, 0.20)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no row") {
			t.Errorf("%s: want one no-row failure, got %v", tc.why, errs)
		}
	}
}

// TestReadBenchJSONRoundTrip: the baseline file format reads back what
// the bench writer produced.
func TestReadBenchJSONRoundTrip(t *testing.T) {
	recs := []BenchRecord{{Experiment: "scale", Name: "16gpus/1000reqs",
		Metrics: map[string]float64{"events_per_sec": 123456}}}
	var buf strings.Builder
	if err := WriteBenchJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != recs[0].Name ||
		got[0].Metrics["events_per_sec"] != 123456 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}
