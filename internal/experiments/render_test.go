package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// overloadFixture is a fixed overload sweep: two load factors, shedding
// off then on. overload runs in wall time, so punica-bench's goldens
// cannot pin its output; these points can.
func overloadFixture() []OverloadPoint {
	return []OverloadPoint{
		{Factor: 1, OfferedRate: 21.971, Offered: 1318, Completed: 1301, SLOMet: 1288, Goodput: 1288.0 / 1318,
			P50: 1.2345, P99: 4.5678, QueuePeak: 19, SimQueuePeak: 20, SimP99: 4.1234,
			Retries: 3, RetrySucceeded: 3},
		{Factor: 1, Shedding: true, OfferedRate: 21.971, Offered: 1318, Completed: 1299, SLOMet: 1290, Goodput: 1290.0 / 1318,
			P50: 1.2, P99: 4.25, QueuePeak: 18, QueueCap: 64, SimQueuePeak: 20, SimP99: 4.1234,
			HTTP429: 2, Rejected: 2, Retries: 2, RetrySucceeded: 2},
		{Factor: 2.5, OfferedRate: 54.9275, Offered: 3296, Completed: 2210, SLOMet: 402, Goodput: 402.0 / 3296,
			P50: 38.75, P99: 91.0625, QueuePeak: 306, SimQueuePeak: 288, SimP99: 88.5},
		{Factor: 2.5, Shedding: true, OfferedRate: 54.9275, Offered: 3296, Completed: 1904, SLOMet: 1650, Goodput: 1650.0 / 3296,
			P50: 2.5, P99: 6.125, QueuePeak: 64, QueueCap: 64, SimQueuePeak: 288, SimP99: 88.5,
			HTTP429: 1712, Rejected: 1390, Shed: 322, Retries: 2940, RetrySucceeded: 318},
	}
}

// scaleFixture is a fixed scale sweep: one single-cell point and one
// sharded point with its per-cell rows. Its wall-time columns keep
// punica-bench's goldens to the scale CSV's event counts and digests.
func scaleFixture() []ScalePoint {
	return []ScalePoint{
		{GPUs: 16, Requests: 10000, WallSeconds: 0.4321, Events: 20409, EventsPerSec: 47232.1,
			AllocsPerEvent: 2.375, BytesPerEvent: 301.5, SimMakespan: 312*time.Second + 250*time.Millisecond,
			Finished: 10011, Throughput: 256.75, QueuePeak: 7, Cells: 1, Workers: 1,
			Digest: "e40a4b615fc92495"},
		{GPUs: 64, Requests: 10000, WallSeconds: 0.625, Events: 20337, EventsPerSec: 32539.2,
			AllocsPerEvent: 2.5, BytesPerEvent: 288.25, SimMakespan: 78*time.Second + 500*time.Millisecond,
			Finished: 10006, Throughput: 1024.5, QueuePeak: 3, Cells: 2, Workers: 1,
			Epochs: 412, BarrierStalls: 9, Spills: 17, Digest: "d40027c4c5455505",
			PerCell: []ScaleCellDetail{
				{Cell: 0, GPUs: 32, Requests: 4282, Events: 8720, EventsPerSec: 13952, SpillsIn: 8, SpillsOut: 9, BarrierStalls: 4},
				{Cell: 1, GPUs: 32, Requests: 5724, Events: 11617, EventsPerSec: 18587.2, SpillsIn: 9, SpillsOut: 8, BarrierStalls: 5},
			}},
	}
}

// TestRenderGoldens pins the text, CSV and bench records of the two
// wall-time experiments, overload and scale, on fixed points. Run with
// -update to rewrite testdata/ after an intended output change.
func TestRenderGoldens(t *testing.T) {
	for _, tc := range []struct {
		name   string
		report *Report
	}{
		{"overload", OverloadReport(overloadFixture())},
		{"scale", ScaleReport(scaleFixture())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var csv, json bytes.Buffer
			if err := tc.report.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := WriteBenchJSON(&json, tc.report.Records()); err != nil {
				t.Fatal(err)
			}
			golden(t, tc.name+".txt", []byte(tc.report.Text()))
			golden(t, tc.name+".csv", csv.Bytes())
			golden(t, tc.name+".json", json.Bytes())
		})
	}
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		t.Errorf("%s differs from its golden at line %d; go test ./internal/experiments -run TestRenderGoldens -update rewrites it\nwant %q\n got %q",
			name, i+1, lineAt(w, i), lineAt(g, i))
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of file)"
}
