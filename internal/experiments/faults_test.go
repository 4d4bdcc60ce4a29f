package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"punica/internal/sched"
)

// testFaultsOptions shrinks the sweep so the test runs in well under a
// second while still injecting real failures.
func testFaultsOptions() FaultsOptions {
	return FaultsOptions{
		NumGPUs:    4,
		Rate:       6,
		Horizon:    30 * time.Second,
		Seed:       42,
		Policies:   []string{sched.PolicyPaper},
		FaultRates: []float64{0, 240},
	}
}

// TestFaultsSweep: the availability experiment completes every request
// in every cell, injects real failures at nonzero rates, anchors the
// baseline at frac 1.0, and degrades throughput no more than
// catastrophically (sanity bounds, not golden values).
func TestFaultsSweep(t *testing.T) {
	points, err := Faults(testFaultsOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	base, chaos := points[0], points[1]
	if base.FaultRate != 0 || base.ThroughputFrac != 1.0 || base.Failures != 0 {
		t.Fatalf("baseline malformed: %+v", base)
	}
	if chaos.Failures+chaos.Stalls == 0 {
		t.Fatalf("nonzero fault rate injected nothing: %+v", chaos)
	}
	if chaos.Finished != base.Finished {
		t.Fatalf("chaos cell finished %d, baseline %d — requests were lost",
			chaos.Finished, base.Finished)
	}
	if chaos.ThroughputFrac <= 0 || chaos.ThroughputFrac > 1.5 {
		t.Fatalf("throughput frac %v out of sanity bounds", chaos.ThroughputFrac)
	}
	if chaos.Recovered > 0 && chaos.RecoveryP99 < 0 {
		t.Fatalf("negative recovery latency: %+v", chaos)
	}

	// Determinism: the sweep is a pure function of its options.
	again, err := Faults(testFaultsOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i] != again[i] {
			t.Fatalf("sweep nondeterministic at %d:\n%+v\n%+v", i, points[i], again[i])
		}
	}

	// Render paths.
	text := FaultsReport(points).Text()
	if !strings.Contains(text, "paper") || !strings.Contains(text, "vs base") {
		t.Fatalf("format output malformed:\n%s", text)
	}
	var buf bytes.Buffer
	if err := FaultsReport(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "policy,faults_per_gpu_hour") {
		t.Fatalf("CSV header malformed: %s", lines[0])
	}
}
