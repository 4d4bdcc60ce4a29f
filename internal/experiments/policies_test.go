package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"punica/internal/sched"
)

// comparePoints runs the 18-cluster-run head-to-head once per test
// binary; the tests that share it assert different cells.
var comparePointsOnce = sync.OnceValues(func() ([]PolicyComparePoint, error) {
	opts := DefaultPolicyCompareOptions()
	opts.Horizon = 45 * time.Second
	return ComparePolicies(opts)
})

func comparePoints(t *testing.T) []PolicyComparePoint {
	t.Helper()
	points, err := comparePointsOnce()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func pointFor(t *testing.T, points []PolicyComparePoint, workload, policy string) PolicyComparePoint {
	t.Helper()
	for _, p := range points {
		if p.Workload == workload && p.Policy == policy {
			return p
		}
	}
	t.Fatalf("no point for %s/%s", workload, policy)
	return PolicyComparePoint{}
}

// TestPolicyComparisonAffinityWinsOnSkewed is the PR's acceptance
// criterion: under adapter-store pressure on the Skewed distribution,
// AdapterAffinity strictly reduces AdapterStalls + AdapterEvictions
// versus the paper's §5.1 placement.
func TestPolicyComparisonAffinityWinsOnSkewed(t *testing.T) {
	points := comparePoints(t)
	if want := 6 * len(sched.PolicyNames); len(points) != want {
		t.Fatalf("got %d points, want %d (6 workloads × %d policies)", len(points), want, len(sched.PolicyNames))
	}
	paper := pointFor(t, points, "Skewed", sched.PolicyPaper)
	affinity := pointFor(t, points, "Skewed", sched.PolicyAdapterAffinity)
	if paper.AdapterStalls+paper.AdapterEvictions == 0 {
		t.Fatal("scenario has no adapter-store pressure; the comparison is vacuous")
	}
	p := paper.AdapterStalls + paper.AdapterEvictions
	a := affinity.AdapterStalls + affinity.AdapterEvictions
	if a >= p {
		t.Fatalf("affinity stalls+evictions = %d, want strictly below paper's %d", a, p)
	}
	// Locality must not cost completed work.
	if affinity.Finished != paper.Finished {
		t.Fatalf("affinity finished %d of the trace, paper %d", affinity.Finished, paper.Finished)
	}
}

// TestPolicyComparisonDriftFavorsAffinity checks the rotating-hot-set
// extension workload: when the popular adapters change mid-run, warm
// routing sheds most of the §5.2 eviction churn.
func TestPolicyComparisonDriftFavorsAffinity(t *testing.T) {
	points := comparePoints(t)
	paper := pointFor(t, points, "ZipfDrift", sched.PolicyPaper)
	affinity := pointFor(t, points, "ZipfDrift", sched.PolicyAdapterAffinity)
	if affinity.AdapterEvictions >= paper.AdapterEvictions {
		t.Fatalf("drift evictions: affinity %d, want below paper's %d",
			affinity.AdapterEvictions, paper.AdapterEvictions)
	}
}

func TestPolicyCompareCSVAndFormat(t *testing.T) {
	points := []PolicyComparePoint{{
		Workload: "Skewed", Policy: "affinity",
		Throughput: 123.4, BusyFrac: 0.25, UtilSpread: 0.1,
		AdapterStalls: 2, AdapterEvictions: 3, Migrations: 4, QueuePeak: 5,
	}}
	var buf bytes.Buffer
	if err := PoliciesReport(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "workload,policy,throughput_tok_s,busy_frac,util_spread,adapter_stalls,adapter_evictions,migrations,queue_peak") {
		t.Fatalf("missing header: %q", got)
	}
	if !strings.Contains(got, "Skewed,affinity,123.4,0.25,0.1,2,3,4,5") {
		t.Fatalf("missing row: %q", got)
	}
	if text := PoliciesReport(points).Text(); !strings.Contains(text, "Skewed") || !strings.Contains(text, "affinity") {
		t.Fatalf("format output missing cells: %q", text)
	}
}
