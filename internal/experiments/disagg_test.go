package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// smallDisaggOptions shrinks the sweep to seconds of test time while
// keeping the prefill-heavy regime.
func smallDisaggOptions() DisaggOptions {
	o := DefaultDisaggOptions()
	o.NumGPUs = 4
	o.PrefillGPUs = 1
	o.Rate = 10
	o.Horizon = 40 * time.Second
	o.Seed = 42
	return o
}

// TestDisaggregationReducesDecodeTail is the experiment's acceptance
// check: at equal GPU count under the prefill-heavy mix, disaggregated
// mode strictly reduces decode p99 (inter-token tail latency) on at
// least one paper distribution — in practice all four — without
// collapsing throughput.
func TestDisaggregationReducesDecodeTail(t *testing.T) {
	points, err := Disaggregation(smallDisaggOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d points, want 4 distributions x 2 modes", len(points))
	}
	wins := 0
	for i := 0; i < len(points); i += 2 {
		uni, dis := points[i], points[i+1]
		if uni.Workload != dis.Workload || uni.Mode != "unified" || dis.Mode == "unified" {
			t.Fatalf("pairing broken: %+v / %+v", uni, dis)
		}
		if dis.DecodeP99 < uni.DecodeP99 {
			wins++
		}
		if dis.Throughput < 0.8*uni.Throughput {
			t.Fatalf("%s: disaggregation collapsed throughput %.0f -> %.0f",
				uni.Workload, uni.Throughput, dis.Throughput)
		}
		if dis.KVMigrations == 0 {
			t.Fatalf("%s: split mode performed no KV migrations", dis.Workload)
		}
		if uni.KVMigrations != 0 {
			t.Fatalf("%s: unified mode migrated KV", uni.Workload)
		}
		if dis.PrefillUtil == 0 || dis.DecodeUtil == 0 {
			t.Fatalf("%s: pool utilization missing: %+v", dis.Workload, dis)
		}
	}
	if wins == 0 {
		t.Fatal("disaggregation reduced decode p99 on no distribution")
	}
}

func TestDisaggregationCSVAndFormat(t *testing.T) {
	points := []DisaggPoint{{
		Workload: "Skewed", Mode: "2p+6d",
		Throughput: 500, Finished: 100,
		DecodeP50: 0.015, DecodeP99: 0.034,
		P50TTFT: 0.1, P99TTFT: 0.4,
		PrefillUtil: 0.5, DecodeUtil: 0.3,
		KVMigrations: 99, KVMigratedMB: 1234.5, Fallbacks: 1,
		AdapterPrefetches: 98, QueuePeak: 7,
	}}
	var buf bytes.Buffer
	if err := DisaggReport(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"prefill_util", "decode_util", "decode_p99_s", "kv_migrations", "Skewed,2p+6d"} {
		if !strings.Contains(got, want) {
			t.Fatalf("CSV missing %q:\n%s", want, got)
		}
	}
	text := DisaggReport(points).Text()
	if !strings.Contains(text, "2p+6d") || !strings.Contains(text, "decode p99") {
		t.Fatalf("format output unexpected:\n%s", text)
	}
	recs := DisaggReport(points).Records()
	if len(recs) != 1 || recs[0].Experiment != "disagg" || recs[0].Metrics["decode_p99_s"] != 0.034 {
		t.Fatalf("records = %+v", recs)
	}
}
