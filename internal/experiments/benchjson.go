package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchRecord is one machine-readable benchmark result row: experiment
// identifier, a row label, and a flat metric map. punica-bench -json
// emits these so BENCH_*.json files can accumulate across runs and be
// diffed or plotted without scraping text tables.
type BenchRecord struct {
	Experiment string             `json:"experiment"`
	Name       string             `json:"name"`
	Metrics    map[string]float64 `json:"metrics"`
}

// WriteBenchJSON writes records as indented JSON.
func WriteBenchJSON(w io.Writer, recs []BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Results []BenchRecord `json:"results"`
	}{Results: recs})
}

// ReadBenchJSON parses a file WriteBenchJSON produced.
func ReadBenchJSON(r io.Reader) ([]BenchRecord, error) {
	var doc struct {
		Results []BenchRecord `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench json: %w", err)
	}
	return doc.Results, nil
}

// CompareBaseline checks current records against a committed baseline:
// for every (experiment, name) pair present in both, the named metric
// must not have dropped by more than threshold (a fraction: 0.20 = 20%).
// Baseline rows with no current counterpart are ignored — sweep grids
// may shrink in quick runs; a baseline metric of zero never gates. A
// check that compares no row at all fails, so a run never passes a gate
// it shares nothing with. Returns one error line per failure, nil when
// everything holds.
func CompareBaseline(baseline, current []BenchRecord, metric string, threshold float64) []error {
	base := make(map[string]float64, len(baseline))
	for _, r := range baseline {
		if v, ok := r.Metrics[metric]; ok && v > 0 {
			base[r.Experiment+"/"+r.Name] = v
		}
	}
	var errs []error
	compared := 0
	for _, r := range current {
		key := r.Experiment + "/" + r.Name
		want, ok := base[key]
		if !ok {
			continue
		}
		compared++
		got, ok := r.Metrics[metric]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: baseline has %s but current run lacks it", key, metric))
			continue
		}
		if got < want*(1-threshold) {
			errs = append(errs, fmt.Errorf("%s: %s regressed %.0f%%: baseline %.0f, current %.0f (threshold %.0f%%)",
				key, metric, 100*(1-got/want), want, got, 100*threshold))
		}
	}
	if compared == 0 {
		errs = append(errs, fmt.Errorf("%s: no row of the run has a baseline value to compare", metric))
	}
	return errs
}

// Fig11Records flattens a system-comparison table (fig11/fig12) into
// bench records, one per (distribution, system) bar.
func Fig11Records(experiment string, rows []Fig11Row) []BenchRecord {
	var recs []BenchRecord
	for _, r := range rows {
		recs = append(recs, BenchRecord{
			Experiment: experiment,
			Name:       fmt.Sprintf("%s/%s/%s", r.Model, r.Dist, r.System),
			Metrics: map[string]float64{
				"throughput_tok_s": r.Throughput,
				"wasted_decodes":   float64(r.Wasted),
			},
		})
	}
	return recs
}

// Fig13Records summarises the cluster-deployment run as one record.
func Fig13Records(r *Fig13Result) []BenchRecord {
	return []BenchRecord{{
		Experiment: "fig13",
		Name:       fmt.Sprintf("%dgpus/peak%.0f", r.Opts.NumGPUs, r.Opts.Peak),
		Metrics: map[string]float64{
			"throughput_tok_s": r.Throughput,
			"p50_ttft_s":       r.P50TTFT,
			"p99_ttft_s":       r.P99TTFT,
			"adapter_stalls":   float64(r.AdapterStalls),
			"evictions":        float64(r.Evictions),
			"migrations":       float64(r.Migrations),
			"finished":         float64(r.Finished),
			"requests":         float64(r.Requests),
		},
	}}
}

// PolicyRecords flattens the policy comparison, one record per
// (workload, policy) cell.
func PolicyRecords(points []PolicyComparePoint) []BenchRecord {
	var recs []BenchRecord
	for _, p := range points {
		recs = append(recs, BenchRecord{
			Experiment: "policies",
			Name:       fmt.Sprintf("%s/%s", p.Workload, p.Policy),
			Metrics: map[string]float64{
				"throughput_tok_s": p.Throughput,
				"busy_frac":        p.BusyFrac,
				"util_spread":      p.UtilSpread,
				"adapter_stalls":   float64(p.AdapterStalls),
				"adapter_evict":    float64(p.AdapterEvictions),
				"migrations":       float64(p.Migrations),
				"queue_peak":       float64(p.QueuePeak),
			},
		})
	}
	return recs
}

// FaultsRecords flattens the availability sweep, one record per
// (policy, fault-rate) cell.
func FaultsRecords(points []FaultsPoint) []BenchRecord {
	var recs []BenchRecord
	for _, p := range points {
		recs = append(recs, BenchRecord{
			Experiment: "faults",
			Name:       fmt.Sprintf("%s/%.0f-per-gpu-hour", p.Policy, p.FaultRate),
			Metrics: map[string]float64{
				"throughput_tok_s":          p.Throughput,
				"throughput_frac":           p.ThroughputFrac,
				"p50_ttft_s":                p.P50TTFT,
				"p99_ttft_s":                p.P99TTFT,
				"p99_ttft_delta_s":          p.P99TTFTDelta,
				"gpu_failures":              float64(p.Failures),
				"gpu_replacements":          float64(p.Replacements),
				"gpu_stalls":                float64(p.Stalls),
				"recovered_requests":        float64(p.Recovered),
				"recomputed_prefill_tokens": float64(p.RecomputedPrefillTokens),
				"recovery_p99_s":            p.RecoveryP99,
			},
		})
	}
	return recs
}
