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
