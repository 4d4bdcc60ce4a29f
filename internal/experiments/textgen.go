package experiments

import (
	"fmt"

	"punica/internal/baselines"
	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

// TextGenOptions parameterises the §7.2 text-generation comparison.
type TextGenOptions struct {
	// NumRequests defaults to the paper's 1000.
	NumRequests int
	// Seed makes runs reproducible.
	Seed int64
}

func (o TextGenOptions) n() int {
	if o.NumRequests > 0 {
		return o.NumRequests
	}
	return 1000
}

// Fig11Row is one bar of Fig. 11: a system's generation throughput on one
// workload.
type Fig11Row struct {
	Model      string
	Dist       dist.Kind
	System     string
	Throughput float64 // generated tokens per second
	Wasted     int64
}

// Fig11 reproduces the single-GPU text-generation comparison: 1000
// ShareGPT-like requests, FCFS, max batch 32, five systems, four
// popularity distributions, on the 7B or 13B model (Testbed #1).
func Fig11(model models.Config, opts TextGenOptions) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, k := range dist.Kinds {
		for _, sys := range baselines.All() {
			res, err := runTextGen(model, sys, k, 1, opts)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s/%s: %w", sys.Name, k, err)
			}
			rows = append(rows, Fig11Row{
				Model:      model.Name,
				Dist:       k,
				System:     sys.Name,
				Throughput: res.Throughput,
				Wasted:     res.WastedDecodes,
			})
		}
	}
	return rows, nil
}

// Fig12 reproduces the 70B tensor-parallel comparison on Testbed #2
// (8×A100-40G, NvSwitch): vLLM backbone-only vs Punica.
func Fig12(opts TextGenOptions) ([]Fig11Row, error) {
	model := models.Llama2_70B()
	systems := []core.SystemConfig{baselines.VLLM(), core.PunicaSystem()}
	var rows []Fig11Row
	for _, k := range dist.Kinds {
		for _, sys := range systems {
			res, err := runTextGen70B(model, sys, k, opts)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s/%s: %w", sys.Name, k, err)
			}
			rows = append(rows, Fig11Row{
				Model:      model.Name,
				Dist:       k,
				System:     sys.Name,
				Throughput: res.Throughput,
			})
		}
	}
	return rows, nil
}

func runTextGen(model models.Config, sys core.SystemConfig, k dist.Kind, numGPUs int, opts TextGenOptions) (*cluster.Result, error) {
	gen := workload.NewGenerator(k, workload.ShareGPTLengths(), opts.Seed+int64(k)*1000+1)
	reqs := gen.Batch(opts.n())
	c := cluster.New(cluster.Config{
		NumGPUs: numGPUs,
		Engine: core.Config{
			System: sys,
			GPU:    hw.A100(),
			Model:  model,
			Rank:   models.DefaultLoRARank,
		},
	})
	return c.Run(reqs)
}

func runTextGen70B(model models.Config, sys core.SystemConfig, k dist.Kind, opts TextGenOptions) (*cluster.Result, error) {
	gen := workload.NewGenerator(k, workload.ShareGPTLengths(), opts.Seed+int64(k)*1000+1)
	reqs := gen.Batch(opts.n())
	c := cluster.New(cluster.Config{
		NumGPUs: 1, // one TP-8 group
		Engine: core.Config{
			System: sys,
			GPU:    hw.A100_40G(),
			Model:  model,
			Rank:   models.DefaultLoRARank,
			TP:     8,
		},
	})
	return c.Run(reqs)
}

// Fig11Report renders a system comparison (fig11 or fig12, named by
// experiment) under title as one pivoted text table over one CSV row and
// bench record per (distribution, system) bar.
func Fig11Report(experiment, title string, rows []Fig11Row) *Report {
	r := &Report{Experiment: experiment, Title: formatFig11(title, rows)}
	for _, row := range rows {
		r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("%s/%s/%s", row.Model, row.Dist, row.System), Cells: []Cell{
			{Name: "model", Value: row.Model},
			{Name: "dist", Value: row.Dist.String()},
			{Name: "system", Value: row.System},
			{Name: "throughput_tok_s", Value: row.Throughput},
			{Name: "wasted_decodes", Value: row.Wasted},
		}})
	}
	return r
}

// formatFig11 renders the throughput comparison as a table with systems
// as rows and distributions as columns.
func formatFig11(title string, rows []Fig11Row) string {
	t := newTable("system", "Distinct", "Uniform", "Skewed", "Identical")
	systems := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.System] {
			seen[r.System] = true
			systems = append(systems, r.System)
		}
	}
	for _, sys := range systems {
		row := []string{sys}
		for _, k := range dist.Kinds {
			for _, r := range rows {
				if r.System == sys && r.Dist == k {
					row = append(row, fmt.Sprintf("%.0f tok/s", r.Throughput))
				}
			}
		}
		t.add(row...)
	}
	return title + "\n" + t.String()
}

// HeadlineResult captures the paper's abstract-level claims: "Punica
// achieves 12x higher throughput ... while only adding 2ms latency per
// token".
type HeadlineResult struct {
	// MultiLoRASpeedup is Punica's worst-case multi-LoRA throughput
	// over the best baseline's on the same workloads (Distinct,
	// Uniform, Skewed).
	MultiLoRASpeedup float64
	// PunicaMinThroughput is Punica's lowest multi-LoRA throughput.
	PunicaMinThroughput float64
	// BestBaselineThroughput is the strongest baseline multi-LoRA
	// number.
	BestBaselineThroughput float64
	// AddedMsPerToken is the per-token latency Punica adds over the
	// backbone-only vLLM on the Identical workload.
	AddedMsPerToken float64
}

// Headline derives the abstract's claims from Fig. 11 rows (7B).
func Headline(rows []Fig11Row) HeadlineResult {
	var res HeadlineResult
	var vllmIdentical, punicaIdentical float64
	for _, r := range rows {
		multi := r.Dist != dist.Identical
		switch {
		case r.System == "Punica" && multi:
			if res.PunicaMinThroughput == 0 || r.Throughput < res.PunicaMinThroughput {
				res.PunicaMinThroughput = r.Throughput
			}
		case r.System != "Punica" && multi:
			if r.Throughput > res.BestBaselineThroughput {
				res.BestBaselineThroughput = r.Throughput
			}
		case r.System == "Punica" && !multi:
			punicaIdentical = r.Throughput
		case r.System == "vLLM (backbone-only)" && !multi:
			vllmIdentical = r.Throughput
		}
	}
	if res.BestBaselineThroughput > 0 {
		res.MultiLoRASpeedup = res.PunicaMinThroughput / res.BestBaselineThroughput
	}
	if punicaIdentical > 0 && vllmIdentical > 0 {
		// Per-token step time difference at max batch: batch/throughput.
		batch := float64(core.DefaultMaxBatch)
		res.AddedMsPerToken = (batch/punicaIdentical - batch/vllmIdentical) * 1000
	}
	return res
}

// FormatHeadline renders the headline claims.
func FormatHeadline(h HeadlineResult) string {
	return fmt.Sprintf(
		"Headline — multi-LoRA speedup: %.1fx (Punica %.0f tok/s vs best baseline %.0f tok/s)\n"+
			"Headline — added latency vs backbone-only serving: %.2f ms per token per step\n",
		h.MultiLoRASpeedup, h.PunicaMinThroughput, h.BestBaselineThroughput, h.AddedMsPerToken)
}
