package experiments

import (
	"fmt"
	"time"

	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/layer"
	"punica/internal/models"
	"punica/internal/sgmv"
)

// Fig10Point is the latency of one transformer layer with the LoRA addon
// for one (model, sequence length, distribution, batch) cell.
type Fig10Point struct {
	Model   string
	SeqLen  int
	Dist    dist.Kind
	Batch   int
	Latency time.Duration
}

// Fig10SeqLens are the context lengths the figure sweeps.
var Fig10SeqLens = []int{512, 2048}

// Fig10 reproduces the transformer-layer benchmark: a decode batch at the
// given context length with the batched LoRA addon, on the 7B and 13B
// configurations (Testbed #1).
func Fig10() []Fig10Point {
	var points []Fig10Point
	for _, cfg := range []models.Config{models.Llama2_7B(), models.Llama2_13B()} {
		costs := layer.New(hw.A100(), cfg)
		for _, seqLen := range Fig10SeqLens {
			for _, k := range dist.Kinds {
				for _, batch := range Batches1to32 {
					contexts := make([]int, batch)
					for i := range contexts {
						contexts[i] = seqLen
					}
					inv := layer.Invocation{
						DecodeContexts: contexts,
						LoRASegments:   sgmv.NewSegments(dist.SegmentSizes(k, batch)...),
						LoRARank:       models.DefaultLoRARank,
					}
					points = append(points, Fig10Point{
						Model:   cfg.Name,
						SeqLen:  seqLen,
						Dist:    k,
						Batch:   batch,
						Latency: costs.LayerTime(inv),
					})
				}
			}
		}
	}
	return points
}

// Fig10Report renders one pivoted text table per (model, length) panel
// over one CSV row per point.
func Fig10Report(points []Fig10Point) *Report {
	r := &Report{Title: formatFig10(points)}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Cells: []Cell{
			{Name: "model", Value: p.Model},
			{Name: "seq_len", Value: p.SeqLen},
			{Name: "dist", Value: p.Dist.String()},
			{Name: "batch", Value: p.Batch},
			{Name: "latency_us", Value: micros(p.Latency)},
		}})
	}
	return r
}

// formatFig10 renders one table per (model, length) panel.
func formatFig10(points []Fig10Point) string {
	out := "Figure 10 — Transformer layer latency (decode, LoRA rank 16):\n"
	for _, cfg := range []string{"llama-2-7b", "llama-2-13b"} {
		for _, seqLen := range Fig10SeqLens {
			t := newTable(append([]string{fmt.Sprintf("%s len=%d", cfg, seqLen)}, batchHeaders()...)...)
			for _, k := range dist.Kinds {
				row := []string{k.String()}
				for _, p := range points {
					if p.Model == cfg && p.SeqLen == seqLen && p.Dist == k {
						row = append(row, us(p.Latency))
					}
				}
				t.add(row...)
			}
			out += t.String() + "\n"
		}
	}
	return out
}
