package experiments

import (
	"fmt"
	"time"

	"punica/internal/hw"
	"punica/internal/layer"
	"punica/internal/models"
)

// Fig1Point is one cell of Fig. 1: prefill and decode latency of the 7B
// model at a given sequence length and batch size.
type Fig1Point struct {
	SeqLen  int
	Batch   int
	Prefill time.Duration
	Decode  time.Duration
}

// Fig1SeqLens are the sequence lengths the figure sweeps.
var Fig1SeqLens = []int{128, 512, 1024, 1536, 2048}

// Fig1 reproduces "Batching effects in Prefill stage and in Decode
// stage": for each (sequence length, batch size), the latency of a
// batched prefill invocation over batch prompts of that length, and of a
// decode invocation over batch sequences at that context length.
func Fig1(gpu hw.GPUSpec, model models.Config) []Fig1Point {
	costs := layer.New(gpu, model)
	var points []Fig1Point
	for _, seqLen := range Fig1SeqLens {
		for _, batch := range Batches1to32 {
			prefillLens := make([]int, batch)
			contexts := make([]int, batch)
			for i := 0; i < batch; i++ {
				prefillLens[i] = seqLen
				contexts[i] = seqLen
			}
			points = append(points, Fig1Point{
				SeqLen:  seqLen,
				Batch:   batch,
				Prefill: costs.InvokeTime(layer.Invocation{PrefillLens: prefillLens}),
				Decode:  costs.InvokeTime(layer.Invocation{DecodeContexts: contexts}),
			})
		}
	}
	return points
}

// Fig1Report renders the sweep: two pivoted text tables over one CSV row
// per point.
func Fig1Report(points []Fig1Point) *Report {
	r := &Report{Title: formatFig1(points)}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Cells: []Cell{
			{Name: "seq_len", Value: p.SeqLen},
			{Name: "batch", Value: p.Batch},
			{Name: "prefill_us", Value: micros(p.Prefill)},
			{Name: "decode_us", Value: micros(p.Decode)},
		}})
	}
	return r
}

// formatFig1 renders the sweep as two text tables.
func formatFig1(points []Fig1Point) string {
	prefill := newTable(append([]string{"len\\batch"}, batchHeaders()...)...)
	decode := newTable(append([]string{"len\\batch"}, batchHeaders()...)...)
	for _, seqLen := range Fig1SeqLens {
		prow := []string{fmt.Sprint(seqLen)}
		drow := []string{fmt.Sprint(seqLen)}
		for _, p := range points {
			if p.SeqLen != seqLen {
				continue
			}
			prow = append(prow, ms(p.Prefill))
			drow = append(drow, ms(p.Decode))
		}
		prefill.add(prow...)
		decode.add(drow...)
	}
	return "Figure 1 — Prefill latency (7B):\n" + prefill.String() +
		"\nFigure 1 — Decode latency (7B):\n" + decode.String()
}

func batchHeaders() []string {
	var h []string
	for _, b := range Batches1to32 {
		h = append(h, fmt.Sprintf("b=%d", b))
	}
	return h
}
