package experiments

import (
	"fmt"
	"time"

	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/sgmv"
)

// microSegments builds the deterministic segment layout the SGMV
// microbenchmarks use for a popularity distribution at a batch size.
func microSegments(k dist.Kind, batch int) sgmv.Segments {
	return sgmv.NewSegments(dist.SegmentSizes(k, batch)...)
}

// Fig7Point is one roofline observation: arithmetic intensity vs achieved
// FLOP/s of the SGMV kernel (hi=16, ho=4096 — the §7.1 case study).
type Fig7Point struct {
	Dist          dist.Kind
	Batch         int
	Intensity     float64
	AchievedFLOPS float64
	Latency       time.Duration
}

// Fig7 reproduces the SGMV roofline study on Testbed #1 (A100-80G):
// batch sizes 1–64 under the four popularity distributions, measured as
// a standalone kernel.
func Fig7() []Fig7Point {
	cm := sgmv.CostModel{GPU: hw.A100(), Standalone: true}
	var points []Fig7Point
	for _, k := range dist.Kinds {
		for _, b := range Batches1to64 {
			op := sgmv.Op{HIn: 16, HOut: 4096, Seg: microSegments(k, b)}
			points = append(points, Fig7Point{
				Dist:          k,
				Batch:         b,
				Intensity:     op.Intensity(),
				AchievedFLOPS: cm.AchievedFLOPS(op),
				Latency:       cm.KernelTime(op),
			})
		}
	}
	return points
}

// Fig7Report renders the roofline points with the two A100 ceilings.
func Fig7Report(points []Fig7Point) *Report {
	r := &Report{Title: "Figure 7 — SGMV roofline (hi=16, ho=4096, A100: 1.935 TB/s, 312 TFLOP/s):"}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Cells: []Cell{
			{Name: "dist", Header: "dist", Value: p.Dist.String()},
			{Name: "batch", Header: "batch", Value: p.Batch},
			{Name: "intensity", Header: "FLOP:I/O", Format: "%.3f", Value: p.Intensity},
			{Name: "achieved_flops", Header: "achieved FLOP/s", Format: "%.3g", Value: p.AchievedFLOPS},
			{Name: "latency_us", Header: "latency", Format: "%.1fµs", Value: micros(p.Latency)},
		}})
	}
	return r
}

// Fig8Point compares LoRA operator implementations at one (distribution,
// batch) cell: rank 16, h=4096 (§7.1).
type Fig8Point struct {
	Dist      dist.Kind
	Batch     int
	Loop      time.Duration
	GatherBMM time.Duration
	Gather    time.Duration
	BMM       time.Duration
	SGMV      time.Duration
}

// Fig8 reproduces the LoRA operator microbenchmark.
func Fig8() []Fig8Point {
	cm := sgmv.CostModel{GPU: hw.A100(), Standalone: true}
	const h, r = 4096, 16
	var points []Fig8Point
	for _, k := range dist.Kinds {
		for _, b := range Batches1to64 {
			seg := microSegments(k, b)
			points = append(points, Fig8Point{
				Dist:      k,
				Batch:     b,
				Loop:      cm.LoopTime(h, r, h, seg),
				GatherBMM: cm.GatherBMMTime(h, r, h, seg),
				Gather:    cm.GatherTime(h, r, h, seg),
				BMM:       cm.BMMTime(h, r, h, seg),
				SGMV:      cm.OperatorTime(h, r, h, seg),
			})
		}
	}
	return points
}

// Fig8Report renders the comparison table.
func Fig8Report(points []Fig8Point) *Report {
	r := &Report{Title: "Figure 8 — LoRA operator implementations (rank 16, h=4096):"}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Cells: []Cell{
			{Name: "dist", Header: "dist", Value: p.Dist.String()},
			{Name: "batch", Header: "batch", Value: p.Batch},
			{Name: "loop_us", Header: "Loop", Format: "%.1fµs", Value: micros(p.Loop)},
			{Name: "gather_bmm_us", Header: "Gather-BMM", Format: "%.1fµs", Value: micros(p.GatherBMM)},
			{Name: "gather_us", Header: "Gather", Format: "%.1fµs", Value: micros(p.Gather)},
			{Name: "bmm_us", Header: "BMM", Format: "%.1fµs", Value: micros(p.BMM)},
			{Name: "sgmv_us", Header: "SGMV", Format: "%.1fµs", Value: micros(p.SGMV)},
		}})
	}
	return r
}

// Fig9Point is the SGMV operator latency at one (rank, distribution,
// batch) cell.
type Fig9Point struct {
	Rank    int
	Dist    dist.Kind
	Batch   int
	Latency time.Duration
}

// Fig9Ranks are the LoRA ranks the figure sweeps.
var Fig9Ranks = []int{8, 16, 32, 64}

// Fig9 reproduces the rank sweep of the SGMV operator.
func Fig9() []Fig9Point {
	cm := sgmv.CostModel{GPU: hw.A100(), Standalone: true}
	const h = 4096
	var points []Fig9Point
	for _, r := range Fig9Ranks {
		for _, k := range dist.Kinds {
			for _, b := range Batches1to64 {
				points = append(points, Fig9Point{
					Rank:    r,
					Dist:    k,
					Batch:   b,
					Latency: cm.OperatorTime(h, r, h, microSegments(k, b)),
				})
			}
		}
	}
	return points
}

// Fig9Report renders one pivoted text table per rank over one CSV row
// per point.
func Fig9Report(points []Fig9Point) *Report {
	r := &Report{Title: formatFig9(points)}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Cells: []Cell{
			{Name: "rank", Value: p.Rank},
			{Name: "dist", Value: p.Dist.String()},
			{Name: "batch", Value: p.Batch},
			{Name: "latency_us", Value: micros(p.Latency)},
		}})
	}
	return r
}

// formatFig9 renders one table per rank.
func formatFig9(points []Fig9Point) string {
	out := "Figure 9 — SGMV operator across LoRA ranks (h=4096):\n"
	for _, rank := range Fig9Ranks {
		t := newTable(append([]string{fmt.Sprintf("r=%d dist\\batch", rank)}, batch64Headers()...)...)
		for _, k := range dist.Kinds {
			row := []string{k.String()}
			for _, p := range points {
				if p.Rank == rank && p.Dist == k {
					row = append(row, us(p.Latency))
				}
			}
			t.add(row...)
		}
		out += t.String() + "\n"
	}
	return out
}

func batch64Headers() []string {
	var h []string
	for _, b := range Batches1to64 {
		h = append(h, fmt.Sprintf("b=%d", b))
	}
	return h
}
