package sgmv

import (
	"time"

	"punica/internal/hw"
)

// Op describes one SGMV kernel launch for cost purposes: a segmented
// matmul from hIn features to hOut features over the given segments.
// Shrink kernels have hOut = rank; expand kernels have hIn = rank.
type Op struct {
	HIn, HOut int
	Seg       Segments
}

// FLOP returns the floating-point operation count from §7.1:
// FLOP = sn × hi × ho × 2.
func (op Op) FLOP() float64 {
	return float64(op.Seg.Total()) * float64(op.HIn) * float64(op.HOut) * 2
}

// IOBytes returns the memory traffic from §7.1:
// I/O = [sn × (hi + ho) + n × hi × ho] × 2 bytes,
// i.e. activations in and out plus one read of each distinct model's
// weight, in 16-bit floats.
func (op Op) IOBytes() float64 {
	sn := float64(op.Seg.Total())
	n := float64(op.Seg.N())
	hi, ho := float64(op.HIn), float64(op.HOut)
	return (sn*(hi+ho) + n*hi*ho) * hw.FP16Bytes
}

// Intensity returns the arithmetic intensity FLOP : I/O, the x-axis of
// the Fig. 7 roofline.
func (op Op) Intensity() float64 { return op.FLOP() / op.IOBytes() }

// CostModel converts SGMV and baseline operator invocations into simulated
// latencies on a GPU. Standalone selects the microbenchmark setting of
// Fig. 7–9, where every kernel additionally pays a stream-synchronisation
// cost; inside a model invocation (Fig. 10 onwards) kernels are enqueued
// back to back and only pay the launch overhead.
type CostModel struct {
	GPU        hw.GPUSpec
	Standalone bool
}

// NewCostModel returns a cost model for the given GPU in in-model (non
// standalone) mode.
func NewCostModel(gpu hw.GPUSpec) CostModel { return CostModel{GPU: gpu} }

// Rates is a CostModel with its derated rates and per-kernel overhead
// evaluated once: the form a model that prices SGMV launches every
// simulated step holds. CostModel's KernelTime, OperatorTime and LoopTime
// evaluate through it, so each formula has one implementation.
type Rates struct {
	compute  float64       // PeakFP16 × EffSGMVCompute
	gather   float64       // MemBandwidth × EffSGMVGather
	stream   float64       // MemBandwidth × EffGEMMMem
	bmm      float64       // MemBandwidth × EffTorchBMM
	overhead time.Duration // launch, plus stream sync when standalone
}

// Rates evaluates the model's invocation-independent constants.
func (c CostModel) Rates() Rates {
	o := c.GPU.KernelLaunch
	if c.Standalone {
		o += c.GPU.MeasureSync
	}
	return Rates{
		compute:  c.GPU.PeakFP16 * hw.EffSGMVCompute,
		gather:   c.GPU.MemBandwidth * hw.EffSGMVGather,
		stream:   c.GPU.MemBandwidth * hw.EffGEMMMem,
		bmm:      c.GPU.MemBandwidth * hw.EffTorchBMM,
		overhead: o,
	}
}

// KernelTime returns the latency of one SGMV kernel launch. The model is
// a roofline over the §7.1 FLOP/IO counts with calibrated derates, plus a
// per-segment scheduling cost: weights are gathered at hw.EffSGMVGather of
// peak bandwidth, activations stream at hw.EffGEMMMem, and each distinct
// LoRA index pays hw.SGMVSegmentOverhead (threadblock dispatch on
// blockIdx.y, Fig. 4).
func (c CostModel) KernelTime(op Op) time.Duration {
	k := c.Rates()
	return k.KernelTime(op)
}

// KernelTime is CostModel.KernelTime at the precomputed rates.
func (k *Rates) KernelTime(op Op) time.Duration {
	if op.Seg.N() == 0 {
		return 0
	}
	sn := float64(op.Seg.Total())
	n := float64(op.Seg.N())
	hi, ho := float64(op.HIn), float64(op.HOut)

	compute := op.FLOP() / k.compute
	weightBytes := n * hi * ho * hw.FP16Bytes
	actBytes := sn * (hi + ho) * hw.FP16Bytes
	mem := weightBytes/k.gather + actBytes/k.stream

	work := compute
	if mem > work {
		work = mem
	}
	segCost := time.Duration(op.Seg.N()) * hw.SGMVSegmentOverhead
	return k.overhead + segCost + hw.Seconds(work)
}

// OperatorTime returns the latency of the full batched LoRA addon for one
// projection (hIn → rank → hOut): two SGMV launches (shrink then expand).
func (c CostModel) OperatorTime(hIn, rank, hOut int, seg Segments) time.Duration {
	k := c.Rates()
	return k.OperatorTime(hIn, rank, hOut, seg)
}

// OperatorTime is CostModel.OperatorTime at the precomputed rates.
func (k *Rates) OperatorTime(hIn, rank, hOut int, seg Segments) time.Duration {
	shrink := k.KernelTime(Op{HIn: hIn, HOut: rank, Seg: seg})
	expand := k.KernelTime(Op{HIn: rank, HOut: hOut, Seg: seg})
	return shrink + expand
}

// LoopTime models the for-loop PyTorch baseline: each segment issues two
// eager matmuls, each paying the framework's per-op dispatch overhead.
// With n distinct models this is n × 2 dispatches — the cost that makes
// Loop "behave terribly" in the Distinct workload (Fig. 8a).
func (c CostModel) LoopTime(hIn, rank, hOut int, seg Segments) time.Duration {
	k := c.Rates()
	return k.LoopTime(hIn, rank, hOut, seg)
}

// LoopTime is CostModel.LoopTime at the precomputed rates.
func (k *Rates) LoopTime(hIn, rank, hOut int, seg Segments) time.Duration {
	var total time.Duration
	for i := 0; i < seg.N(); i++ {
		rows := float64(seg.Len(i))
		// x@A: read x rows + A, write v rows.
		b1 := (rows*float64(hIn) + float64(hIn*rank) + rows*float64(rank)) * hw.FP16Bytes
		// v@B: read v rows + B, write y rows.
		b2 := (rows*float64(rank) + float64(rank*hOut) + rows*float64(hOut)) * hw.FP16Bytes
		total += 2*hw.TorchOpOverhead +
			hw.Seconds((b1+b2)/k.bmm)
	}
	return total
}

// GatherTime models the two torch gather launches that stack per-row
// copies of A and B: reading n distinct weights and writing sn copies
// ("Gather reads in n×hi×ho elements and writes to sn×hi×ho", §7.1).
func (c CostModel) GatherTime(hIn, rank, hOut int, seg Segments) time.Duration {
	sn := float64(seg.Total())
	n := float64(seg.N())
	aBytes := (n + sn) * float64(hIn*rank) * hw.FP16Bytes
	bBytes := (n + sn) * float64(rank*hOut) * hw.FP16Bytes
	t := 2 * hw.TorchOpOverhead
	t += hw.Seconds((aBytes + bBytes) / (c.GPU.MemBandwidth * hw.EffTorchGather))
	return t
}

// BMMTime models the two torch.bmm launches over the gathered stacks:
// each must re-read the sn per-row weight copies Gather just wrote —
// the sn×hi×ho×2 extra traffic §7.1 charges Gather-BMM with.
func (c CostModel) BMMTime(hIn, rank, hOut int, seg Segments) time.Duration {
	sn := float64(seg.Total())
	b1 := sn * (float64(hIn*rank) + float64(hIn) + float64(rank)) * hw.FP16Bytes
	b2 := sn * (float64(rank*hOut) + float64(rank) + float64(hOut)) * hw.FP16Bytes
	t := 2 * hw.TorchOpOverhead
	t += hw.Seconds((b1 + b2) / (c.GPU.MemBandwidth * hw.EffTorchBMM))
	return t
}

// GatherBMMTime is the full Gather-BMM baseline: Gather twice plus BMM
// twice (§7.1).
func (c CostModel) GatherBMMTime(hIn, rank, hOut int, seg Segments) time.Duration {
	return c.GatherTime(hIn, rank, hOut, seg) + c.BMMTime(hIn, rank, hOut, seg)
}

// AchievedFLOPS returns the throughput (FLOP/s) the cost model predicts
// for one kernel: the y-axis of the Fig. 7 roofline plot.
func (c CostModel) AchievedFLOPS(op Op) float64 {
	t := c.KernelTime(op).Seconds()
	if t == 0 {
		return 0
	}
	return op.FLOP() / t
}
