// Package hw catalogues the hardware the Punica paper evaluates on and
// provides the roofline arithmetic that converts FLOP and byte counts into
// simulated kernel latencies.
//
// The paper's two testbeds are (#1) a single NVIDIA A100 80GB and (#2) two
// HGX A100 40GB servers with NvSwitch (§7). Every figure in the evaluation
// is a function of compute-bound versus memory-bound behaviour on these
// parts, so faithful peak numbers plus calibrated efficiency derates are
// sufficient to reproduce the shapes.
package hw

import "time"

// GPUSpec describes one GPU model. All rates are in base SI units
// (FLOP/s, bytes/s, bytes).
type GPUSpec struct {
	// Name identifies the part, e.g. "NVIDIA A100-SXM4-80GB".
	Name string

	// PeakFP16 is the Tensor-Core FP16 peak in FLOP/s. The A100 white
	// paper and Fig. 7's top roofline both use 312 TFLOP/s.
	PeakFP16 float64

	// MemBandwidth is the peak HBM bandwidth in bytes/s. Fig. 7's
	// diagonal is 1.935 TB/s for the 80 GB part; the 40 GB SXM part is
	// 1.555 TB/s.
	MemBandwidth float64

	// MemBytes is the device memory capacity.
	MemBytes int64

	// KernelLaunch is the per-kernel launch overhead when the kernel is
	// enqueued inside a running model invocation (stream already hot).
	KernelLaunch time.Duration

	// MeasureSync is the extra per-kernel overhead observed in a
	// standalone microbenchmark (stream synchronisation, timing). This
	// is what puts the batch-1 floor of the Fig. 8 LoRA operator at
	// 37–42 µs even though its data movement is microseconds.
	MeasureSync time.Duration
}

// StepTime returns how long a kernel with the given work takes on the GPU:
// the larger of compute time and memory time (roofline), plus launch
// overhead. Efficiencies derate the respective peaks and must be in (0, 1].
func (g GPUSpec) StepTime(flop, bytes float64, computeEff, memEff float64) time.Duration {
	return g.Roofline(computeEff, memEff).Time(flop, bytes)
}

// Roofline is the GPU's roofline for one kernel class: the derated
// compute and memory rates, evaluated once so a cost model that prices
// the same kernel class every simulated step does not re-derive them.
type Roofline struct {
	Compute float64 // FLOP/s: PeakFP16 × compute efficiency
	Mem     float64 // bytes/s: MemBandwidth × memory efficiency
	Launch  time.Duration
}

// Roofline derates the GPU's peaks by the kernel class's efficiencies,
// which must be in (0, 1].
func (g GPUSpec) Roofline(computeEff, memEff float64) Roofline {
	if computeEff <= 0 || computeEff > 1 || memEff <= 0 || memEff > 1 {
		panic("hw: efficiency out of (0,1]")
	}
	return Roofline{
		Compute: g.PeakFP16 * computeEff,
		Mem:     g.MemBandwidth * memEff,
		Launch:  g.KernelLaunch,
	}
}

// Time returns how long a kernel with the given work takes: the larger
// of compute time and memory time (roofline), plus launch overhead.
func (r Roofline) Time(flop, bytes float64) time.Duration {
	tc := flop / r.Compute
	tm := bytes / r.Mem
	t := tc
	if tm > t {
		t = tm
	}
	return r.Launch + Seconds(t)
}

// A100 returns Testbed #1's GPU: A100-SXM4-80GB.
func A100() GPUSpec {
	return GPUSpec{
		Name:         "NVIDIA A100-SXM4-80GB",
		PeakFP16:     312e12,
		MemBandwidth: 1.935e12,
		MemBytes:     80 << 30,
		KernelLaunch: 1500 * time.Nanosecond,
		MeasureSync:  16 * time.Microsecond,
	}
}

// A100_40G returns Testbed #2's GPU: A100-SXM4-40GB (HGX).
func A100_40G() GPUSpec {
	return GPUSpec{
		Name:         "NVIDIA A100-SXM4-40GB",
		PeakFP16:     312e12,
		MemBandwidth: 1.555e12,
		MemBytes:     40 << 30,
		KernelLaunch: 1500 * time.Nanosecond,
		MeasureSync:  16 * time.Microsecond,
	}
}

// Link models a data-movement channel with a fixed per-transfer latency
// and a sustained bandwidth.
type Link struct {
	Name      string
	Bandwidth float64       // bytes/s sustained
	Latency   time.Duration // per-transfer fixed cost
}

// TransferTime returns the time to move n bytes across the link.
func (l Link) TransferTime(n int64) time.Duration {
	return l.Latency + Seconds(float64(n)/l.Bandwidth)
}

// PCIeGen4x16 is the host-to-device path used for on-demand LoRA weight
// loading (§5.2: "On PCIe Gen4 x16, it takes around 50µs to load a layer
// and 2ms to load the entire model"). 25 GB/s effective with a ~10 µs
// cudaMemcpyAsync issue latency lands a 7B rank-16 LoRA layer (~1 MB per
// projection group, ~2.4 MB per layer) at tens of microseconds and the
// 32-layer model at ~2 ms, matching the paper.
func PCIeGen4x16() Link {
	return Link{Name: "PCIe Gen4 x16", Bandwidth: 25e9, Latency: 10 * time.Microsecond}
}

// NvSwitch is the intra-server GPU interconnect on Testbed #2, used by the
// Megatron tensor-parallel all-reduce. 600 GB/s is the A100 NVLink3
// aggregate. The latency constant folds in the full per-collective cost at
// decode-sized payloads (NCCL launch, cross-rank synchronisation, and the
// kernel-gap stalls TP inference pays twice per layer); it is calibrated
// so a TP-8 70B decode step lands near vLLM's measured 457 tok/s at batch
// 32 (Fig. 12), i.e. ~70 ms per step, of which ~2/3 is collective time —
// consistent with profiles of Megatron-style decode.
func NvSwitch() Link {
	return Link{Name: "NVLink3/NvSwitch", Bandwidth: 600e9, Latency: 220 * time.Microsecond}
}

// AllReduceTime models a ring all-reduce of n bytes across world GPUs
// connected by l: each rank moves 2(world-1)/world of the payload, plus
// the link's fixed latency (NCCL small-message overhead dominates decode
// steps, where payloads are tens of kilobytes).
func AllReduceTime(l Link, n int64, world int) time.Duration {
	if world <= 1 {
		return 0
	}
	moved := 2 * float64(n) * float64(world-1) / float64(world)
	return l.Latency + Seconds(moved/l.Bandwidth)
}

// Seconds converts a floating-point second count into a time.Duration.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// FP16Bytes is the byte size of the 16-bit floating point data type used
// for all weights and activations in the paper's evaluation.
const FP16Bytes = 2
