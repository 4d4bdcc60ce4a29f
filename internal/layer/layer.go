// Package layer models the latency of transformer model invocations on
// the simulated GPU: dense projections, self-attention in prefill and
// decode form, LayerNorms, the LoRA addon via SGMV, Megatron-style tensor
// parallelism, and the host-side driver overhead.
//
// It reproduces the measured behaviours the paper builds on:
//
//   - Decode is memory-bound on weight streaming, so batching is nearly
//     free until the KvCache traffic catches up (Fig. 1 right).
//   - Prefill is compute-bound, so latency is proportional to batch size
//     (Fig. 1 left).
//   - The LoRA addon is small relative to the backbone, so layer latency
//     is LoRA-popularity-agnostic (Fig. 10).
package layer

import (
	"time"

	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/sgmv"
)

// Invocation describes one batched model invocation: Punica runs "batch
// requests of prefill and decode stages in a single model invocation"
// (§5). PrefillLens are the prompt lengths entering prefill;
// DecodeContexts are the current context lengths of decode requests (each
// contributes one new token).
type Invocation struct {
	PrefillLens    []int
	DecodeContexts []int

	// LoRASegments groups the invocation's tokens by LoRA model for the
	// SGMV addon; a zero value means backbone-only (no LoRA).
	LoRASegments sgmv.Segments
	// LoRARank is the adapter rank (ignored when LoRASegments is empty).
	LoRARank int
}

// TotalTokens returns the number of token positions the dense projections
// process: all prefill tokens plus one per decode request.
func (inv Invocation) TotalTokens() int {
	n := len(inv.DecodeContexts)
	for _, l := range inv.PrefillLens {
		n += l
	}
	return n
}

// BatchSize returns the number of requests in the invocation.
func (inv Invocation) BatchSize() int {
	return len(inv.PrefillLens) + len(inv.DecodeContexts)
}

// HasLoRA reports whether the invocation carries a LoRA addon.
func (inv Invocation) HasLoRA() bool { return inv.LoRASegments.N() > 0 }

// Costs converts invocations into simulated latencies for one model on
// one GPU (or a tensor-parallel group). The feature flags encode what
// distinguishes the baseline systems in §7:
//
//   - FlashAttention: fused attention (Punica via FlashInfer, DeepSpeed,
//     FasterTransformer, vLLM). Off for HuggingFace Transformers, which
//     materialises attention scores.
//   - FusedNorm: the §6 fused LayerNorm (110 µs → 4 µs).
//   - KVConcat: HuggingFace's layout concatenates the whole KvCache every
//     decode step (reads it all and writes a new copy, §5.4).
type Costs struct {
	GPU   hw.GPUSpec
	Model models.Config

	// TP is the tensor-parallel world size (1 = single GPU). Weights,
	// attention heads and LoRA weights are sharded TP ways; each layer
	// pays two all-reduces over Interconnect (Megatron scheme, §7.2).
	TP           int
	Interconnect hw.Link

	FlashAttention bool
	FusedNorm      bool
	KVConcat       bool

	// LoRAImpl selects how the LoRA addon is computed when an
	// invocation carries segments: Punica's SGMV kernel or the eager
	// per-model loop that PEFT-style stacks use.
	LoRAImpl LoRAImpl

	// WeightPrecision quantizes the backbone weights (§8: orthogonal
	// optimisation; smaller weights stream faster and free HBM for
	// KvCache). LoRA adapter weights stay FP16, following QLoRA's
	// design of high-precision adapters over a quantized backbone.
	WeightPrecision hw.Precision
	// KVPrecision quantizes the KvCache, reducing the attention
	// memory traffic that bounds decode (§8).
	KVPrecision hw.Precision

	// HostOverhead is the per-invocation host cost (batch assembly,
	// sampling, detokenisation). hw.HostInvokeOverhead by default.
	HostOverhead time.Duration
}

// LoRAImpl selects the LoRA addon implementation for cost purposes.
type LoRAImpl int

const (
	// LoRASGMV is Punica's batched kernel (default).
	LoRASGMV LoRAImpl = iota
	// LoRALoop is the eager per-model loop (HuggingFace PEFT layered on
	// Transformers or DeepSpeed, §7: baselines add LoRA via PEFT).
	LoRALoop
)

// New returns Punica-style costs for the model on the GPU: flash
// attention, fused norms, paged KvCache, single GPU.
func New(gpu hw.GPUSpec, model models.Config) Costs {
	return Costs{
		GPU:            gpu,
		Model:          model,
		TP:             1,
		Interconnect:   hw.NvSwitch(),
		FlashAttention: true,
		FusedNorm:      true,
		HostOverhead:   hw.HostInvokeOverhead,
	}
}

// WithTP returns a copy of c sharded over world GPUs.
func (c Costs) WithTP(world int) Costs {
	if world < 1 {
		panic("layer: TP world must be >= 1")
	}
	c.TP = world
	return c
}

// LayerTime returns the latency of one transformer block for the
// invocation. This is what Fig. 10 plots.
func (c Costs) LayerTime(inv Invocation) time.Duration {
	tokens := inv.TotalTokens()
	if tokens == 0 {
		return 0
	}
	k := c.Compile()
	return k.layerTime(&inv, tokens)
}

// InvokeTime returns the latency of one full model invocation: all layers
// plus the LM head and the host driver overhead. This is the decode-step
// (or mixed-batch) latency the serving engine advances time by.
func (c Costs) InvokeTime(inv Invocation) time.Duration {
	k := c.Compile()
	return k.InvokeTime(inv)
}

// Compiled is a Costs with every invocation-independent sub-expression of
// the cost model evaluated once. A serving engine compiles its Costs when
// its configuration is final and prices every step through the result;
// Costs.InvokeTime and Costs.LayerTime compile on each call, so the two
// share one formula and nothing cached can outlive an edit to a Costs
// field.
//
// Each hoisted constant is the leading operand chain of the expression it
// came from, evaluated in the same order, and every per-term sum still
// accumulates term by term: the latencies are bit-identical to
// evaluating the formulas in full (testdata/cost_golden.txt pins them).
type Compiled struct {
	layers       time.Duration
	hostOverhead time.Duration
	launch       time.Duration
	norm         time.Duration // the layer's two norms

	flash    bool
	kvConcat bool
	loraLoop bool

	tp           int
	tpf          float64
	interconnect hw.Link
	hidden       int64 // HiddenSize, for the all-reduce payload

	// Dense projections: per-shard layer params and their weight bytes,
	// and each projection's in+out activation width.
	params      float64
	weightBytes float64
	projInOut   [len(models.Projections)]float64

	// Attention: per-shard hidden width and heads, KvCache bytes per
	// token per layer.
	h          float64
	heads      float64
	kvPerToken float64

	// LM head: vocab, full hidden width, and its weight bytes per shard.
	vocab         float64
	hFull         float64
	lmWeightBytes float64

	// The roofline of each kernel class: dense GEMMs and the LM head
	// (dequantising when weights are quantized), attention, and the
	// KvCache concatenation copy.
	gemm   hw.Roofline
	attn   hw.Roofline
	concat hw.Roofline

	// LoRA addon: each projection's TP-sharded (in, out) shape, and the
	// SGMV kernel rates.
	loraDims [len(models.Projections)]struct{ in, out int }
	lora     sgmv.Rates
}

// Compile evaluates c's invocation-independent constants.
func (c *Costs) Compile() (k Compiled) {
	k.tpf = 1
	if c.TP >= 1 {
		k.tpf = float64(c.TP)
	}
	k.norm = 2 * hw.LayerNormUnfused
	if c.FusedNorm {
		k.norm = 2 * hw.LayerNormFused
	}
	k.layers = time.Duration(c.Model.Layers)
	k.hostOverhead = c.HostOverhead
	k.launch = c.GPU.KernelLaunch
	k.flash = c.FlashAttention
	k.kvConcat = c.KVConcat
	k.loraLoop = c.LoRAImpl == LoRALoop
	k.tp = c.TP
	k.interconnect = c.Interconnect
	k.hidden = int64(c.Model.HiddenSize)

	wbpp := c.WeightPrecision.BytesPerParam()
	k.params = float64(c.Model.LayerParams()) / k.tpf
	k.weightBytes = k.params * wbpp
	k.h = float64(c.Model.HiddenSize) / k.tpf
	k.heads = float64(c.Model.Heads) / k.tpf
	k.kvPerToken = 2 * float64(c.Model.KVDim()) * c.KVPrecision.BytesPerParam() / k.tpf
	k.vocab = float64(c.Model.VocabSize)
	k.hFull = float64(c.Model.HiddenSize)
	k.lmWeightBytes = k.vocab * k.hFull * wbpp / k.tpf

	k.gemm = c.GPU.Roofline(hw.EffGEMMCompute*c.WeightPrecision.DequantOverhead(), hw.EffGEMMMem)
	k.attn = c.GPU.Roofline(hw.EffGEMMCompute, hw.EffAttention)
	k.concat = c.GPU.Roofline(1, hw.EffGEMMMem)
	k.lora = sgmv.NewCostModel(c.GPU).Rates()

	for i, p := range models.Projections {
		in, out := c.Model.Dims(p)
		k.projInOut[i] = float64(in + out)
		// Column-parallel shards split the output dim; row-parallel
		// (o_proj, down_proj) split the input dim. Either way the
		// per-shard weight volume is 1/TP.
		switch p {
		case models.ProjO, models.ProjDown:
			in = shard(in, c.TP)
		default:
			out = shard(out, c.TP)
		}
		k.loraDims[i].in, k.loraDims[i].out = in, out
	}
	return k
}

// denseTime is the latency of the seven dense projections of one layer:
// one weight-streaming pass plus activation traffic, roofed against
// Tensor-Core compute.
func (k *Compiled) denseTime(tokens int) time.Duration {
	ft := float64(tokens)
	flop := 2 * ft * k.params
	actElems := 0.0
	for _, inOut := range k.projInOut {
		actElems += ft * inOut / k.tpf
	}
	bytes := k.weightBytes + actElems*hw.FP16Bytes
	// Seven kernel launches; the roofline already charged one.
	return k.gemm.Time(flop, bytes) + 6*k.launch
}

// attentionPrefillTime is one BatchPrefill launch over the prefill
// sequences: compute is the quadratic score/value matmuls, memory is the
// KvCache written and read.
func (k *Compiled) attentionPrefillTime(lens []int) time.Duration {
	if len(lens) == 0 {
		return 0
	}
	var flop, bytes float64
	h := k.h
	for _, s := range lens {
		fs := float64(s)
		flop += 4 * fs * fs * h // QK^T and PV across all local heads
		bytes += fs * k.kvPerToken
		bytes += fs * 2 * h * hw.FP16Bytes // Q in, O out
		if !k.flash {
			// Materialised scores: write + read s×s per local head.
			bytes += 2 * k.heads * fs * fs * hw.FP16Bytes
		}
	}
	t := k.attn.Time(flop, bytes)
	if !k.flash {
		t += 3 * k.launch // separate QK^T, softmax, PV kernels
	}
	return t
}

// decodeKVBytes is the KvCache the decode requests read per layer: each
// context plus the token being generated.
func (k *Compiled) decodeKVBytes(contexts []int) float64 {
	var kvBytes float64
	for _, s := range contexts {
		kvBytes += float64(s+1) * k.kvPerToken
	}
	return kvBytes
}

// attentionDecodeTime is one BatchDecode launch over the decode requests:
// IO-bound on reading each sequence's KvCache (§2.1: the decode stage has
// low utilisation; §8: self-attention is bounded by memory bandwidth).
func (k *Compiled) attentionDecodeTime(contexts []int, kvBytes float64) time.Duration {
	if len(contexts) == 0 {
		return 0
	}
	h := k.h
	actBytes := float64(len(contexts)) * 2 * h * hw.FP16Bytes
	flop := 0.0
	for _, s := range contexts {
		flop += 4 * float64(s+1) * h
	}
	bytes := kvBytes + actBytes
	if !k.flash {
		bytes += kvBytes * 0.5 // extra passes over scores
	}
	t := k.attn.Time(flop, bytes)
	if !k.flash {
		t += 3 * k.launch
	}
	return t
}

// kvConcatTime is HuggingFace's per-layer KvCache concatenation: "it
// needs to read the whole KvCache and write a new copy" every step
// (§5.4).
func (k *Compiled) kvConcatTime(contexts []int, kvBytes float64) time.Duration {
	if !k.kvConcat || len(contexts) == 0 {
		return 0
	}
	return k.concat.Time(0, 2*kvBytes)
}

// loraTime is the per-layer LoRA addon: seven SGMV operator invocations,
// one per dense projection (§6: segment indices are used 7L times).
func (k *Compiled) loraTime(inv *Invocation) time.Duration {
	if !inv.HasLoRA() {
		return 0
	}
	var t, op time.Duration
	for i := range k.loraDims {
		d := &k.loraDims[i]
		// Adjacent projections often share a shape (q/k/v/o, gate/up):
		// the operator then costs what the previous one did.
		if i == 0 || *d != k.loraDims[i-1] {
			if k.loraLoop {
				op = k.lora.LoopTime(d.in, inv.LoRARank, d.out, inv.LoRASegments)
			} else {
				op = k.lora.OperatorTime(d.in, inv.LoRARank, d.out, inv.LoRASegments)
			}
		}
		t += op
	}
	return t
}

func shard(dim, tp int) int {
	if tp <= 1 {
		return dim
	}
	d := dim / tp
	if d < 1 {
		d = 1
	}
	return d
}

// allReduceTime is the Megatron cost: two all-reduces per layer over the
// activations of every token.
func (k *Compiled) allReduceTime(tokens int) time.Duration {
	if k.tp <= 1 {
		return 0
	}
	payload := int64(tokens) * k.hidden * hw.FP16Bytes
	return 2 * hw.AllReduceTime(k.interconnect, payload, k.tp)
}

// layerTime is one transformer block's latency for an invocation of
// tokens > 0 token positions.
func (k *Compiled) layerTime(inv *Invocation, tokens int) time.Duration {
	kvBytes := k.decodeKVBytes(inv.DecodeContexts)
	return k.denseTime(tokens) +
		k.attentionPrefillTime(inv.PrefillLens) +
		k.attentionDecodeTime(inv.DecodeContexts, kvBytes) +
		k.kvConcatTime(inv.DecodeContexts, kvBytes) +
		k.loraTime(inv) +
		k.norm +
		k.allReduceTime(tokens)
}

// lmHeadTime is the output projection over one sampled position per
// request plus the embedding lookups.
func (k *Compiled) lmHeadTime(inv *Invocation, tokens int) time.Duration {
	batch := inv.BatchSize()
	if batch == 0 {
		return 0
	}
	flop := 2 * float64(batch) * k.vocab * k.hFull / k.tpf
	embedBytes := float64(tokens) * k.hFull * hw.FP16Bytes
	return k.gemm.Time(flop, k.lmWeightBytes+embedBytes)
}

// InvokeTime returns the latency of one full model invocation (see
// Costs.InvokeTime).
func (k *Compiled) InvokeTime(inv Invocation) time.Duration {
	tokens := inv.TotalTokens()
	if tokens == 0 {
		return 0
	}
	return k.layers*k.layerTime(&inv, tokens) +
		k.lmHeadTime(&inv, tokens) +
		k.hostOverhead
}
