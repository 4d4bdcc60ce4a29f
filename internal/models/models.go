// Package models describes the transformer architectures the Punica
// evaluation serves: Llama-2 at 7B, 13B and 70B parameters (§7). The
// configs carry the exact published dimensions; everything downstream
// (parameter counts, KvCache bytes per token, FLOP per token) is derived
// arithmetic, which is what the latency models consume.
package models

import (
	"fmt"

	"punica/internal/hw"
)

// Config is a decoder-only transformer architecture.
type Config struct {
	Name string

	// HiddenSize is the model dimension h.
	HiddenSize int
	// Intermediate is the MLP inner dimension (SwiGLU: gate/up project
	// h → Intermediate, down projects back).
	Intermediate int
	// Layers is the number of transformer blocks L.
	Layers int
	// Heads is the number of attention query heads.
	Heads int
	// KVHeads is the number of key/value heads. Equal to Heads for
	// multi-head attention; smaller for grouped-query attention
	// (Llama-2 70B uses 8).
	KVHeads int
	// VocabSize is the embedding/output vocabulary.
	VocabSize int
	// MaxSeqLen is the maximum context length.
	MaxSeqLen int
}

// Llama2_7B returns the Llama-2 7B architecture.
func Llama2_7B() Config {
	return Config{
		Name:         "llama-2-7b",
		HiddenSize:   4096,
		Intermediate: 11008,
		Layers:       32,
		Heads:        32,
		KVHeads:      32,
		VocabSize:    32000,
		MaxSeqLen:    4096,
	}
}

// Llama2_13B returns the Llama-2 13B architecture.
func Llama2_13B() Config {
	return Config{
		Name:         "llama-2-13b",
		HiddenSize:   5120,
		Intermediate: 13824,
		Layers:       40,
		Heads:        40,
		KVHeads:      40,
		VocabSize:    32000,
		MaxSeqLen:    4096,
	}
}

// Llama2_70B returns the Llama-2 70B architecture (grouped-query
// attention with 8 KV heads).
func Llama2_70B() Config {
	return Config{
		Name:         "llama-2-70b",
		HiddenSize:   8192,
		Intermediate: 28672,
		Layers:       80,
		Heads:        64,
		KVHeads:      8,
		VocabSize:    32000,
		MaxSeqLen:    4096,
	}
}

// ByName resolves a model config from its name.
func ByName(name string) (Config, error) {
	switch name {
	case "llama-2-7b", "7b":
		return Llama2_7B(), nil
	case "llama-2-13b", "13b":
		return Llama2_13B(), nil
	case "llama-2-70b", "70b":
		return Llama2_70B(), nil
	}
	return Config{}, fmt.Errorf("models: unknown model %q", name)
}

// HeadDim returns the per-head dimension d = h / Heads.
func (c Config) HeadDim() int { return c.HiddenSize / c.Heads }

// KVDim returns the key/value projection width: KVHeads × HeadDim.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim() }

// Projection identifies one of the seven dense projections in a
// transformer block. LoRA is applied to all of them (§7: "LoRA is applied
// to all dense projections"; §6: segment indices are computed "7L times").
type Projection int

const (
	ProjQ Projection = iota
	ProjK
	ProjV
	ProjO
	ProjGate
	ProjUp
	ProjDown
)

// Projections lists all seven dense projections of a block.
var Projections = [...]Projection{ProjQ, ProjK, ProjV, ProjO, ProjGate, ProjUp, ProjDown}

// String names the projection.
func (p Projection) String() string {
	switch p {
	case ProjQ:
		return "q_proj"
	case ProjK:
		return "k_proj"
	case ProjV:
		return "v_proj"
	case ProjO:
		return "o_proj"
	case ProjGate:
		return "gate_proj"
	case ProjUp:
		return "up_proj"
	case ProjDown:
		return "down_proj"
	default:
		return fmt.Sprintf("Projection(%d)", int(p))
	}
}

// Dims returns the (input, output) feature dimensions of the projection.
func (c Config) Dims(p Projection) (in, out int) {
	h := c.HiddenSize
	switch p {
	case ProjQ:
		return h, h
	case ProjK, ProjV:
		return h, c.KVDim()
	case ProjO:
		return h, h
	case ProjGate, ProjUp:
		return h, c.Intermediate
	case ProjDown:
		return c.Intermediate, h
	default:
		panic("models: unknown projection")
	}
}

// LayerParams returns the dense-projection parameter count of one block.
func (c Config) LayerParams() int64 {
	var total int64
	for _, p := range Projections {
		in, out := c.Dims(p)
		total += int64(in) * int64(out)
	}
	return total
}

// Params returns the total parameter count: all blocks plus the token
// embedding and the output head.
func (c Config) Params() int64 {
	embed := int64(c.VocabSize) * int64(c.HiddenSize)
	return c.LayerParams()*int64(c.Layers) + 2*embed
}

// WeightBytes returns the fp16 footprint of the full model on one GPU.
func (c Config) WeightBytes() int64 { return c.Params() * hw.FP16Bytes }

// KVBytesPerToken returns the fp16 KvCache bytes one token appends across
// all layers: 2 (K and V) × Layers × KVDim × 2 bytes. For Llama-2 7B this
// is the well-known 512 KiB/token.
func (c Config) KVBytesPerToken() int64 {
	return 2 * int64(c.Layers) * int64(c.KVDim()) * hw.FP16Bytes
}

// LoRALayerParams returns the parameter count of one LoRA layer (A and B
// for all seven projections) at the given rank.
func (c Config) LoRALayerParams(rank int) int64 {
	var total int64
	for _, p := range Projections {
		in, out := c.Dims(p)
		total += int64(rank) * int64(in+out)
	}
	return total
}

// LoRAParams returns the parameter count of a whole LoRA model at the
// given rank. §2.2: "Each fine-tuned model only adds 0.1% to 1% of the
// model weight."
func (c Config) LoRAParams(rank int) int64 {
	return c.LoRALayerParams(rank) * int64(c.Layers)
}

// LoRABytes returns the fp16 footprint of one LoRA model.
func (c Config) LoRABytes(rank int) int64 { return c.LoRAParams(rank) * hw.FP16Bytes }

// DefaultLoRARank is the rank used throughout the evaluation ("For all
// experiments, we use 16 as the LoRA rank", §7).
const DefaultLoRARank = 16
