// Package punica is a Go reproduction of "Punica: Multi-Tenant LoRA
// Serving" (MLSys 2024): a system that serves many LoRA fine-tunes of one
// backbone LLM on a shared GPU cluster by batching requests for
// *different* adapters into a single model invocation with the SGMV
// (Segmented Gather Matrix-Vector multiplication) operator.
//
// Because Go has no CUDA path, the GPU is simulated: SGMV and its
// baselines have numerically exact implementations plus calibrated A100
// roofline cost models, and serving runs under a discrete-event clock.
// See DESIGN.md for the substitution table and EXPERIMENTS.md for
// paper-vs-measured results.
//
// The package is a facade over the internal subsystems:
//
//   - Engine: a single-GPU (or tensor-parallel group) continuous-batching
//     serving engine with paged KvCache and on-demand adapter loading.
//   - Cluster: the multi-GPU scheduler + discrete-event simulator.
//   - Workload: ShareGPT-like request generators with the paper's four
//     LoRA popularity distributions.
//   - SGMV: the operator itself (segments, numeric kernels, cost model).
//
// Quick start:
//
//	eng := punica.NewEngine(punica.EngineConfig{
//		System: punica.PunicaSystem(),
//		GPU:    punica.A100(),
//		Model:  punica.Llama2_7B(),
//		Rank:   16,
//	})
//	eng.Enqueue(&punica.Request{ID: 1, Model: 7, PromptLen: 128, OutputLen: 32}, 0)
//	for eng.Busy() {
//		res := eng.Step(now)
//		now = res.EndsAt
//	}
package punica

import (
	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
)

// LoRAModelID identifies a LoRA adapter (tenant model).
type LoRAModelID = lora.ModelID

// Engine is the single-GPU serving engine (§5, §6 of the paper).
type Engine = core.Engine

// EngineConfig assembles an engine: system capabilities, hardware and
// model.
type EngineConfig = core.Config

// SystemConfig is a serving system's capability set; PunicaSystem and the
// baseline constructors return the §7 configurations.
type SystemConfig = core.SystemConfig

// Request is one text-generation request.
type Request = core.Request

// Token is one streamed generation event.
type Token = core.Token

// StepResult reports one batched model invocation.
type StepResult = core.StepResult

// EngineStats aggregates engine activity.
type EngineStats = core.Stats

// LoRAMode selects how a system computes the LoRA addon.
type LoRAMode = core.LoRAMode

// LoRA addon modes.
const (
	LoRANone = core.LoRANone
	LoRASGMV = core.LoRASGMV
	LoRALoop = core.LoRALoop
)

// DefaultMaxBatch is the §5.1 A100 batch-size sweet spot (32).
const DefaultMaxBatch = core.DefaultMaxBatch

// NewEngine builds a serving engine.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// PunicaSystem returns Punica's capability set: continuous batching,
// cross-LoRA batching via SGMV, paged KvCache, one prefill per step.
func PunicaSystem() SystemConfig { return core.PunicaSystem() }

// GPUSpec describes a GPU model for the cost simulation.
type GPUSpec = hw.GPUSpec

// Roofline is a GPU's derated compute and memory rates for one kernel
// class (GPUSpec.Roofline).
type Roofline = hw.Roofline

// Link models a data-movement channel (PCIe, NvSwitch).
type Link = hw.Link

// A100 returns Testbed #1's GPU (A100-SXM4-80GB).
func A100() GPUSpec { return hw.A100() }

// A100_40G returns Testbed #2's GPU (HGX A100-SXM4-40GB).
func A100_40G() GPUSpec { return hw.A100_40G() }

// PCIeGen4x16 is the host-to-device link used for adapter loading.
func PCIeGen4x16() Link { return hw.PCIeGen4x16() }

// Precision is a storage data type for backbone weights or KvCache
// (quantization is the §8 extension; FP16 reproduces the paper).
type Precision = hw.Precision

// Storage precisions.
const (
	FP16 = hw.FP16
	INT8 = hw.INT8
	NF4  = hw.NF4
)

// NvSwitch is the intra-server interconnect used by tensor parallelism.
func NvSwitch() Link { return hw.NvSwitch() }

// ModelConfig is a transformer architecture.
type ModelConfig = models.Config

// Llama2_7B returns the Llama-2 7B architecture.
func Llama2_7B() ModelConfig { return models.Llama2_7B() }

// Llama2_13B returns the Llama-2 13B architecture.
func Llama2_13B() ModelConfig { return models.Llama2_13B() }

// Llama2_70B returns the Llama-2 70B architecture (GQA).
func Llama2_70B() ModelConfig { return models.Llama2_70B() }

// ModelByName resolves "7b", "13b", "70b" or full names.
func ModelByName(name string) (ModelConfig, error) { return models.ByName(name) }

// DefaultLoRARank is the adapter rank used throughout the evaluation.
const DefaultLoRARank = models.DefaultLoRARank
