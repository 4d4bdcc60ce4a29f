// Package core implements Punica's single-GPU serving engine (§5, §6):
// continuous batching of prefill and decode requests across different
// LoRA models, SGMV segment construction, paged KvCache admission and
// eviction, on-demand adapter loading, cancellation, and token streaming.
//
// The same engine, parameterised by SystemConfig feature flags, also
// models the paper's baseline systems (HuggingFace Transformers,
// DeepSpeed, FasterTransformer, vLLM) — see internal/baselines.
package core

import (
	"time"

	"punica/internal/kvcache"
	"punica/internal/lora"
)

// Request is one text-generation request resident on (or queued for) a
// GPU. OutputLen predetermines the stopping condition, standing in for
// the end-of-sequence token exactly as the paper's length-replay does.
type Request struct {
	ID        int64
	Model     lora.ModelID
	PromptLen int
	OutputLen int
	Arrival   time.Duration

	// Tenant is the owning user (0 = untagged legacy traces). The
	// scheduler's fairness layer keys virtual-token accounting and
	// per-tenant stall attribution on it; the engine itself ignores it.
	Tenant int64

	// Generated counts tokens produced so far (survives migration; the
	// destination GPU re-prefills prompt + generated, §5.3).
	Generated int

	// Timing observed by the engine.
	AdmittedAt   time.Duration
	FirstTokenAt time.Duration
	FinishedAt   time.Duration

	prefilled bool
	done      bool // finished but still occupying a static batch slot
	loraReady time.Duration
	// kvReady gates batch entry after a KV migration: the imported
	// KvCache is usable once its link transfer completes.
	kvReady time.Duration
	hasLoRA bool // adapter acquired from the store (needs release)

	// kv is the request's KvCache sequence record on its current engine,
	// held from admission or import until release, export or crash, and
	// nil otherwise. Each decode step grows it without a map lookup.
	kv *kvcache.Seq

	// lastTokenAt is when the latest token went out while streaming is
	// set; produceToken derives Token.Gap from it. Eviction, crash
	// recovery and KV migration move this same *Request between engines,
	// so the chain runs on across them; EOS ends it.
	lastTokenAt time.Duration
	streaming   bool
}

// ContextLen returns the tokens this request currently needs in KvCache:
// the original prompt plus everything generated.
func (r *Request) ContextLen() int { return r.PromptLen + r.Generated }

// Remaining returns how many tokens are still to be generated.
func (r *Request) Remaining() int {
	rem := r.OutputLen - r.Generated
	if rem < 0 {
		return 0
	}
	return rem
}

// Finished reports whether the request has produced all its tokens.
func (r *Request) Finished() bool { return r.Generated >= r.OutputLen }

// Token is one streamed generation event.
type Token struct {
	RequestID int64
	Index     int // 0-based position in the response
	TokenID   int // deterministic pseudo-token
	At        time.Duration
	EOS       bool
	// Gap is the time since the same request's previous token, or 0 when
	// there is none or no time passed: the inter-token latency a
	// streaming user sees, stalls and handoffs between engines included.
	Gap time.Duration
}

// TokenIDFor exposes the deterministic pseudo-token derivation: any
// engine generating token index for request reqID produces this id, so
// a runner importing a migrated request can reconstruct the tokens its
// predecessor already emitted (for stream re-attachment) without
// carrying them over the wire.
func TokenIDFor(reqID int64, index, vocab int) int { return tokenID(reqID, index, vocab) }

// tokenID derives a deterministic pseudo-token: the simulation does not
// model language, only serving behaviour ("we use random weights for LoRA
// models as the weight does not affect latency performance", §7).
func tokenID(reqID int64, index, vocab int) int {
	h := uint64(reqID)*0x9E3779B97F4A7C15 + uint64(index)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	if vocab <= 0 {
		vocab = 32000
	}
	return int(h % uint64(vocab))
}
