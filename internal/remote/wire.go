// Package remote implements Fig. 2's distributed deployment: GPU runners
// on their own servers expose an HTTP API, the scheduler drives them
// through a client that satisfies sched.Worker, and a frontend process
// terminates user connections and proxies token streams.
//
// Substitution note (DESIGN.md): the paper uses Rust processes with
// WebSocket unary RPC and streaming; here both are HTTP/1.1 — JSON for
// unary calls, chunked NDJSON for token streams. The scheduling logic is
// byte-for-byte the same code as the in-process path (internal/sched).
package remote

import (
	"time"

	"punica/internal/core"
	"punica/internal/kvcache"
	"punica/internal/lora"
)

// RequestState is the wire form of a request, carrying exactly the state
// migration needs (§5.3: the destination re-prefills the prompt plus all
// previously generated tokens).
type RequestState struct {
	ID        int64 `json:"id"`
	Model     int64 `json:"model"`
	PromptLen int   `json:"prompt_len"`
	OutputLen int   `json:"output_len"`
	ArrivalNS int64 `json:"arrival_ns"`
	Generated int   `json:"generated"`
}

// toCore converts wire state to an engine request.
func (w RequestState) toCore() *core.Request {
	return &core.Request{
		ID:        w.ID,
		Model:     lora.ModelID(w.Model),
		PromptLen: w.PromptLen,
		OutputLen: w.OutputLen,
		Arrival:   time.Duration(w.ArrivalNS),
		Generated: w.Generated,
	}
}

// fromCore converts an engine request to wire state.
func fromCore(r *core.Request) RequestState {
	return RequestState{
		ID:        r.ID,
		Model:     int64(r.Model),
		PromptLen: r.PromptLen,
		OutputLen: r.OutputLen,
		ArrivalNS: int64(r.Arrival),
		Generated: r.Generated,
	}
}

// CancelRequest identifies a request to cancel or evict.
type CancelRequest struct {
	ID int64 `json:"id"`
}

// CancelReply returns the removed request's state for re-scheduling.
type CancelReply struct {
	Found   bool          `json:"found"`
	Request *RequestState `json:"request,omitempty"`
}

// DrainReply returns a runner's entire working set after a forced drain
// (POST /runner/drain): the wire form of core.Engine.Crash. Requests
// carry Generated so the recovering scheduler re-prefills prompt +
// generated on the new owner; LostKVTokens is the KvCache context the
// drain destroyed.
type DrainReply struct {
	Requests     []RequestState `json:"requests"`
	LostKVTokens int            `json:"lost_kv_tokens"`
}

// KVHandleWire is the wire form of a KV migration handle (POST
// /runner/kv): the request state plus the page-exact KvCache accounting
// whose Bytes sizes the transfer latency the importing runner charges.
type KVHandleWire struct {
	Request RequestState `json:"request"`
	Tokens  int          `json:"tokens"`
	Pages   int          `json:"pages"`
	Bytes   int64        `json:"bytes"`
}

// toCore reconstructs the engine-side handle.
func (w KVHandleWire) toCore() core.KVHandle {
	return core.KVHandle{
		Request: w.Request.toCore(),
		KV: kvcache.Handle{
			Seq:    kvcache.SeqID(w.Request.ID),
			Tokens: w.Tokens,
			Pages:  w.Pages,
			Bytes:  w.Bytes,
		},
	}
}

// handleFromCore converts an exported handle to wire form.
func handleFromCore(h core.KVHandle) KVHandleWire {
	return KVHandleWire{
		Request: fromCore(h.Request),
		Tokens:  h.KV.Tokens,
		Pages:   h.KV.Pages,
		Bytes:   h.KV.Bytes,
	}
}

// ExportRequest names the request whose KV should be exported (POST
// /runner/kv/export).
type ExportRequest struct {
	ID int64 `json:"id"`
}

// PrefetchRequest asks a runner to warm an adapter without pinning it
// (POST /runner/prefetch) — the disaggregation router's decode-target
// hint.
type PrefetchRequest struct {
	Model int64 `json:"model"`
}

// PrefetchReply reports whether the hint was accepted.
type PrefetchReply struct {
	Accepted bool `json:"accepted"`
}

// State is a runner's scheduling snapshot: the wire form of
// core.Snapshot plus runner identity and progress counters. One GET
// /runner/state carries everything a scheduling decision needs, so a
// decision costs one round-trip.
type State struct {
	UUID string `json:"uuid"`
	// Version is the engine's mutation counter (core.Snapshot.Version).
	// It also feeds the endpoint's ETag ("<boot-nonce>-v<version>"; the
	// nonce distinguishes runner restarts, whose engines recount from
	// zero): GET /runner/state with If-None-Match answers 304 Not
	// Modified when nothing changed, so a polling scheduler pays a
	// header exchange instead of re-serialising the adapter list on
	// every decision.
	Version uint64 `json:"version"`
	// Role is the runner's disaggregation role ("unified", "prefill",
	// "decode"); Migratable lists the resident requests whose prefill
	// finished and which await handoff to the decode pool.
	Role       string  `json:"role,omitempty"`
	Migratable []int64 `json:"migratable,omitempty"`

	WorkingSet  int `json:"working_set"`
	ActiveBatch int `json:"active_batch"`
	MaxBatch    int `json:"max_batch"`
	// FreePages is the uncommitted KvCache headroom (pool free pages
	// minus reservations for pending requests).
	FreePages  int  `json:"free_kv_pages"`
	TotalPages int  `json:"total_kv_pages"`
	PageSize   int  `json:"kv_page_size"`
	PagedKV    bool `json:"paged_kv"`

	// Adapter-store state (§5.2): resident adapters with ranks and pin
	// flags, plus byte accounting. Empty for backbone-only runners.
	Adapters           []lora.AdapterState `json:"adapters,omitempty"`
	StoreCapacityBytes int64               `json:"store_capacity_bytes,omitempty"`
	StoreUsedBytes     int64               `json:"store_used_bytes,omitempty"`
	StorePinnedBytes   int64               `json:"store_pinned_bytes,omitempty"`

	// Tiers carries the staging-hierarchy counters when the runner's
	// engine is backed by a tiered adapter store (core.Config.Tiers),
	// bottom tier first with the HBM row last; ColdStarts counts the
	// staged HBM misses. Both empty on flat-store runners.
	Tiers      []lora.TierStats `json:"tiers,omitempty"`
	ColdStarts int              `json:"cold_starts,omitempty"`

	Steps  int64 `json:"steps"`
	Tokens int64 `json:"tokens_generated"`
}

// stateOf captures a runner's engine as wire state. Snapshot.Adapters
// aliases the store's reusable view (valid only until the next store
// mutation), and the runner serialises State outside its lock — so the
// adapter list is copied here. This is the wire path: one copy per 200
// response, none on the 304 revalidation path.
func stateOf(uuid string, snap core.Snapshot, stats core.Stats, migratable []int64, tiers *lora.TieredStore) State {
	var adapters []lora.AdapterState
	if len(snap.Adapters) > 0 {
		adapters = append(adapters, snap.Adapters...)
	}
	snap.Adapters = adapters
	var tierStats []lora.TierStats
	coldStarts := 0
	if tiers != nil {
		// Stats() builds a fresh slice, so serialising outside the
		// runner's lock is safe.
		tierStats = tiers.Stats()
		coldStarts = tiers.ColdStarts().Count()
	}
	return State{
		UUID:               uuid,
		Version:            snap.Version,
		Role:               snap.Role.String(),
		Migratable:         migratable,
		WorkingSet:         snap.WorkingSet,
		ActiveBatch:        snap.ActiveBatch,
		MaxBatch:           snap.MaxBatch,
		FreePages:          snap.FreeKVPages,
		TotalPages:         snap.TotalKVPages,
		PageSize:           snap.PageSize,
		PagedKV:            snap.PagedKV,
		Adapters:           snap.Adapters,
		StoreCapacityBytes: snap.StoreCapacityBytes,
		StoreUsedBytes:     snap.StoreUsedBytes,
		StorePinnedBytes:   snap.StorePinnedBytes,
		Tiers:              tierStats,
		ColdStarts:         coldStarts,
		Steps:              stats.Steps,
		Tokens:             stats.TokensGenerated,
	}
}

// toSnapshot converts wire state back to the scheduler's view.
func (st State) toSnapshot() core.Snapshot {
	role, err := core.ParseRole(st.Role)
	if err != nil {
		role = core.RoleUnified
	}
	return core.Snapshot{
		Version:            st.Version,
		Role:               role,
		WorkingSet:         st.WorkingSet,
		ActiveBatch:        st.ActiveBatch,
		MaxBatch:           st.MaxBatch,
		FreeKVPages:        st.FreePages,
		TotalKVPages:       st.TotalPages,
		PageSize:           st.PageSize,
		PagedKV:            st.PagedKV,
		Adapters:           st.Adapters,
		StoreCapacityBytes: st.StoreCapacityBytes,
		StoreUsedBytes:     st.StoreUsedBytes,
		StorePinnedBytes:   st.StorePinnedBytes,
	}
}

// TokenEvent is one NDJSON line of a runner token stream.
type TokenEvent struct {
	RequestID int64 `json:"request_id"`
	Index     int   `json:"index"`
	TokenID   int   `json:"token_id"`
	EOS       bool  `json:"eos"`
}
