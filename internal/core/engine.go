package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"punica/internal/hw"
	"punica/internal/invariant"
	"punica/internal/kvcache"
	"punica/internal/layer"
	"punica/internal/lora"
	"punica/internal/sgmv"
)

// ErrRoleMismatch reports a request offered to an engine whose role does
// not serve that path: enqueueing prefill work on a decode-role engine.
// Schedulers avoid it by filtering candidates on Snapshot.Role; the
// error guards direct misuse.
var ErrRoleMismatch = errors.New("core: decode-role engine accepts only KV imports")

// Engine is one serving instance: a GPU (or tensor-parallel GPU group)
// running continuous batches of an LLM with LoRA adapters. It owns the
// device's KvCache pool, adapter store, and FCFS request queue; a driver
// (the cluster simulator, the HTTP runner, or a benchmark harness) calls
// Step repeatedly, advancing simulated time by each returned latency —
// "GPU runs the Prefill steps and Decode steps continuously" (§5).
type Engine struct {
	cfg   Config
	costs layer.Compiled
	kv    *kvcache.Pool
	store *lora.Store
	tiers *lora.TieredStore // nil unless cfg.Tiers configured
	reg   *lora.Registry

	pending []*Request // FCFS queue (sorted by arrival, then id)
	active  []*Request // the working set: the LLM invocation batch

	reservedPages int // pages promised to pending requests

	// version counts every externally visible mutation (admission, KV,
	// adapter store, stepping). Schedulers cache a Snapshot per engine
	// and revalidate it against StateVersion instead of rebuilding per
	// decision; the counter therefore bumps conservatively — any call
	// that could change snapshot-visible state increments it, even on
	// failure paths (a failed Enqueue may still have evicted adapters
	// while making room). Over-bumping costs a cache refresh;
	// under-bumping would serve stale scheduling state.
	version uint64

	// Step scratch, reused across calls so steady-state stepping is
	// allocation-free. StepResult.Finished/Evicted alias finishedScratch/
	// evictedScratch and are valid until the next Step on this engine.
	prefillScratch  []*Request
	decodeScratch   []*Request
	finishedScratch []*Request
	evictedScratch  []*Request
	prefillLens     []int
	decodeCtxs      []int
	segModels       []lora.ModelID
	segCounts       []int
	segBounds       []int

	stats Stats
}

// Stats aggregates engine activity since creation.
type Stats struct {
	Steps           int64
	TokensGenerated int64
	PrefillTokens   int64
	WastedDecodes   int64 // Fig. 6: decode slots burned for finished requests
	Evictions       int64
	Cancellations   int64
	Finished        int64
	// Crashes counts injected GPU failures survived by this engine object
	// (each drops all resident requests for recovery elsewhere).
	Crashes  int64
	BusyTime time.Duration
	// KVExports/KVImports count deliberate KV migrations through
	// ExportKV/ImportKV (disaggregation handoffs, not crash recoveries);
	// KVMovedBytes totals the KvCache payload received by imports —
	// charged where the transfer lands, so zero-byte bounces back to a
	// request's own source count nothing.
	KVExports    int64
	KVImports    int64
	KVMovedBytes int64
}

// Utilization returns the fraction of span the engine spent inside
// invocations — the per-GPU utilization signal pool-imbalance analysis
// reads. Zero when span is not positive.
func (s Stats) Utilization(span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return s.BusyTime.Seconds() / span.Seconds()
}

// StepResult reports one model invocation.
type StepResult struct {
	// Idle is set when there was nothing to run; all other fields are
	// zero.
	Idle bool

	Latency time.Duration
	EndsAt  time.Duration

	BatchSize       int // requests in the invocation
	PrefillRequests int
	PrefillTokens   int
	TokensGenerated int // tokens emitted this step
	WastedDecodes   int

	Finished []*Request
	// Evicted requests were pushed out mid-generation to free KvCache
	// (§5.3); the caller re-schedules them (possibly on another GPU).
	Evicted []*Request
}

// NewEngine builds an engine from the config. The KvCache pool and
// adapter store are sized from the GPU spec unless overridden.
func NewEngine(cfg Config) *Engine {
	if cfg.Rank <= 0 {
		cfg.Rank = 16
	}
	if cfg.System.MaxBatch <= 0 {
		cfg.System.MaxBatch = DefaultMaxBatch
	}
	if cfg.System.MaxPrefillPerStep <= 0 {
		cfg.System.MaxPrefillPerStep = 1
	}
	// The config is final here: compile its cost model once, and price
	// every step through the constants.
	costs := cfg.costs()
	e := &Engine{
		cfg:   cfg,
		costs: costs.Compile(),
		kv:    kvcache.NewPool(cfg.kvCapacity(), cfg.kvBytesPerToken(), cfg.pageSize()),
	}
	if cfg.System.LoRA != LoRANone {
		e.reg = lora.NewRegistry(cfg.Model, cfg.Rank)
		e.reg.RankFor = cfg.AdapterRank
		e.store = lora.NewStore(e.reg, hw.PCIeGen4x16(), int64(cfg.tp())*cfg.loraStoreBytes())
		if len(cfg.Tiers) > 0 {
			e.tiers = lora.NewTieredStore(e.store, cfg.Tiers)
		}
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Role returns the engine's disaggregation role (RoleUnified unless
// configured otherwise).
func (e *Engine) Role() Role { return e.cfg.Role }

// KV exposes the KvCache pool (read-only use by schedulers and tests).
func (e *Engine) KV() *kvcache.Pool { return e.kv }

// Store exposes the adapter store (nil for backbone-only systems).
func (e *Engine) Store() *lora.Store { return e.store }

// Tiers exposes the tiered staging hierarchy wrapping the store, or nil
// when the engine runs the flat single-link adapter path.
func (e *Engine) Tiers() *lora.TieredStore { return e.tiers }

// acquireAdapter pins an adapter through the tiered hierarchy when one
// is configured, or straight from the flat store otherwise. The
// returned time includes every staging hop a cold adapter crossed.
func (e *Engine) acquireAdapter(id lora.ModelID, now time.Duration) (time.Duration, error) {
	if e.tiers != nil {
		return e.tiers.Acquire(id, now)
	}
	return e.store.Acquire(id, now)
}

// Stats returns a snapshot of accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// StateVersion returns the engine's monotonic mutation counter. Equal
// versions guarantee an identical Snapshot; schedulers use it to
// revalidate cached snapshots without rebuilding them.
func (e *Engine) StateVersion() uint64 { return e.version }

// PrefetchAdapter starts loading an adapter without pinning it — the
// disaggregation router's warm-up hint for a request's intended decode
// target while its prefill runs elsewhere. Best-effort: false when the
// engine serves no LoRA or the store refused the hint.
func (e *Engine) PrefetchAdapter(id lora.ModelID, now time.Duration) bool {
	if e.store == nil {
		return false
	}
	e.version++
	if e.tiers != nil {
		_, ok := e.tiers.Prefetch(id, now)
		return ok
	}
	_, ok := e.store.Prefetch(id, now)
	return ok
}

// AdapterResident reports whether the adapter is already in (or loading
// into) this engine's HBM store. Read-only — no version bump — so
// schedulers can probe warmth without invalidating cached snapshots.
func (e *Engine) AdapterResident(id lora.ModelID) bool {
	return e.store != nil && e.store.Resident(id)
}

// PrewarmAdapter stages an adapter into host RAM without touching HBM —
// the pre-distribution daemon's hook. It returns the bytes moved across
// tiers (the daemon's budget currency); 0 when the engine has no tiers
// or the adapter is already warm.
func (e *Engine) PrewarmAdapter(id lora.ModelID, now time.Duration) int64 {
	if e.tiers == nil {
		return 0
	}
	moved, ok := e.tiers.Prewarm(id, now)
	if !ok {
		return 0
	}
	return moved
}

// WorkingSet returns the number of requests assigned to this engine
// (running or queued locally) — the scheduler's routing signal (§5.1).
func (e *Engine) WorkingSet() int { return len(e.active) + len(e.pending) }

// ActiveBatch returns the current invocation batch size.
func (e *Engine) ActiveBatch() int { return len(e.active) }

// MaxBatch returns the invocation batch cap (the §5.1 limit).
func (e *Engine) MaxBatch() int { return e.cfg.System.MaxBatch }

// Snapshot returns the engine's scheduling state as one batched view:
// the §5.1 admission constraints plus the §5.2 adapter-store contents.
// The scheduler takes one snapshot per placement decision instead of
// issuing per-GPU WorkingSet/CanAdmit call pairs.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Version:      e.version,
		Role:         e.cfg.Role,
		WorkingSet:   e.WorkingSet(),
		ActiveBatch:  len(e.active),
		MaxBatch:     e.cfg.System.MaxBatch,
		FreeKVPages:  e.kv.FreePages() - e.reservedPages,
		TotalKVPages: e.kv.TotalPages(),
		PageSize:     e.kv.PageSize(),
		PagedKV:      e.cfg.System.PagedKV,
	}
	if e.store != nil {
		// The snapshot carries the store's reused adapter view; the
		// whole Snapshot is version-stamped and consumers (sched's
		// snapshot cache) revalidate against Version before reuse, so
		// the view can never be read after the store mutates.
		s.Adapters = e.store.Adapters() //punica:retains-copy snapshot is version-stamped; stale copies are revalidated away
		s.StoreCapacityBytes = e.store.CapacityBytes()
		s.StoreUsedBytes = e.store.UsedBytes()
		s.StorePinnedBytes = e.store.PinnedBytes()
	}
	return s
}

// Busy reports whether the engine has any work.
func (e *Engine) Busy() bool { return len(e.active) > 0 || len(e.pending) > 0 }

// EarliestPendingReady returns the soonest time a queued request's
// adapter finishes loading, for drivers that saw an Idle step and need to
// know when to try again. ok is false when nothing is pending on a load.
func (e *Engine) EarliestPendingReady() (at time.Duration, ok bool) {
	for _, r := range e.pending {
		ready := r.loraReady
		if r.kvReady > ready {
			ready = r.kvReady // KV migration still in flight over the link
		}
		if !ok || ready < at {
			at, ok = ready, true
		}
	}
	return at, ok
}

// kvNeed returns the token reservation a request requires on this system:
// paged systems reserve the current context (growing page by page);
// non-paged systems reserve the whole worst case up front.
func (e *Engine) kvNeed(r *Request) int {
	if e.cfg.System.PagedKV {
		return r.ContextLen()
	}
	return r.PromptLen + r.OutputLen
}

// CanAdmit reports whether the engine could take this request now:
// below the max batch size and with enough uncommitted KvCache (§5.1's
// two scheduling constraints).
func (e *Engine) CanAdmit(r *Request) bool {
	if !e.cfg.Role.AcceptsNew() {
		return false // decode pool: work arrives only via ImportKV
	}
	if e.WorkingSet() >= e.cfg.System.MaxBatch {
		return false
	}
	need := e.kv.PagesFor(e.kvNeed(r))
	return e.kv.FreePages()-e.reservedPages >= need
}

// Enqueue assigns a request to this engine. Adapter loading starts
// immediately ("issue an asynchronous memory copy ... let the GPU
// continue running other inputs", §5.2); the request joins the batch at
// the first step boundary where its weights are resident and capacity
// allows.
func (e *Engine) Enqueue(r *Request, now time.Duration) error {
	if !e.cfg.Role.AcceptsNew() {
		return ErrRoleMismatch
	}
	e.version++
	if e.kv.PagesFor(e.kvNeed(r)) > e.kv.TotalPages() {
		return fmt.Errorf("core: request %d needs %d tokens of KvCache, exceeding pool capacity",
			r.ID, e.kvNeed(r))
	}
	if r.AdmittedAt == 0 {
		r.AdmittedAt = now
	}
	if e.cfg.System.LoRA != LoRANone && !r.hasLoRA {
		ready, err := e.acquireAdapter(r.Model, now)
		if err != nil {
			return fmt.Errorf("core: adapter %d: %w", r.Model, err)
		}
		r.loraReady = ready
		r.hasLoRA = true
	}
	r.prefilled = false
	r.done = false
	r.kvReady = 0
	e.reservedPages += e.kv.PagesFor(e.kvNeed(r))
	e.insertPending(r)
	return nil
}

func (e *Engine) insertPending(r *Request) {
	i := sort.Search(len(e.pending), func(i int) bool {
		p := e.pending[i]
		if p.Arrival != r.Arrival {
			return p.Arrival > r.Arrival
		}
		return p.ID > r.ID
	})
	e.pending = append(e.pending, nil)
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = r
}

// Cancel removes a request wherever it is (queue or batch), releasing
// its KvCache and adapter pin, and returns it for re-scheduling. It
// returns nil if the request is not resident. Cancellation is the
// migration primitive (§5.3).
func (e *Engine) Cancel(id int64, now time.Duration) *Request {
	e.version++
	for i, r := range e.pending {
		if r.ID == id {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			if e.kv.Has(kvcache.SeqID(r.ID)) {
				// Imported via KV migration: pages were allocated at
				// import, not reserved at enqueue.
				e.releaseKV(r)
			} else {
				e.reservedPages -= e.kv.PagesFor(e.kvNeed(r))
			}
			e.releaseRequest(r)
			e.stats.Cancellations++
			return r
		}
	}
	for i, r := range e.active {
		if r.ID == id {
			e.active = append(e.active[:i], e.active[i+1:]...)
			e.releaseKV(r)
			e.releaseRequest(r)
			e.stats.Cancellations++
			return r
		}
	}
	return nil
}

// releaseKV frees the request's KvCache sequence and drops its record.
func (e *Engine) releaseKV(r *Request) {
	e.kv.Release(kvcache.SeqID(r.ID))
	r.kv = nil
}

func (e *Engine) releaseRequest(r *Request) {
	e.releaseAdapter(r)
	r.prefilled = false
	r.done = false
	r.kvReady = 0
}

// releaseAdapter unpins the request's adapter without touching its
// generation state — ExportKV uses it so a migrating request keeps its
// prefilled status while its pin moves from source to destination.
func (e *Engine) releaseAdapter(r *Request) {
	if r.hasLoRA && e.store != nil {
		e.store.Release(r.Model)
		r.hasLoRA = false
	}
}

// Crash models the engine's GPU dying: every resident request loses its
// KvCache state and adapter pin (with exact store accounting — pinned
// bytes return to zero for the requests dropped) and is returned for
// re-dispatch elsewhere. Requests keep Generated, so a recovering
// scheduler re-prefills prompt + generated exactly like the §5.3
// migration path. lostKVTokens is the KvCache context the active batch
// held at the instant of the crash — the prefill work that must be
// recomputed. Finished rows of a static batch are not returned: their
// users already have every token.
//
// After Crash the engine is empty (Busy reports false) and could in
// principle serve again, but a crashed GPU's driver normally abandons
// it; replacements start from a fresh engine with a cold adapter store.
func (e *Engine) Crash(now time.Duration) (lost []*Request, lostKVTokens int) {
	e.version++
	for _, r := range e.pending {
		if e.kv.Has(kvcache.SeqID(r.ID)) {
			// Imported mid-migration: the KvCache it carried is lost and
			// must be recomputed like any crashed context.
			lostKVTokens += r.ContextLen()
			e.releaseKV(r)
		} else {
			e.reservedPages -= e.kv.PagesFor(e.kvNeed(r))
		}
		e.releaseRequest(r)
		lost = append(lost, r)
	}
	e.pending = nil
	for _, r := range e.active {
		e.releaseKV(r)
		if r.done {
			// Finished static-batch row: nothing to recover.
			e.releaseRequest(r)
			continue
		}
		lostKVTokens += r.ContextLen()
		e.releaseRequest(r)
		lost = append(lost, r)
	}
	e.active = e.active[:0]
	e.stats.Crashes++
	// Oldest-first so the caller's FCFS requeue observes arrival order.
	sort.Slice(lost, func(i, j int) bool {
		if lost[i].Arrival != lost[j].Arrival {
			return lost[i].Arrival < lost[j].Arrival
		}
		return lost[i].ID < lost[j].ID
	})
	return lost, lostKVTokens
}

// EvictNewest removes the most recently arrived request (active or
// pending) to free memory: "The scheduler evicts the newest request from
// the GPU. This preserves the FCFS semantics" (§5.3). Returns nil when
// empty.
func (e *Engine) EvictNewest(now time.Duration) *Request {
	victim := e.newestRequest()
	if victim == nil {
		return nil
	}
	r := e.Cancel(victim.ID, now)
	e.stats.Evictions++
	e.stats.Cancellations-- // bookkeeping: eviction, not user cancel
	return r
}

func (e *Engine) newestRequest() *Request {
	var newest *Request
	consider := func(r *Request) {
		if newest == nil || r.Arrival > newest.Arrival ||
			(r.Arrival == newest.Arrival && r.ID > newest.ID) {
			newest = r
		}
	}
	for _, r := range e.active {
		if !r.done { // finished static-batch rows hold no useful memory
			consider(r)
		}
	}
	for _, r := range e.pending {
		consider(r)
	}
	return newest
}

// admit moves eligible pending requests into the active batch.
func (e *Engine) admit(now time.Duration) {
	sys := e.cfg.System
	if !sys.ContinuousBatching && len(e.active) > 0 {
		return // static batch runs to completion
	}
	kept := e.pending[:0]
	blocked := false
	for _, r := range e.pending {
		if blocked {
			kept = append(kept, r)
			continue
		}
		if len(e.active) >= sys.MaxBatch {
			blocked = true
			kept = append(kept, r)
			continue
		}
		if !sys.CrossLoRABatching && len(e.active) > 0 && r.Model != e.active[0].Model {
			// Same-model-only systems batch the consecutive FCFS run
			// at the queue head; a different model blocks admission.
			blocked = true
			kept = append(kept, r)
			continue
		}
		if r.loraReady > now || r.kvReady > now {
			// Adapter still in flight over PCIe (§5.2) or migrated
			// KvCache still crossing the link; it joins the batch
			// naturally next step. Others may pass.
			kept = append(kept, r)
			continue
		}
		if e.kv.Has(kvcache.SeqID(r.ID)) {
			// Imported via KV migration: pages were allocated at import
			// and the prefill already happened on the source GPU.
			e.active = append(e.active, r)
			continue
		}
		need := e.kvNeed(r)
		if err := e.kv.Allocate(kvcache.SeqID(r.ID), need); err != nil {
			blocked = true // FCFS: wait for memory, don't skip ahead
			kept = append(kept, r)
			continue
		}
		r.kv = e.kv.Lookup(kvcache.SeqID(r.ID))
		e.reservedPages -= e.kv.PagesFor(need)
		e.active = append(e.active, r)
	}
	e.pending = kept
}

// ensureDecodeCapacity evicts newest requests until every row of the
// upcoming invocation can append its new token to the KvCache: decode
// rows and the prefill rows selected this step each grow by one slot,
// which takes a fresh page when the row's pages are full. Returns the
// evicted requests.
func (e *Engine) ensureDecodeCapacity(now time.Duration) []*Request {
	evicted := e.evictedScratch[:0]
	if !e.cfg.System.PagedKV {
		return evicted // contiguous systems reserved the worst case up front
	}
	for {
		need := 0
		prefills := 0
		for _, r := range e.active {
			if !r.prefilled {
				if prefills < e.cfg.System.MaxPrefillPerStep {
					prefills++
					if e.kv.PageFull(r.kv) {
						need++
					}
				}
				continue
			}
			if !r.done && e.kv.PageFull(r.kv) {
				need++
			}
		}
		if need <= e.kv.FreePages() {
			return evicted
		}
		v := e.EvictNewest(now)
		if v == nil {
			return evicted
		}
		evicted = append(evicted, v)
	}
}

// Step runs one batched model invocation starting at simulated time now.
// It admits eligible queued requests, assembles the mixed prefill/decode
// batch with SGMV segment grouping, charges the invocation latency, and
// applies all effects (token emission, KvCache growth, completion).
//
// The returned StepResult's Finished and Evicted slices alias buffers
// the engine reuses: they are valid until the next call to Step. Every
// existing driver (cluster runner, HTTP runner, serve loop) consumes
// them before stepping the same engine again.
//
//punica:zeroalloc steady-state stepping must not allocate (see BenchmarkStepAllocs)
func (e *Engine) Step(now time.Duration) StepResult {
	e.version++
	e.admit(now)
	evicted := e.ensureDecodeCapacity(now)
	e.evictedScratch = evicted

	prefills, decodes := e.prefillScratch[:0], e.decodeScratch[:0]
	for _, r := range e.active {
		switch {
		case !r.prefilled:
			if len(prefills) < e.cfg.System.MaxPrefillPerStep {
				prefills = append(prefills, r)
			}
		case !r.done:
			decodes = append(decodes, r)
		default:
			decodes = append(decodes, r) // wasted slot in a static batch
		}
	}
	e.prefillScratch, e.decodeScratch = prefills, decodes
	if len(prefills) == 0 && len(decodes) == 0 {
		if invariant.Enabled {
			e.checkQuiescence()
		}
		return StepResult{Idle: true, Evicted: evicted}
	}

	inv := e.buildInvocation(prefills, decodes)
	latency := e.costs.InvokeTime(inv)
	end := now + latency

	res := StepResult{
		Latency:         latency,
		EndsAt:          end,
		BatchSize:       len(prefills) + len(decodes),
		PrefillRequests: len(prefills),
		Evicted:         evicted,
		Finished:        e.finishedScratch[:0],
	}

	for _, r := range prefills {
		res.PrefillTokens += r.ContextLen()
		r.prefilled = true
		e.produceToken(r, end, &res)
	}
	for _, r := range decodes {
		if r.done {
			res.WastedDecodes++
			continue
		}
		e.produceToken(r, end, &res)
	}
	e.finishStep(end, &res)
	e.finishedScratch = res.Finished // adopt any growth for reuse

	e.stats.Steps++
	e.stats.BusyTime += latency
	e.stats.TokensGenerated += int64(res.TokensGenerated)
	e.stats.PrefillTokens += int64(res.PrefillTokens)
	e.stats.WastedDecodes += int64(res.WastedDecodes)
	return res
}

// checkQuiescence asserts, under the punica_invariants build, that a
// fully idle engine (no active batch, no pending queue, no outstanding
// migration reservations) holds no resources: pinned adapter bytes and
// resident KV sequences must both be zero, or a request's teardown path
// leaked a reference. Called from Step's idle return; cluster.Run makes
// the same check once at end-of-run, but the panic here points at the
// step where the leak first became observable.
func (e *Engine) checkQuiescence() {
	if len(e.active) > 0 || len(e.pending) > 0 || e.reservedPages > 0 {
		return
	}
	if e.reservedPages < 0 {
		invariant.Failf("core: negative page reservations (%d)", e.reservedPages)
	}
	if e.store != nil {
		if pb := e.store.PinnedBytes(); pb != 0 {
			invariant.Failf("core: idle engine holds %d pinned adapter bytes (pin leak)", pb)
		}
	}
	if n := e.kv.Sequences(); n != 0 || e.kv.UsedPages() != 0 {
		invariant.Failf("core: idle engine holds %d KV sequences over %d pages (page leak)",
			n, e.kv.UsedPages())
	}
}

// buildInvocation assembles the layer-model view of the batch: prefill
// requests first, then decodes, with tokens grouped by LoRA model into
// SGMV segments ("The tail of Prefill requests and the head of Decode
// requests can share a LoRA model if possible", §6). Every intermediate
// lives in engine-owned scratch (segment accumulation is a linear scan —
// a batch holds at most MaxBatch distinct models), so assembling an
// invocation allocates nothing in steady state; the invocation is
// consumed by the cost model within Step and never retained.
func (e *Engine) buildInvocation(prefills, decodes []*Request) layer.Invocation {
	inv := layer.Invocation{LoRARank: e.cfg.Rank}
	prefillLens, decodeCtxs := e.prefillLens[:0], e.decodeCtxs[:0]
	for _, r := range prefills {
		prefillLens = append(prefillLens, r.ContextLen())
	}
	for _, r := range decodes {
		decodeCtxs = append(decodeCtxs, r.ContextLen())
	}
	e.prefillLens, e.decodeCtxs = prefillLens, decodeCtxs
	inv.PrefillLens, inv.DecodeContexts = prefillLens, decodeCtxs
	if e.cfg.System.LoRA == LoRANone {
		return inv
	}
	segModels, segCounts := e.segModels[:0], e.segCounts[:0]
	addTokens := func(m lora.ModelID, n int) {
		for i, id := range segModels {
			if id == m {
				segCounts[i] += n
				return
			}
		}
		segModels = append(segModels, m)
		segCounts = append(segCounts, n)
	}
	for _, r := range prefills {
		addTokens(r.Model, r.ContextLen())
	}
	for _, r := range decodes {
		addTokens(r.Model, 1)
	}
	e.segModels, e.segCounts = segModels, segCounts
	maxRank := 0
	for _, m := range segModels {
		if r := e.reg.Ensure(m).Rank; r > maxRank {
			maxRank = r
		}
	}
	// SGMV pads every segment to the widest rank in the batch, so a
	// mixed-rank invocation runs at the largest adapter's cost. Uniform
	// fleets (the paper's setup) see exactly cfg.Rank here.
	if maxRank > 0 {
		inv.LoRARank = maxRank
	}
	bounds := append(e.segBounds[:0], 0)
	for _, n := range segCounts {
		bounds = append(bounds, bounds[len(bounds)-1]+n)
	}
	e.segBounds = bounds
	// The invocation is consumed synchronously inside this step; the
	// layer model reads the segment view before Step returns, so the
	// zero-copy wrapper over the reused bounds buffer is safe.
	inv.LoRASegments = sgmv.SegmentsOver(bounds) //punica:retains-copy consumed within this Step before segBounds is reused
	return inv
}

func (e *Engine) produceToken(r *Request, at time.Duration, res *StepResult) {
	if invariant.Enabled {
		e.checkSeqRecord(r)
	}
	// Grow the paged cache by the token just generated. Non-paged
	// systems reserved everything up front.
	if e.cfg.System.PagedKV {
		if err := e.kv.Grow(r.kv, 1); err != nil {
			// ensureDecodeCapacity ran before the step; prefill rows
			// were allocated their full context at admission, so a
			// failure here is an engine invariant violation.
			panic(fmt.Sprintf("core: KvCache extend failed after capacity check: %v", err))
		}
	}
	r.Generated++
	if r.FirstTokenAt == 0 {
		r.FirstTokenAt = at
	}
	var gap time.Duration
	if r.streaming && at > r.lastTokenAt {
		gap = at - r.lastTokenAt
	}
	eos := r.Finished()
	r.lastTokenAt, r.streaming = at, !eos
	res.TokensGenerated++
	if e.cfg.OnToken != nil {
		e.cfg.OnToken(Token{
			RequestID: r.ID,
			Index:     r.Generated - 1,
			TokenID:   tokenID(r.ID, r.Generated-1, e.cfg.Model.VocabSize),
			At:        at,
			EOS:       eos,
			Gap:       gap,
		})
	}
}

// checkSeqRecord asserts, under the punica_invariants build, that the
// KvCache record a request carries is the pool's live record for its id
// and, on paged systems, holds exactly the request's context.
func (e *Engine) checkSeqRecord(r *Request) {
	live := e.kv.Lookup(kvcache.SeqID(r.ID))
	if live == nil || live != r.kv {
		invariant.Failf("core: request %d carries KvCache record %p, pool holds %p", r.ID, r.kv, live)
	}
	if e.cfg.System.PagedKV && live.Tokens() != r.ContextLen() {
		invariant.Failf("core: request %d KvCache holds %d tokens, context is %d",
			r.ID, live.Tokens(), r.ContextLen())
	}
}

// finishStep retires completed requests. Continuous systems release them
// immediately; static systems keep slots occupied until the whole batch
// completes (the Fig. 6 waste).
func (e *Engine) finishStep(end time.Duration, res *StepResult) {
	if e.cfg.System.ContinuousBatching {
		remaining := e.active[:0]
		for _, r := range e.active {
			if r.prefilled && r.Finished() {
				e.retire(r, end, res)
			} else {
				remaining = append(remaining, r)
			}
		}
		e.active = remaining
		return
	}
	allDone := true
	for _, r := range e.active {
		if r.prefilled && r.Finished() && !r.done {
			r.done = true
			r.FinishedAt = end
			e.stats.Finished++
			res.Finished = append(res.Finished, r)
			if e.cfg.OnFinish != nil {
				e.cfg.OnFinish(r)
			}
		}
		if !r.done {
			allDone = false
		}
	}
	if allDone {
		for _, r := range e.active {
			e.releaseKV(r)
			e.releaseRequest(r)
		}
		e.active = e.active[:0]
	}
}

func (e *Engine) retire(r *Request, end time.Duration, res *StepResult) {
	r.FinishedAt = end
	e.releaseKV(r)
	e.releaseRequest(r)
	e.stats.Finished++
	res.Finished = append(res.Finished, r)
	if e.cfg.OnFinish != nil {
		e.cfg.OnFinish(r)
	}
}
