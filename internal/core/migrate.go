package core

import (
	"fmt"
	"time"

	"punica/internal/hw"
	"punica/internal/kvcache"
)

// KVHandle is the unit of deliberate KV migration: one request plus the
// page-exact accounting of the KvCache it computed, detached from any
// engine. It generalises the Crash path from drop-everything-and-
// recompute to move-one-request-without-recomputing — the primitive
// prefill/decode disaggregation schedules on purpose.
type KVHandle struct {
	Request *Request
	KV      kvcache.Handle
}

// TransferTime returns how long the handle's KvCache payload takes to
// cross link — the migration cost the destination engine charges before
// the request may join a batch.
func (h KVHandle) TransferTime(link hw.Link) time.Duration {
	return link.TransferTime(h.KV.Bytes)
}

// ExportKV detaches a prefilled resident request from the engine as a
// migration handle: its KvCache pages are freed page-exactly (the handle
// remembers tokens, pages and payload bytes) and its adapter pin is
// released, but unlike Cancel the request keeps its prefilled state — the
// importing engine resumes decoding without recomputation. Only
// prefilled, unfinished requests export; exporting anything else is an
// error and changes nothing.
func (e *Engine) ExportKV(id int64, now time.Duration) (KVHandle, error) {
	e.version++
	seq := kvcache.SeqID(id)
	detach := func(r *Request) (KVHandle, error) {
		if !r.prefilled || r.done {
			return KVHandle{}, fmt.Errorf("core: request %d is not in a migratable state", id)
		}
		h, err := e.kv.Export(seq)
		if err != nil {
			return KVHandle{}, err
		}
		r.kv = nil
		e.releaseAdapter(r)
		e.stats.KVExports++
		return KVHandle{Request: r, KV: h}, nil
	}
	for i, r := range e.active {
		if r.ID != id {
			continue
		}
		h, err := detach(r)
		if err != nil {
			return KVHandle{}, err
		}
		e.active = append(e.active[:i], e.active[i+1:]...)
		return h, nil
	}
	for i, r := range e.pending {
		if r.ID != id {
			continue
		}
		if !e.kv.Has(seq) {
			return KVHandle{}, fmt.Errorf("core: request %d holds no KvCache to export", id)
		}
		h, err := detach(r)
		if err != nil {
			return KVHandle{}, err
		}
		e.pending = append(e.pending[:i], e.pending[i+1:]...)
		return h, nil
	}
	return KVHandle{}, fmt.Errorf("core: request %d not resident", id)
}

// ImportKV lands a migration handle on this engine: the adapter is
// pinned (ErrStoreFull propagates as the usual §5.2 backpressure), the
// KvCache pages are allocated page-exactly under this pool's geometry,
// and the request joins the pending queue already prefilled. It becomes
// batch-eligible once both the adapter copy and the KV link transfer
// complete — the sized migration cost Config.KVLink models. A failed
// import leaves the engine untouched so the caller can try another
// destination or fall back to the recompute path. Any role accepts
// imports; role restrictions apply to the Enqueue path only.
func (e *Engine) ImportKV(h KVHandle, now time.Duration) error {
	e.version++
	r := h.Request
	if r == nil {
		return fmt.Errorf("core: import of empty KV handle")
	}
	if kvcache.SeqID(r.ID) != h.KV.Seq {
		return fmt.Errorf("core: KV handle sequence %d does not match request %d", h.KV.Seq, r.ID)
	}
	if e.WorkingSet() >= e.cfg.System.MaxBatch {
		return fmt.Errorf("core: import rejected, batch full (%d/%d)",
			e.WorkingSet(), e.cfg.System.MaxBatch)
	}
	var loraReady time.Duration
	if e.cfg.System.LoRA != LoRANone && !r.hasLoRA {
		ready, err := e.acquireAdapter(r.Model, now)
		if err != nil {
			return fmt.Errorf("core: adapter %d: %w", r.Model, err)
		}
		loraReady = ready
		r.hasLoRA = true
	}
	if err := e.kv.Import(h.KV); err != nil {
		e.releaseAdapter(r)
		return err
	}
	r.kv = e.kv.Lookup(h.KV.Seq)
	if r.AdmittedAt == 0 {
		r.AdmittedAt = now
	}
	r.loraReady = loraReady
	r.kvReady = now + h.TransferTime(e.cfg.kvLink())
	r.prefilled = true
	r.done = false
	e.insertPending(r)
	e.stats.KVImports++
	// Transfer bytes are charged where the transfer lands; a zero-byte
	// handle (a bounce back to its source) moves nothing.
	e.stats.KVMovedBytes += h.KV.Bytes
	return nil
}

// Migratable returns the ids of resident requests whose prefill is done
// but whose decode is not — on a prefill-role engine these are the
// handoffs the two-pool router should move to the decode pool at the
// next opportunity. Other roles return nil: unified engines decode in
// place, decode engines are already the destination.
func (e *Engine) Migratable() []int64 {
	if e.cfg.Role != RolePrefill {
		return nil
	}
	var ids []int64
	for _, r := range e.active {
		if r.prefilled && !r.done {
			ids = append(ids, r.ID)
		}
	}
	for _, r := range e.pending {
		// Re-imported fallback landings also wait here for a second try.
		if r.prefilled && !r.done && e.kv.Has(kvcache.SeqID(r.ID)) {
			ids = append(ids, r.ID)
		}
	}
	return ids
}
