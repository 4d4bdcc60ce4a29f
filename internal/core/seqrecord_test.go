package core

import (
	"testing"
	"time"

	"punica/internal/kvcache"
)

// checkRecords asserts that every request resident on e carries the
// pool's live KvCache record for its id: active rows always hold one,
// pending rows only when they arrived by KV import. On paged systems
// the record holds exactly the request's context.
func checkRecords(t *testing.T, e *Engine) {
	t.Helper()
	for _, r := range e.active {
		live := e.kv.Lookup(kvcache.SeqID(r.ID))
		if live == nil || r.kv != live {
			t.Fatalf("active request %d carries record %p, pool holds %p", r.ID, r.kv, live)
		}
		if e.cfg.System.PagedKV && !r.done && live.Tokens() != r.ContextLen() {
			t.Fatalf("request %d record holds %d tokens, context is %d", r.ID, live.Tokens(), r.ContextLen())
		}
	}
	for _, r := range e.pending {
		if live := e.kv.Lookup(kvcache.SeqID(r.ID)); r.kv != live {
			t.Fatalf("pending request %d carries record %p, pool holds %p", r.ID, r.kv, live)
		}
	}
}

// checkDetached asserts that a request off every engine holds no record.
func checkDetached(t *testing.T, r *Request) {
	t.Helper()
	if r.kv != nil {
		t.Fatalf("request %d still carries a KvCache record after leaving its engine", r.ID)
	}
}

// drainChecked is drain with checkRecords after every step.
func drainChecked(t *testing.T, e *Engine, now time.Duration) time.Duration {
	t.Helper()
	for i := 0; e.Busy(); i++ {
		if i > 100000 {
			t.Fatal("drain did not terminate")
		}
		res := e.Step(now)
		checkRecords(t, e)
		for _, ev := range res.Evicted {
			checkDetached(t, ev)
			if err := e.Enqueue(ev, now); err != nil {
				t.Fatalf("re-enqueue evicted: %v", err)
			}
		}
		if res.Idle {
			at, ok := e.EarliestPendingReady()
			if !ok || at <= now {
				t.Fatal("engine idle but busy with no wake-up")
			}
			now = at
			continue
		}
		for _, f := range res.Finished {
			checkDetached(t, f)
		}
		now = res.EndsAt
	}
	return now
}

// TestSeqRecordEvictReadmitSameEngine evicts a request under KvCache
// pressure and re-admits it on the same engine: the eviction drops its
// record, and re-admission hands it the fresh one.
func TestSeqRecordEvictReadmitSameEngine(t *testing.T) {
	cfg := punicaConfig()
	cfg.KVCapacityBytes = 16 * 16 * cfg.Model.KVBytesPerToken() // 16 pages
	e := NewEngine(cfg)
	a := req(1, 1, 100, 60, 0)
	b := req(2, 2, 100, 60, time.Millisecond)
	for _, r := range []*Request{a, b} {
		if err := e.Enqueue(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	drainChecked(t, e, 0)
	if e.Stats().Evictions == 0 {
		t.Fatal("the pool never filled: nothing was evicted and re-admitted")
	}
	if !a.Finished() || !b.Finished() {
		t.Fatal("requests did not finish")
	}
	checkDetached(t, a)
	checkDetached(t, b)
}

// TestSeqRecordExportImport moves a prefilled request to a decode engine
// and back again: export drops the record, and each import carries the
// destination pool's new one, the source's own included.
func TestSeqRecordExportImport(t *testing.T) {
	src := prefillEngine()
	dst := decodeEngine()
	r := req(1, 3, 200, 16, 0)
	if err := src.Enqueue(r, 0); err != nil {
		t.Fatal(err)
	}
	now := stepUntilPrefilled(t, src, 1, 0)
	checkRecords(t, src)
	before := r.kv

	h, err := src.ExportKV(1, now)
	if err != nil {
		t.Fatal(err)
	}
	checkDetached(t, r)
	if err := src.ImportKV(h, now); err != nil { // bounce back onto the source
		t.Fatal(err)
	}
	checkRecords(t, src)
	if r.kv == nil || r.kv == before {
		t.Fatal("re-import onto the source did not hand over the new record")
	}

	h, err = src.ExportKV(1, now)
	if err != nil {
		t.Fatal(err)
	}
	checkDetached(t, r)
	if err := dst.ImportKV(h, now); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, dst)
	if r.kv != dst.kv.Lookup(1) {
		t.Fatal("import did not hand over the destination's record")
	}
	drainChecked(t, dst, now)
	if !r.Finished() {
		t.Fatal("migrated request did not finish")
	}
	checkDetached(t, r)
}

// TestSeqRecordCrashRequeue crashes an engine holding active and
// imported-pending rows and requeues the survivors on a fresh engine.
func TestSeqRecordCrashRequeue(t *testing.T) {
	src := prefillEngine()
	e := NewEngine(punicaConfig())
	imported := req(1, 1, 150, 12, 0)
	if err := src.Enqueue(imported, 0); err != nil {
		t.Fatal(err)
	}
	now := stepUntilPrefilled(t, src, 1, 0)
	h, err := src.ExportKV(1, now)
	if err != nil {
		t.Fatal(err)
	}
	active := req(2, 2, 64, 30, 0)
	if err := e.Enqueue(active, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && active.Generated < 3; i++ {
		res := e.Step(now)
		if res.Idle {
			now, _ = e.EarliestPendingReady()
			continue
		}
		now = res.EndsAt
	}
	if active.Generated < 3 {
		t.Fatal("setup: the active request never decoded")
	}
	if err := e.ImportKV(h, now); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, e)
	if active.kv == nil || imported.kv == nil {
		t.Fatal("setup: crash victims hold no KvCache")
	}

	lost, _ := e.Crash(now)
	if len(lost) != 2 {
		t.Fatalf("crash returned %d requests, want 2", len(lost))
	}
	for _, r := range lost {
		checkDetached(t, r)
	}
	fresh := NewEngine(punicaConfig())
	for _, r := range lost {
		if err := fresh.Enqueue(r, now); err != nil {
			t.Fatal(err)
		}
	}
	drainChecked(t, fresh, now)
	for _, r := range lost {
		if !r.Finished() {
			t.Fatalf("requeued request %d did not finish", r.ID)
		}
		checkDetached(t, r)
	}
}

// TestSeqRecordCancelImportedPending cancels an imported request before
// its transfer completes: the release drops the record with the pages.
func TestSeqRecordCancelImportedPending(t *testing.T) {
	src := prefillEngine()
	dst := decodeEngine()
	r := req(1, 0, 150, 8, 0)
	if err := src.Enqueue(r, 0); err != nil {
		t.Fatal(err)
	}
	now := stepUntilPrefilled(t, src, 1, 0)
	h, err := src.ExportKV(1, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportKV(h, now); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, dst)
	if r.kv == nil {
		t.Fatal("imported pending request holds no record")
	}
	if got := dst.Cancel(1, now); got != r {
		t.Fatal("cancel of the imported pending request found nothing")
	}
	checkDetached(t, r)
	if dst.kv.Lookup(1) != nil {
		t.Fatal("cancel left the sequence resident")
	}
}
