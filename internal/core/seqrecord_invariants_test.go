//go:build punica_invariants

package core

import (
	"strings"
	"testing"

	"punica/internal/invariant"
	"punica/internal/kvcache"
)

// TestProduceTokenAssertsLiveRecord swaps a decoding request's KvCache
// record for one the pool does not hold: the next step's token must
// trip the invariant instead of growing a dead record.
func TestProduceTokenAssertsLiveRecord(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("test compiled without punica_invariants semantics")
	}
	e := NewEngine(punicaConfig())
	r := req(1, 1, 64, 30, 0)
	if err := e.Enqueue(r, 0); err != nil {
		t.Fatal(err)
	}
	now, _ := e.EarliestPendingReady()
	for i := 0; i < 100 && r.Generated < 2; i++ {
		now = e.Step(now).EndsAt
	}
	if r.Generated < 2 {
		t.Fatal("setup: the request never decoded")
	}
	r.kv = new(kvcache.Seq)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "carries KvCache record") {
			t.Fatalf("stale record went unnoticed (recovered %q)", msg)
		}
	}()
	e.Step(now)
}
