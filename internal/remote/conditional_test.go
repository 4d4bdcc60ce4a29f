package remote

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/models"
)

// conditionalTestRunner's speedup keeps TestClientFetchStateRevalidates'
// 256-token generation running for ~150 ms of wall time (256 × ~12 ms
// decode step ÷ 20): the runner paces at the modelled rate, and the
// test's 5 ms state polls must see the request while it is in flight.
func conditionalTestRunner(t *testing.T) (*Runner, *httptest.Server) {
	t.Helper()
	r := NewRunner("gpu-cond", core.Config{
		System: core.PunicaSystem(),
		GPU:    hw.A100(),
		Model:  models.Llama2_7B(),
		Rank:   models.DefaultLoRARank,
	}, 20)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	return r, srv
}

// TestStateConditionalGet pins the wire protocol: /runner/state carries
// an ETag derived from the engine's state version, and presenting it via
// If-None-Match yields 304 Not Modified with no body until the runner's
// state actually changes.
func TestStateConditionalGet(t *testing.T) {
	_, srv := conditionalTestRunner(t)

	resp, err := http.Get(srv.URL + "/runner/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("state response carries no ETag")
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/runner/state", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation with current ETag answered %d, want 304", resp2.StatusCode)
	}

	// Mutate the runner: the same ETag must now miss.
	c := NewClient(srv.URL)
	if err := c.Enqueue(&core.Request{ID: 1, Model: 3, PromptLen: 8, OutputLen: 4}, 0); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag after mutation answered %d, want 200", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change after an enqueue")
	}
}

// TestStateETagDistinguishesRestarts pins the boot nonce: a restarted
// runner's engine recounts versions from zero, so the same version
// number on a fresh process must yield a different ETag — otherwise a
// client that cached state from the previous incarnation would get a
// false 304 and schedule against pre-restart state.
func TestStateETagDistinguishesRestarts(t *testing.T) {
	_, srv1 := conditionalTestRunner(t)
	_, srv2 := conditionalTestRunner(t)
	etagOf := func(url string) string {
		resp, err := http.Get(url + "/runner/state")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("ETag")
	}
	e1, e2 := etagOf(srv1.URL), etagOf(srv2.URL)
	if e1 == "" || e1 == e2 {
		t.Fatalf("two runner incarnations at the same version share ETag %q", e1)
	}

	// The old incarnation's tag must not validate against the new one.
	req, _ := http.NewRequest(http.MethodGet, srv2.URL+"/runner/state", nil)
	req.Header.Set("If-None-Match", e1)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-incarnation ETag answered %d, want 200", resp.StatusCode)
	}
}

// TestBootNonceInjectable pins the entropy seam: with BootEntropy
// swapped for a deterministic source, the boot nonce — and therefore
// the full /runner/state ETag — is exactly predictable, which is what
// lets restart-semantics tests assert tag values instead of mere
// inequality.
func TestBootNonceInjectable(t *testing.T) {
	orig := BootEntropy
	t.Cleanup(func() { BootEntropy = orig })
	BootEntropy = func(b []byte) {
		for i := range b {
			b[i] = byte(i + 1) // nonce 0102030405060708
		}
	}
	_, srv := conditionalTestRunner(t)

	resp, err := http.Get(srv.URL + "/runner/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get("ETag"), `"0102030405060708-v0"`; got != want {
		t.Fatalf("pinned-nonce ETag = %s, want %s", got, want)
	}

	// A "restarted" runner under the same pinned entropy reproduces the
	// tag bit-for-bit: nonce injection is the only source of variation.
	_, srv2 := conditionalTestRunner(t)
	resp2, err := http.Get(srv2.URL + "/runner/state")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("ETag"); got != `"0102030405060708-v0"` {
		t.Fatalf("second incarnation under pinned entropy: ETag = %s", got)
	}
}

// TestClientFetchStateRevalidates pins the client side: repeated
// FetchState calls against an idle runner are served from the
// conditional-GET cache, and a mutation is observed on the next fetch.
func TestClientFetchStateRevalidates(t *testing.T) {
	_, srv := conditionalTestRunner(t)
	c := NewClient(srv.URL)

	st1, err := c.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.FetchState() // idle runner: served via 304
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version != st1.Version || st2.WorkingSet != st1.WorkingSet {
		t.Fatalf("revalidated state diverged: %+v vs %+v", st1, st2)
	}

	if err := c.Enqueue(&core.Request{ID: 7, Model: 2, PromptLen: 8, OutputLen: 256}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st3, err := c.FetchState()
		if err != nil {
			t.Fatal(err)
		}
		if st3.Version > st1.Version && st3.WorkingSet == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state never reflected the enqueue: %+v", st3)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
