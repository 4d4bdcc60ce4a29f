package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/serve"
)

// TestRunnerDrainSalvagesWorkingSet: POST /runner/drain (Client.Crash)
// returns every resident request with Generated intact and leaves the
// runner empty with zero pinned bytes.
func TestRunnerDrainSalvagesWorkingSet(t *testing.T) {
	_, srv := startRunner(t, "rD", 8)
	client := NewClient(srv.URL)
	for i := int64(1); i <= 2; i++ {
		if err := client.Enqueue(&core.Request{
			ID: i, Model: lora.ModelID(i), PromptLen: 32, OutputLen: 100000,
			Arrival: time.Duration(i) * time.Millisecond,
		}, 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let generation start
	lost, _ := client.Crash(0)
	if len(lost) != 2 {
		t.Fatalf("drain salvaged %d requests, want 2", len(lost))
	}
	if lost[0].ID != 1 || lost[1].ID != 2 {
		t.Fatalf("drain order wrong: %+v", lost)
	}
	st, err := client.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkingSet != 0 || st.StorePinnedBytes != 0 {
		t.Fatalf("drained runner not empty: ws=%d pinned=%d", st.WorkingSet, st.StorePinnedBytes)
	}
	// Crash against a dead machine salvages nothing, quickly.
	deadClient := NewClient("http://127.0.0.1:1")
	if got, kv := deadClient.Crash(0); got != nil || kv != 0 {
		t.Fatalf("dead runner drain returned (%v, %d)", got, kv)
	}
}

// TestClientProbe: a live runner answers inside the deadline; a dead
// address fails.
func TestClientProbe(t *testing.T) {
	_, srv := startRunner(t, "rP", 0)
	client := NewClient(srv.URL)
	if err := client.Probe(500 * time.Millisecond); err != nil {
		t.Fatalf("probe of live runner: %v", err)
	}
	dead := NewClient("http://127.0.0.1:1")
	if dead.Probe(200*time.Millisecond) == nil {
		t.Fatal("probe of dead address must fail")
	}
}

// TestFrontendSurvivesRunnerDeath is the remote acceptance scenario: a
// runner is killed mid-generation; the health monitor declares it
// failed, requeues its work onto the survivor, and the user's token
// stream re-attaches and completes — every index exactly once, EOS
// delivered — instead of erroring the run.
func TestFrontendSurvivesRunnerDeath(t *testing.T) {
	cfgA := runnerConfig()
	rA := NewRunner("rA", cfgA, faultSpeedup)
	srvA := httptest.NewServer(rA.Handler())
	t.Cleanup(func() { srvA.Close(); rA.Close() })
	cfgB := runnerConfig()
	rB := NewRunner("rB", cfgB, faultSpeedup)
	// Kill the owning runner once its token stream has begun: the first
	// write to runner B's /runner/stream response closes srvB, so the
	// generation is still running when the runner dies.
	var srvB *httptest.Server
	killed := make(chan struct{})
	srvB = httptest.NewServer(onFirstStreamWrite(rB.Handler(), func() {
		go func() {
			srvB.Close()
			close(killed)
		}()
	}))
	// srvB is killed mid-test; Close is idempotent.
	t.Cleanup(srvB.Close)
	t.Cleanup(rB.Close)

	f := NewFrontendWithOptions([]string{srvA.URL, srvB.URL}, FrontendOptions{
		DrainInterval:   10 * time.Millisecond,
		HealthInterval:  20 * time.Millisecond,
		HealthTimeout:   150 * time.Millisecond,
		HealthThreshold: 2,
		RecoverWait:     10 * time.Second,
	})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	// §5.1 routing sends the first request to the highest-UUID runner:
	// runner-01 (srvB) — the one we kill.
	const maxTokens = faultTokens
	body, _ := json.Marshal(serve.GenerateRequest{Model: 3, PromptLen: 64, MaxTokens: maxTokens})
	resp, err := http.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate -> %d", resp.StatusCode)
	}

	var events []TokenEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev TokenEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	<-killed
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) != maxTokens {
		t.Fatalf("streamed %d events, want %d", len(events), maxTokens)
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d: duplicates or gaps across recovery", i, ev.Index)
		}
	}
	if !events[len(events)-1].EOS {
		t.Fatal("stream ended without EOS")
	}

	// The frontend accounted the failure and the recovery.
	statsResp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		GPUFailures   int64    `json:"gpu_failures"`
		Recovered     int64    `json:"recovered_requests"`
		FailedRunners []string `json:"failed_runners"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.GPUFailures != 1 || stats.Recovered < 1 || len(stats.FailedRunners) != 1 {
		t.Fatalf("stats = %+v, want 1 failure and >=1 recovery", stats)
	}
}

// The fault tests size their generation to outlast failure detection
// (two failed 20 ms health probes, ~40 ms) at least 5×: a decode step
// models ~12 ms, so faultTokens at faultSpeedup stream for about
// 160 × 12 ms ÷ 5 ≈ 380 ms of wall time. The runners pace at the
// modelled rate, so nothing but this sizing keeps the generation running
// until the frontend declares its runner failed.
const (
	faultTokens  = 160
	faultSpeedup = 5
)

// onFirstStreamWrite wraps a runner's handler so that fn runs once,
// just before the first write to any /runner/stream response: a fault
// started there lands while a generation is streaming, however fast the
// host runs it. A wall-clock timer cannot promise that; under -race a
// short generation may finish before the timer fires.
func onFirstStreamWrite(h http.Handler, fn func()) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/runner/stream" {
			w = &firstWriteHook{ResponseWriter: w, once: &once, fn: fn}
		}
		h.ServeHTTP(w, req)
	})
}

type firstWriteHook struct {
	http.ResponseWriter
	once *sync.Once
	fn   func()
}

func (w *firstWriteHook) Write(p []byte) (int, error) {
	w.once.Do(w.fn)
	return w.ResponseWriter.Write(p)
}

// Flush keeps the stream flushing through the wrapper.
func (w *firstWriteHook) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFrontendFailsRunnerWithoutStream: a runner death with no open
// user stream still requeues the placed work (Submit-level recovery).
func TestFrontendFailsRunnerWithoutStream(t *testing.T) {
	rA := NewRunner("sA", runnerConfig(), 50)
	srvA := httptest.NewServer(rA.Handler())
	t.Cleanup(func() { srvA.Close(); rA.Close() })
	rB := NewRunner("sB", runnerConfig(), 50)
	srvB := httptest.NewServer(rB.Handler())
	t.Cleanup(srvB.Close)
	t.Cleanup(rB.Close)

	f := NewFrontendWithOptions([]string{srvA.URL, srvB.URL}, FrontendOptions{
		DrainInterval:   10 * time.Millisecond,
		HealthInterval:  20 * time.Millisecond,
		HealthTimeout:   150 * time.Millisecond,
		HealthThreshold: 2,
	})
	defer f.Close()

	// Lands on the highest-UUID runner (srvB).
	id, _, err := f.Submit(1, 32, 400, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srvB.Close()

	// Wait for the health monitor to fail srvB and requeue onto srvA.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, gpu, ok := f.owner(id)
		if ok && f.clients[gpu].base == srvA.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request was not re-placed on the surviving runner")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := NewClient(srvA.URL).FetchState()
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkingSet != 1 {
		t.Fatalf("survivor working set = %d, want the recovered request", st.WorkingSet)
	}
}
