package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"punica/internal/sched"
	"punica/internal/serve"
)

// TestStreamReattachAcrossPartitionHeal is the net-chaos acceptance
// scenario: an injected partition (not a process kill) cuts the link to
// the runner that owns a mid-flight generation. The health prober —
// whose probes ride the same faulted transport — declares it failed,
// the request requeues onto the survivor, and the user's stream
// re-attaches there: every token index exactly once, EOS delivered.
// After the window heals, the injected-fault counters prove the
// partition (and nothing else) was the failure.
func TestStreamReattachAcrossPartitionHeal(t *testing.T) {
	rA := NewRunner("nfA", runnerConfig(), faultSpeedup)
	srvA := httptest.NewServer(rA.Handler())
	t.Cleanup(func() { srvA.Close(); rA.Close() })
	rB := NewRunner("nfB", runnerConfig(), faultSpeedup)
	var streamStart atomic.Int64 // B's first stream write, Unix ns; 0 before it
	srvB := httptest.NewServer(onFirstStreamWrite(rB.Handler(), func() {
		streamStart.Store(time.Now().UnixNano())
	}))
	t.Cleanup(func() { srvB.Close(); rB.Close() })

	// §5.1 routing sends the first request to the highest-UUID runner:
	// runner-01 (srvB, link 1) — the link we partition. Window: clean
	// for 1ms, hard partition for 5s, 1s heal ramp. The plan's clock
	// stands at 0 until runner B first writes to its /runner/stream
	// response, so the partition opens 1ms into the token stream while
	// the generation is still running.
	plan, err := ParseNetFaultPlan("seed=1; part=at:1ms,hold:5s,heal:1s,link:1")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewNetFaultInjector(plan)
	inj.now = func() time.Duration {
		if at := streamStart.Load(); at != 0 {
			return time.Since(time.Unix(0, at))
		}
		return 0
	}

	f := NewFrontendWithOptions([]string{srvA.URL, srvB.URL}, FrontendOptions{
		DrainInterval:   10 * time.Millisecond,
		HealthInterval:  20 * time.Millisecond,
		HealthTimeout:   150 * time.Millisecond,
		HealthThreshold: 2,
		RecoverWait:     10 * time.Second,
		NetFaults:       inj,
	})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()

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
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) != maxTokens {
		t.Fatalf("streamed %d events, want %d", len(events), maxTokens)
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d: duplicates or gaps across the partition", i, ev.Index)
		}
	}
	if !events[len(events)-1].EOS {
		t.Fatal("stream ended without EOS")
	}

	// The partition — visible in the injector's counters — is what the
	// frontend survived.
	if st := inj.Stats(); st.PartitionRefusals == 0 {
		t.Fatalf("injector stats = %+v, want partition refusals", st)
	}
	statsResp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		GPUFailures int64          `json:"gpu_failures"`
		Recovered   int64          `json:"recovered_requests"`
		NetFaults   *NetFaultStats `json:"net_faults"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.GPUFailures != 1 || stats.Recovered < 1 {
		t.Fatalf("stats = %+v, want 1 failure and >=1 recovery", stats)
	}
	if stats.NetFaults == nil || stats.NetFaults.PartitionRefusals == 0 {
		t.Fatalf("stats must expose injected-fault counters, got %+v", stats.NetFaults)
	}
}

// TestFrontendAdmission429 wires the admission layer through the remote
// frontend: once the runner and the bounded queue are full, /v1/generate
// answers 429 with the backpressure envelope and Retry-After.
func TestFrontendAdmission429(t *testing.T) {
	cfg := runnerConfig()
	cfg.System.MaxBatch = 1
	rn := NewRunner("nfQ", cfg, 50)
	srv := httptest.NewServer(rn.Handler())
	t.Cleanup(func() { srv.Close(); rn.Close() })

	f := NewFrontendWithOptions([]string{srv.URL}, FrontendOptions{
		DrainInterval: 10 * time.Millisecond,
		Admission:     sched.AdmissionConfig{MaxQueue: 1},
	})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	// Cancelling the context first (defers run LIFO) tears the filler
	// streams down so Close does not wait out their generations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	post := func() (*http.Response, error) {
		body, _ := json.Marshal(serve.GenerateRequest{Model: 1, PromptLen: 32, MaxTokens: 4096})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			front.URL+"/v1/generate", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	// Fill the single batch slot and the single queue slot with
	// streaming requests.
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := post()
			if err == nil {
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		qn := f.sch.QueueLen()
		f.mu.Unlock()
		if qn >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	var resp *http.Response
	var err error
	for {
		resp, err = post()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last status %d", resp.StatusCode)
		}
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var bp serve.Backpressure
	if err := json.NewDecoder(resp.Body).Decode(&bp); err != nil {
		t.Fatal(err)
	}
	if bp.Code != serve.CodeQueueFull {
		t.Fatalf("envelope code = %q, want %q", bp.Code, serve.CodeQueueFull)
	}
}
