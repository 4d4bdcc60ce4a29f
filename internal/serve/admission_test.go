package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/sched"
)

// admissionServer is testServer with caps: one single-slot GPU so the
// queue fills immediately, and a tiny admission queue. The tests'
// 4096-token generations hold the slot for ~190 ms of wall time
// (4096 × ~12 ms decode step ÷ speedup 250), many times longer than a
// test takes to fill the queue and post the request it expects refused.
func admissionServer(t *testing.T, adm sched.AdmissionConfig, fairness bool) *Server {
	t.Helper()
	sys := core.PunicaSystem()
	sys.MaxBatch = 1
	s := New(Config{
		NumGPUs: 1,
		Engine: core.Config{
			System: sys,
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		Speedup:   250,
		Fairness:  fairness,
		Admission: adm,
	})
	t.Cleanup(s.Close)
	return s
}

func TestSubmitRejectsOverCap(t *testing.T) {
	s := admissionServer(t, sched.AdmissionConfig{MaxQueue: 2}, false)
	// Long outputs keep the slot busy while we overfill the queue.
	if _, _, err := s.Submit(1, 64, 4096); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	queued := 0
	var rejected error
	for i := 0; i < 10 && rejected == nil; i++ {
		_, _, err := s.Submit(1, 64, 4096)
		if err != nil {
			rejected = err
			break
		}
		queued++
	}
	if !errors.Is(rejected, sched.ErrQueueFull) {
		t.Fatalf("never hit ErrQueueFull (queued %d): %v", queued, rejected)
	}
	st := s.Snapshot()
	if st.Rejected == 0 {
		t.Fatalf("stats show no rejections: %+v", st)
	}
	if st.QueueLen > 2 {
		t.Fatalf("queue len %d exceeds cap 2", st.QueueLen)
	}
	if st.QueuePeak > 2 {
		t.Fatalf("queue peak %d exceeds cap 2", st.QueuePeak)
	}
}

func TestHTTPGenerate429WithRetryAfter(t *testing.T) {
	s := admissionServer(t, sched.AdmissionConfig{MaxQueue: 1}, false)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	post := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(GenerateRequest{Model: 1, PromptLen: 64, MaxTokens: 4096})
		resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}

	// Saturate: the single batch slot plus the one queue slot. The first
	// requests stream (their handlers hold the connection), so fire them
	// in goroutines and only read the rejection synchronously.
	var wg sync.WaitGroup
	cancels := make(chan *http.Response, 8)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post()
			cancels <- resp
		}()
	}
	defer func() {
		go func() { wg.Wait(); close(cancels) }()
		for resp := range cancels {
			resp.Body.Close()
		}
	}()

	// Wait until both in-flight requests occupy slot+queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Snapshot()
		if st.QueueLen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	var resp *http.Response
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp = post()
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last status %d", resp.StatusCode)
		}
	}
	defer resp.Body.Close()

	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	var bp Backpressure
	if err := json.NewDecoder(resp.Body).Decode(&bp); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if bp.Code != CodeQueueFull {
		t.Fatalf("envelope code = %q, want %q", bp.Code, CodeQueueFull)
	}
	if bp.RetryAfterSeconds <= 0 {
		t.Fatalf("envelope retry_after_seconds = %v, want > 0", bp.RetryAfterSeconds)
	}
	if st := s.Snapshot(); st.HTTP429 == 0 {
		t.Fatalf("stats show no 429s: %+v", st)
	}
}

func TestHTTPShedVictimGets429(t *testing.T) {
	s := admissionServer(t, sched.AdmissionConfig{
		MaxQueue: 1,
		Policy:   sched.ShedBestEffort,
	}, false)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	post := func(tenant int64) (*http.Response, error) {
		body, _ := json.Marshal(GenerateRequest{Model: 1, PromptLen: 64, MaxTokens: 4096, Tenant: tenant})
		return http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	}

	// Occupy the batch slot (tenant 1) and the queue slot (tenant 2);
	// the queued tenant-2 request is the shed victim when tenant 3
	// arrives: tenant 2 holds the most queued work and is not the
	// arriving tenant.
	type result struct {
		tenant int64
		status int
		code   string
	}
	results := make(chan result, 3)
	var wg sync.WaitGroup
	launch := func(tenant int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := post(tenant)
			if err != nil {
				results <- result{tenant, 0, fmt.Sprint(err)}
				return
			}
			defer resp.Body.Close()
			var bp Backpressure
			if resp.StatusCode != http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&bp)
			} else {
				_, _ = io.Copy(io.Discard, resp.Body)
			}
			results <- result{tenant, resp.StatusCode, bp.Code}
		}()
	}

	launch(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Streams < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	launch(2)
	for s.Snapshot().QueueLen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	launch(3)

	wg.Wait()
	close(results)
	byTenant := map[int64]result{}
	for r := range results {
		byTenant[r.tenant] = r
	}
	if r := byTenant[2]; r.status != http.StatusTooManyRequests || r.code != CodeShed {
		t.Fatalf("shed victim: status=%d code=%q, want 429/%q (all: %+v)", r.status, r.code, CodeShed, byTenant)
	}
	st := s.Snapshot()
	if st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
}

func TestRetryAfterClampedToWallSeconds(t *testing.T) {
	s := admissionServer(t, sched.AdmissionConfig{MaxQueue: 1}, false)
	got := s.RetryAfter()
	if got < time.Second || got > 120*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 120s]", got)
	}
}
