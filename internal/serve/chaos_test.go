package serve

import (
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/models"
)

// TestServerSurvivesGPUFailure kills one of two in-process GPUs while a
// request is generating on it. The request is requeued onto the
// survivor with prefill recomputation; because the same request object
// recovers, Generated carries over and the open token stream resumes
// seamlessly — the user sees every index exactly once.
func TestServerSurvivesGPUFailure(t *testing.T) {
	s := New(Config{
		NumGPUs: 2,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		// A decode step models ~12 ms, so the 300-token generation
		// lasts ~180 ms of wall time at speedup 20: far longer than the
		// FailGPU call that follows its first token.
		Speedup: 20,
	})
	defer s.Close()

	const outputLen = 300
	id, ch, err := s.Submit(4, 64, outputLen)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	// Fail the GPU on stream progress, not on a timer: the first token
	// proves the request is generating. §5.1 tie-break places the first
	// request on the highest UUID.
	var indices []int
	select {
	case tok, open := <-ch:
		if !open {
			t.Fatal("stream closed before its first token")
		}
		indices = append(indices, tok.Index)
	case <-deadline:
		t.Fatal("no first token")
	}
	if !s.FailGPU("gpu-01") {
		t.Fatal("FailGPU did not find gpu-01")
	}
	if s.FailGPU("gpu-01") {
		t.Fatal("second FailGPU of the same UUID must report not found")
	}

	for {
		select {
		case tok, open := <-ch:
			if !open {
				if len(indices) != outputLen {
					t.Fatalf("stream closed after %d tokens, want %d", len(indices), outputLen)
				}
				for i, idx := range indices {
					if idx != i {
						t.Fatalf("token %d has index %d: recovery duplicated or dropped tokens", i, idx)
					}
				}
				st := s.Snapshot()
				if st.GPUFailures != 1 || st.Recovered < 1 {
					t.Fatalf("stats = %+v, want 1 failure and >=1 recovery", st)
				}
				if len(st.GPUs) != 1 {
					t.Fatalf("%d GPUs remain in stats, want 1", len(st.GPUs))
				}
				return
			}
			if tok.RequestID != id {
				t.Fatalf("stray token for request %d", tok.RequestID)
			}
			indices = append(indices, tok.Index)
		case <-deadline:
			t.Fatalf("request did not finish after failover; got %d tokens", len(indices))
		}
	}
}
