package cluster

import (
	"testing"
	"time"

	"punica/internal/dist"
	"punica/internal/workload"
)

// TestInterTokenLatencyPinned pins Result.InterTokenLatency (count, mean
// and p99) on the four runs whose gap chains cross an engine boundary:
// a request evicted and rescheduled, one recovered after FailGPU, one
// handed from the prefill to the decode pool with its KvCache, and a
// cell-sharded run that spills queued work between cells. The values
// were recorded from a per-cell map of each request's previous token
// time; the engine now carries that chain on the request (Token.Gap),
// and every figure must stay exact.
//
// The two schemes could only diverge on a spill of a request that has
// already emitted tokens: the destination cell's map never saw its
// earlier tokens, the request does. Across the whole cluster test suite
// 967 spills occur and none moves such a request (spills steal the
// newest queued work, which has not reached a GPU), so the spill pin
// matches either way.
func TestInterTokenLatencyPinned(t *testing.T) {
	cases := []struct {
		name string
		// run returns the result and whether some request's chain really
		// crossed the boundary the case pins.
		run   func(t *testing.T) (*Result, bool)
		count int
		mean  float64
		p99   float64
	}{
		{"eviction", func(t *testing.T) (*Result, bool) {
			ec := punicaEngineConfig()
			ec.KVCapacityBytes = 96 * 16 * ec.Model.KVBytesPerToken()
			trace := shortTrace(dist.Skewed, 80, 5)
			res, err := New(Config{NumGPUs: 2, Engine: ec}).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			// A re-prefill beyond the prompts means an evicted request had
			// already emitted its first token.
			return res, res.Evictions > 0 && res.PrefillTokens > promptTokens(trace)
		}, 1499, 0.01369869795463637, 0.023569934},
		{"failgpu", func(t *testing.T) (*Result, bool) {
			c := New(Config{NumGPUs: 2, Engine: punicaEngineConfig()})
			c.FailGPU("gpu-01", 50*time.Millisecond)
			trace := chaosTrace(60, 3)
			res, err := c.Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			return res, res.RecoveredRequests > 0 && res.PrefillTokens > promptTokens(trace)
		}, 1235, 0.015991848446963514, 0.024903774},
		{"disagg", func(t *testing.T) (*Result, bool) {
			res, err := New(Config{
				Engine:            punicaEngineConfig(),
				Disagg:            &DisaggConfig{PrefillGPUs: 1, DecodeGPUs: 3},
				MigrationInterval: 10 * time.Second,
			}).Run(prefillHeavyTrace(dist.Uniform, 4, 30*time.Second, 11))
			if err != nil {
				t.Fatal(err)
			}
			// Only prefilled requests migrate, and a prefill emits the
			// first token.
			return res, res.KVMigrations > 0
		}, 4024, 0.013134955029821057, 0.035111325},
		{"spill", func(t *testing.T) (*Result, bool) {
			_, res := runCells(t, CellsConfig{
				Base:           Config{NumGPUs: 4, Engine: punicaEngineConfig()},
				Cells:          4,
				Workers:        2,
				SpillThreshold: 2,
			}, cellsTrace(120, 9))
			return res, res.Spills > 0
		}, 2604, 0.013823878812595978, 0.022700429},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, crossed := tc.run(t)
			if !crossed {
				t.Fatal("run did not exercise the boundary it pins")
			}
			h := &res.InterTokenLatency
			if h.Count() != tc.count || h.Mean() != tc.mean || h.Percentile(99) != tc.p99 {
				t.Errorf("inter-token latency count=%d mean=%v p99=%v, want count=%d mean=%v p99=%v",
					h.Count(), h.Mean(), h.Percentile(99), tc.count, tc.mean, tc.p99)
			}
		})
	}
}

func promptTokens(trace []workload.Request) int64 {
	var n int64
	for _, r := range trace {
		n += int64(r.PromptLen)
	}
	return n
}
