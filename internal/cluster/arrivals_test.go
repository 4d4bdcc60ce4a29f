package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"punica/internal/dist"
	"punica/internal/metrics"
	"punica/internal/workload"
)

// outcomeText renders every deterministic observable of a run that the
// order of same-instant events can move: the scalar outcomes, each
// latency histogram, the tier counters, and the per-GPU batch and
// processed-token series point by point. Floats print in their
// shortest round-tripping form, so equal text means equal bits.
func outcomeText(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "finished=%d decode=%d prefill=%d makespan=%v\n",
		res.Finished, res.DecodeTokens, res.PrefillTokens, res.Makespan)
	fmt.Fprintf(&b, "migrations=%d evictions=%d stalls=%d adapterEv=%d queuePeak=%d spills=%d\n",
		res.Migrations, res.Evictions, res.AdapterStalls, res.AdapterEvictions, res.QueuePeak, res.Spills)
	fmt.Fprintf(&b, "predist=%d/%d prefetches=%d recovered=%d\n",
		res.PreDistBytes, res.PreDistPromotions, res.AdapterPrefetches, res.RecoveredRequests)
	for _, h := range []struct {
		name string
		h    *metrics.Histogram
	}{
		{"ttft", &res.TimeToFirstToken},
		{"e2e", &res.EndToEnd},
		{"per-token", &res.PerTokenLatency},
		{"itl", &res.InterTokenLatency},
		{"cold", &res.ColdStart},
		{"recovery", &res.RecoveryLatency},
	} {
		fmt.Fprintf(&b, "%s n=%d mean=%v p50=%v p90=%v p99=%v max=%v\n", h.name,
			h.h.Count(), h.h.Mean(), h.h.Percentile(50), h.h.Percentile(90), h.h.Percentile(99), h.h.Max())
	}
	for _, t := range res.TierStats {
		fmt.Fprintf(&b, "%+v\n", t)
	}
	for i := range res.BatchSeries {
		fmt.Fprintf(&b, "gpu%02d %v\n", i, res.BatchSeries[i].Points())
	}
	fmt.Fprintf(&b, "processed %v\n", res.ProcessedSeries.Points())
	return b.String()
}

func outcomeDigest(res *Result) string {
	h := fnv.New64a()
	h.Write([]byte(outcomeText(res)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// onGrid returns trace with perGroup consecutive requests sharing each
// arrival instant, the instants step apart starting at t=0.
func onGrid(trace []workload.Request, perGroup int, step time.Duration) []workload.Request {
	for i := range trace {
		trace[i].Arrival = time.Duration(i/perGroup) * step
	}
	return trace
}

// TestArrivalOrderPinned pins whole-run outcomes where arrivals share
// an instant with each other and with other events: the §5.1 dispatch
// order of a trace is part of what a run computes. Arrivals run in
// order of max(Arrival, 0), then trace index; at an equal instant they
// run after every event scheduled before the run started (a FailGPU
// call) and before every event the run schedules itself (the t=0
// pre-distribution tick, consolidation ticks, spill deliveries). The
// digests were recorded when every arrival was scheduled up front.
func TestArrivalOrderPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *Result
		// exercised reports whether the run met the event it pins.
		exercised func(res *Result) bool
		finished  int64
		digest    string
	}{
		{"predist-at-zero", func(t *testing.T) *Result {
			cfg := tieredEngineConfig(4)
			cfg.NumGPUs = 2
			trace, spec := driftTrace(3)
			for i := 0; i < 6; i++ {
				trace[i].Arrival = 0
			}
			cfg.PreDist = &PreDistConfig{
				Interval:    500 * time.Millisecond,
				BudgetBytes: 1 << 30,
				Mix:         spec.Mix,
				Spikes:      spec.Spikes,
			}
			res, err := New(cfg).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(res *Result) bool { return res.PreDistPromotions > 0 }, 361, "cc69de2a22ab3391"},
		{"on-migration-ticks", func(t *testing.T) *Result {
			ec := punicaEngineConfig()
			ec.System.MaxBatch = 8
			g := workload.NewGenerator(dist.Uniform, workload.Lengths{
				PromptMu: 4.5, PromptSigma: 0.4, PromptMin: 32, PromptMax: 128,
				OutMu: 4.0, OutSigma: 0.6, OutMin: 16, OutMax: 256,
			}, 12)
			trace := onGrid(g.Batch(48), 2, 100*time.Millisecond)
			res, err := New(Config{
				NumGPUs:           4,
				Engine:            ec,
				MigrationInterval: 100 * time.Millisecond,
			}).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(res *Result) bool { return res.Migrations > 0 }, 48, "506b88cc0177d5f1"},
		{"cells-spill", func(t *testing.T) *Result {
			ec := punicaEngineConfig()
			ec.System.MaxBatch = 8
			// Each cell's consolidation ticks share instants with its
			// arrivals, and loaded cells spill queued work at barriers.
			trace := onGrid(shortTrace(dist.Skewed, 120, 23), 12, 100*time.Millisecond)
			_, res := runCells(t, CellsConfig{
				Base: Config{
					NumGPUs:           4,
					Engine:            ec,
					MigrationInterval: 100 * time.Millisecond,
				},
				Cells:          4,
				Workers:        2,
				SpillThreshold: 2,
			}, trace)
			return res
		}, func(res *Result) bool { return res.Spills > 0 }, 120, "a4e77b9093505951"},
		{"unsorted-negative", func(t *testing.T) *Result {
			trace := shortTrace(dist.Skewed, 90, 29)
			for i := range trace {
				// A permutation of 11 instants from -60ms to +140ms, with
				// repeats: unsorted, some before t=0, many shared.
				trace[i].Arrival = time.Duration((i*7)%11-3) * 20 * time.Millisecond
			}
			res, err := New(Config{NumGPUs: 2, Engine: punicaEngineConfig()}).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(res *Result) bool { return true }, 90, "e87412a04767c22a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(t)
			if !tc.exercised(res) {
				t.Fatal("run did not meet the event it pins")
			}
			if got := outcomeDigest(res); res.Finished != tc.finished || got != tc.digest {
				t.Errorf("finished=%d digest=%s, want finished=%d digest=%s\n%s",
					res.Finished, got, tc.finished, tc.digest, outcomeText(res))
			}
		})
	}
}
