package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"time"

	"punica/internal/cluster"
	"punica/internal/metrics"
	"punica/internal/workload"
)

// simTraces is how many seeded traces one sim-fleet run cycles through.
const simTraces = 16

// runSimFleet replays seeded traces through cluster.Run, in turn, for
// the window, alternating each replay with a fixed slice of the
// reference loop. The ratio of replay time to interleaved reference time
// (sim.req_per_ref_s, and its reciprocal cpu_ms_per_req) cancels
// host-speed drift slower than one slice.
func runSimFleet(seed int64, window time.Duration, traced bool) (*runResult, error) {
	res := newResult()
	ccfg, err := fleetClusterConfig()
	if err != nil {
		return nil, err
	}
	// simTraces distinct traces, drawn from the seed, replay in turn: the
	// modelled metrics pool all of them, so they repeat across seeds
	// while each trace stays small enough for exact percentiles.
	rate := fleetCapacityRPS
	horizon := time.Duration(fleetRequests / rate * float64(time.Second))
	traces := make([][]workload.Request, simTraces)
	wantDecode := make([]int64, simTraces)
	for k := range traces {
		traces[k] = openLoopTrace(rate, horizon, fleetAdapters, seed*simTraces+int64(k))
		for _, r := range traces[k] {
			wantDecode[k] += int64(r.OutputLen)
		}
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var (
		setups              []float64
		replayWall, refWall time.Duration
		replayCPU           time.Duration
		finished            int64
		replays             int
		digests             = make([]uint64, simTraces)
		results             = make([]*cluster.Result, simTraces)
		before, after       runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ; replays < simTraces || time.Since(start) < window; replays++ {
		k := replays % simTraces
		runtime.GC() // the last replay's garbage is not this one's to collect
		t := time.Now()
		c := cluster.New(ccfg)
		setups = append(setups, time.Since(t).Seconds())

		cpu0, t0 := cpuTime(), time.Now()
		r, err := c.Run(traces[k])
		replayWall += time.Since(t0)
		replayCPU += cpuTime() - cpu0
		if err != nil {
			return nil, fmt.Errorf("sim-fleet replay: %w", err)
		}

		t1 := time.Now()
		refLoop(refItersPerSlice)
		refWall += time.Since(t1)

		if r.Finished != int64(len(traces[k])) {
			res.problem("trace %d: replay finished %d of %d requests", k, r.Finished, len(traces[k]))
		}
		if r.DecodeTokens != wantDecode[k] {
			res.problem("trace %d: replay decoded %d tokens, trace asks for %d", k, r.DecodeTokens, wantDecode[k])
		}
		d := outcomeDigest(r)
		if results[k] == nil {
			digests[k], results[k] = d, r
		} else if d != digests[k] {
			res.problem("trace %d: replay %d digest %016x differs from its first replay's %016x", k, replays, d, digests[k])
		}
		finished += r.Finished
		res.attempted += int64(len(traces[k]))
	}
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
	}
	h := fnv.New64a()
	fmt.Fprint(h, digests)
	fmt.Printf("perfbench: sim-fleet seed %d: %d replays over %d traces, outcome digest %016x\n",
		seed, replays, simTraces, h.Sum64())

	res.failed = res.attempted - finished
	res.set("setup_s", median(setups))
	refSpeed := float64(refItersPerSlice*replays) / refWall.Seconds()
	refSeconds := replayWall.Seconds() * refSpeed / refItersPerSecond
	// cpu_ms_per_req is host-normalised: replay time per request in
	// reference milliseconds, 1000 / sim.req_per_ref_s. The raw CPU cost
	// is the per-layer host.cpu_ms_per_req_raw.
	res.set("cpu_ms_per_req", 1000*refSeconds/float64(finished))
	res.set("sim.req_per_ref_s", float64(finished)/refSeconds)
	res.set("host.cpu_ms_per_req_raw", ms(replayCPU)/float64(finished))
	res.set("host.ref_iters_per_s", refSpeed)

	// Modelled outcomes, averaged over the traces. The inter-token
	// figures are per-request mean time per output token: the cluster's
	// per-gap histogram holds too many samples for exact percentiles.
	var met, n int
	var ttft50, ttft90, itl50, itl99, ttft99 float64
	var evictions, stalls, queuePeak int64
	var hits, lookups int64
	var cold99, batch, busy float64
	for _, r := range results {
		met += countAtMost(&r.TimeToFirstToken, fleetTTFTLimitSim)
		n += int(r.Finished)
		ttft50 += r.TimeToFirstToken.Percentile(50) * 1000 / simTraces
		ttft90 += r.TimeToFirstToken.Percentile(90) * 1000 / simTraces
		ttft99 += r.TimeToFirstToken.Percentile(99) * 1000 / simTraces
		itl50 += r.PerTokenLatency.Percentile(50) * 1000 / simTraces
		itl99 += r.PerTokenLatency.Percentile(99) * 1000 / simTraces
		evictions += r.AdapterEvictions
		stalls += r.AdapterStalls
		queuePeak = max(queuePeak, int64(r.QueuePeak))
		for _, t := range r.TierStats {
			if t.Tier == "hbm" {
				hits += t.Hits
				lookups += t.Hits + t.Misses
			}
		}
		cold99 += r.ColdStart.Percentile(99) * 1000 / simTraces
		batch += seriesMean(r.BatchSeries) / simTraces
		busy += meanOf(r.GPUBusyFraction) / simTraces
	}
	res.set("ttft_p50_ms", ttft50)
	res.set("ttft_p90_ms", ttft90)
	res.set("itl_p50_ms", itl50)
	res.set("itl_p99_ms", itl99)
	res.set("slo_attainment", float64(met)/float64(n))
	res.set("goodput_req_s", float64(met)/(simTraces*horizon.Seconds()))

	// Per-layer.
	if lookups > 0 {
		res.set("lora.hbm_hit_frac", float64(hits)/float64(lookups))
	}
	res.set("lora.evictions_per_req", float64(evictions)/float64(n))
	res.set("lora.stalls_per_req", float64(stalls)/float64(n))
	res.set("lora.cold_start_p99_ms", cold99)
	res.set("cluster.queue_peak", float64(queuePeak))
	res.set("cluster.batch_mean", batch)
	res.set("cluster.gpu_busy_mean", busy)
	res.set("cluster.ttft_p99_ms", ttft99)
	res.set("sim.wall_s", replayWall.Seconds())
	res.set("sim.ref_s", refWall.Seconds())
	res.set("sim.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(finished))
	res.set("sim.bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(finished))
	res.set("sim.gc_cycles", float64((after.NumGC-after.NumForcedGC)-(before.NumGC-before.NumForcedGC)))
	res.set("bench.sent", float64(res.attempted))
	res.set("bench.ok", float64(finished))
	if traced {
		setProfileShares(res, prof.Bytes())
	}
	return res, nil
}

// countAtMost counts a histogram's samples at or below limit by binary
// search over nearest-rank percentiles (exact while the histogram holds
// raw samples, which it does up to 4096 of them).
func countAtMost(h *metrics.Histogram, limit float64) int {
	n := h.Count()
	lo, hi := 0, n // invariant: the lo-th smallest <= limit (lo = 0: none checked)
	for lo < hi {
		k := (lo + hi + 1) / 2
		if h.Percentile(100*(float64(k)-0.5)/float64(n)) <= limit {
			lo = k
		} else {
			hi = k - 1
		}
	}
	return lo
}

// outcomeDigest hashes the replay's modelled outcomes. Identical inputs
// must give identical digests, within a run and across runs of a commit.
func outcomeDigest(r *cluster.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d|%.9g %.9g %.9g %.9g %.9g|",
		r.Finished, r.DecodeTokens, r.PrefillTokens, r.Makespan, r.Evictions,
		r.AdapterEvictions, r.AdapterStalls, r.QueuePeak, r.ColdStart.Count(),
		r.TimeToFirstToken.Percentile(50), r.TimeToFirstToken.Percentile(99),
		r.InterTokenLatency.Percentile(50), r.EndToEnd.Mean(), r.ColdStart.Percentile(99))
	for _, t := range r.TierStats {
		fmt.Fprintf(h, "%s %d %d %d %d|", t.Tier, t.Hits, t.Misses, t.Promotions, t.Demotions)
	}
	return h.Sum64()
}

func seriesMean(series []metrics.TimeSeries) float64 {
	var sum, n float64
	for i := range series {
		for _, p := range series[i].Points() {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
