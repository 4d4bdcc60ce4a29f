package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/metrics"
	"punica/internal/models"
	"punica/internal/workload"
)

// The sim-fleet deployment: one cell of four A100s serving Llama-2 7B,
// each HBM adapter store holding 16 rank-16 adapters over SSD and RAM
// staging tiers, fed an open-loop Zipf trace over 128 adapters at the
// deployment's calibrated capacity.
const (
	simFleetGPUs      = 4
	simFleetHBM       = 16
	simFleetAdapters  = 128
	simFleetTiers     = "ssd:16GiB@2GB/s+1ms,ram:2GiB@8GB/s+100us"
	simFleetRate      = 40.544 // req/s
	simFleetRequests  = 4000
	simFleetMaxAllocs = 3 // per finished request, one replay
	simFleetTraceSeed = 1
	simFleetMaxBatch  = 32
)

func simFleetConfig(tb testing.TB) Config {
	tb.Helper()
	tiers, err := lora.ParseTierSpec(simFleetTiers)
	if err != nil {
		tb.Fatal(err)
	}
	sys := core.PunicaSystem()
	sys.MaxBatch = simFleetMaxBatch
	model := models.Llama2_7B()
	return Config{
		NumGPUs: simFleetGPUs,
		Engine: core.Config{
			System:         sys,
			GPU:            hw.A100(),
			Model:          model,
			Rank:           models.DefaultLoRARank,
			LoRAStoreBytes: simFleetHBM * model.LoRABytes(models.DefaultLoRARank),
		},
		Tiers: tiers,
	}
}

func simFleetTrace(seed int64) []workload.Request {
	rate := simFleetRate
	horizon := time.Duration(simFleetRequests / rate * float64(time.Second))
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), seed)
	return gen.Traffic(workload.TrafficSpec{
		Horizon: horizon,
		Base:    rate,
		Mix:     dist.Mix{Phases: []dist.Phase{{Kind: dist.Skewed, NumModels: simFleetAdapters}}},
		Seed:    seed,
	})
}

// BenchmarkSimFleetReplay replays one sim-fleet trace through cluster.Run
// per iteration: the simulator's own CPU cost, with no reference loop or
// HTTP in the profile. Setup (cluster.New) is inside the loop, as every
// replay pays it.
func BenchmarkSimFleetReplay(b *testing.B) {
	cfg := simFleetConfig(b)
	trace := simFleetTrace(simFleetTraceSeed)
	b.ReportAllocs()
	var finished int64
	for b.Loop() {
		res, err := New(cfg).Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		finished += res.Finished
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(finished), "ns/req")
}

// TestSimFleetReplayAllocs guards the replay's allocation budget: the
// per-request objects (the request itself, its KvCache sequence record,
// histogram and series growth) and nothing per token, per step or per
// arrival event.
func TestSimFleetReplayAllocs(t *testing.T) {
	cfg := simFleetConfig(t)
	trace := simFleetTrace(simFleetTraceSeed)
	var finished int64
	allocs := testing.AllocsPerRun(1, func() {
		res, err := New(cfg).Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		finished = res.Finished
	})
	if finished != int64(len(trace)) {
		t.Fatalf("replay finished %d of %d requests", finished, len(trace))
	}
	if per := allocs / float64(finished); per > simFleetMaxAllocs {
		t.Fatalf("replay allocates %.2f objects per request, budget %d", per, simFleetMaxAllocs)
	}
}

// TestSimFleetReplayPinned pins the whole outcome of the replay that
// BenchmarkSimFleetReplay times, so a change to the replay's hot path
// that moves any modelled number fails here and not only in perfbench's
// digest. The text was recorded when every arrival was scheduled up
// front, each token gap went into the histogram one sample at a time,
// and each decode step looked its KvCache sequence up by id.
func TestSimFleetReplayPinned(t *testing.T) {
	res, err := New(simFleetConfig(t)).Run(simFleetTrace(simFleetTraceSeed))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "finished=%d decode=%d prefill=%d makespan=%v queuePeak=%d\n",
		res.Finished, res.DecodeTokens, res.PrefillTokens, res.Makespan, res.QueuePeak)
	fmt.Fprintf(&b, "evictions=%d adapterEvictions=%d stalls=%d\n",
		res.Evictions, res.AdapterEvictions, res.AdapterStalls)
	for _, ts := range res.TierStats {
		fmt.Fprintf(&b, "%+v\n", ts)
	}
	for _, h := range []struct {
		name string
		h    *metrics.Histogram
	}{
		{"ttft", &res.TimeToFirstToken},
		{"e2e", &res.EndToEnd},
		{"itl", &res.InterTokenLatency},
	} {
		fmt.Fprintf(&b, "%s n=%d mean=%v p50=%v p99=%v\n",
			h.name, h.h.Count(), h.h.Mean(), h.h.Percentile(50), h.h.Percentile(99))
	}
	if got := b.String(); got != simFleetReplayPin {
		t.Errorf("replay outcome drifted:\n got:\n%s\nwant:\n%s", got, simFleetReplayPin)
	}
}

const simFleetReplayPin = `finished=3952 decode=403646 prefill=1738736 makespan=1m51.604278419s queuePeak=5
evictions=0 adapterEvictions=4 stalls=0
{Tier:ssd Hits:0 Misses:66 Promotions:0 Demotions:0 BytesIn:5276958720 UsedBytes:5276958720 CapacityBytes:68719476736}
{Tier:ram Hits:1 Misses:66 Promotions:67 Demotions:0 BytesIn:5276958720 UsedBytes:239861760 CapacityBytes:8589934592}
{Tier:hbm Hits:3885 Misses:67 Promotions:0 Demotions:4 BytesIn:5356912640 UsedBytes:5037096960 CapacityBytes:5117050880}
ttft n=3952 mean=0.1021721062613867 p50=0.072652398 p99=0.43651712
e2e n=3952 mean=2.593732697050103 p50=1.921327153 p99=12.290329212
itl n=399694 mean=0.02463546476754206 p50=0.01904296875 p99=0.12890625
`
