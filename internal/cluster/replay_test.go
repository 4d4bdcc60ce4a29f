package cluster

import (
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
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
	simFleetMaxAllocs = 5 // per finished request, one replay
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
// per-request objects (the request itself, its arrival event, histogram
// and series growth) and nothing per token or per step.
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
