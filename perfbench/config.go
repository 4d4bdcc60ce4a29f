package main

import (
	"fmt"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/workload"
)

// The fixed configuration of every workload. Offered rates are a
// calibrated capacity times the workload's load factor. The capacities
// were measured once with perfbench --calibrate (a saturating batch
// through cluster.Run on the same deployment) and are constants: a
// cost-model change cannot move the offered load.
const (
	maxBatch = 32 // per-GPU engine batch limit, every workload

	// Live-stack workloads (chat, saturate).
	servingGPUs        = 2
	servingAdapters    = 32
	servingCapacityRPS = 21.971 // simulated req/s of servingGPUs over servingAdapters
	sloTPOTSimS        = 0.05   // mean time per output token limit, simulated seconds
	warmup             = 2 * time.Second
	setupReps          = 101 // stack builds per run; setup_s is their median

	// sim-fleet: one cell, tiered adapter store, population 8x one HBM store.
	fleetGPUs         = 4
	fleetHBMAdapters  = 16 // per GPU
	fleetAdapters     = 128
	fleetTiers        = "ssd:16GiB@2GB/s+1ms,ram:2GiB@8GB/s+100us"
	fleetCapacityRPS  = 40.544 // simulated req/s; sim-fleet offers exactly this
	fleetRequests     = 4000   // per trace
	fleetTTFTLimitSim = 0.2    // simulated seconds

	// The reference loop (refloop.go): a reference second is the time
	// refItersPerSecond iterations take on the host at hand; one slice of
	// refItersPerSlice follows every sim-fleet replay.
	refItersPerSecond = 7_850_000
	refItersPerSlice  = 314_000
	// On chat and saturate the host meter (refloop.go) runs one slice of
	// spinItersPerSlice spinLoop iterations every meterPeriod through the
	// window; a reference second there is spinItersPerSecond iterations
	// of thread CPU time.
	meterPeriod        = 10 * time.Millisecond
	spinItersPerSlice  = 100_000
	spinItersPerSecond = 330_000_000
)

// servingConfig is what differs between chat and saturate. Rates and SLO
// limits are in simulated time; speedup converts them to wall time.
type servingConfig struct {
	chat         bool // frontend over runners; otherwise the in-process server
	speedup      float64
	loadFactor   float64 // offered rate over servingCapacityRPS
	admissionCap int     // 0: no cap
	ttftLimitSim float64 // seconds
}

var (
	chatConfig     = servingConfig{chat: true, speedup: 25, loadFactor: 0.3, ttftLimitSim: 0.25}
	saturateConfig = servingConfig{speedup: 10, loadFactor: 1.5, admissionCap: 64, ttftLimitSim: 5}
)

func (c servingConfig) offeredRPS() float64 { return servingCapacityRPS * c.loadFactor }

// engineConfig is the per-GPU engine every workload serves with: 7B
// Llama-2 on an A100. storeAdapters > 0 caps the HBM adapter store at
// that many rank-16 adapters; 0 keeps the default store.
func engineConfig(storeAdapters int) core.Config {
	sys := core.PunicaSystem()
	sys.MaxBatch = maxBatch
	model := models.Llama2_7B()
	cfg := core.Config{
		System: sys,
		GPU:    hw.A100(),
		Model:  model,
		Rank:   models.DefaultLoRARank,
	}
	if storeAdapters > 0 {
		cfg.LoRAStoreBytes = int64(storeAdapters) * model.LoRABytes(models.DefaultLoRARank)
	}
	return cfg
}

// openLoopTrace draws Poisson arrivals at rate (simulated req/s) over
// horizon, ShareGPT lengths, Skewed (Zipf) popularity over adapters.
func openLoopTrace(rate float64, horizon time.Duration, adapters int, seed int64) []workload.Request {
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), seed)
	return gen.Traffic(workload.TrafficSpec{
		Horizon: horizon,
		Base:    rate,
		Mix:     dist.Mix{Phases: []dist.Phase{{Kind: dist.Skewed, NumModels: adapters}}},
		Seed:    seed,
	})
}

// fleetClusterConfig is sim-fleet's one-cell deployment.
func fleetClusterConfig() (cluster.Config, error) {
	tiers, err := lora.ParseTierSpec(fleetTiers)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("sim-fleet tiers: %w", err)
	}
	return cluster.Config{
		NumGPUs: fleetGPUs,
		Engine:  engineConfig(fleetHBMAdapters),
		Tiers:   tiers,
	}, nil
}

// calibrate measures a deployment's sustainable rate: a saturating batch
// through cluster.Run, capacity = finished / makespan (simulated req/s).
func calibrate(cfg cluster.Config, adapters int) (float64, error) {
	trace := openLoopTrace(3000, time.Second, adapters, 1)
	for i := range trace {
		trace[i].Arrival = 0
	}
	res, err := cluster.New(cfg).Run(trace)
	if err != nil {
		return 0, err
	}
	return float64(res.Finished) / res.Makespan.Seconds(), nil
}

// runCalibration prints the capacities and reference speed the constants
// above were fixed from. It changes nothing.
func runCalibration() error {
	capRPS, err := calibrate(cluster.Config{NumGPUs: servingGPUs, Engine: engineConfig(0)}, servingAdapters)
	if err != nil {
		return fmt.Errorf("calibrate serving: %w", err)
	}
	fmt.Printf("serving: capacity %.3f sim req/s (constant %.3f)\n", capRPS, servingCapacityRPS)
	fc, err := fleetClusterConfig()
	if err != nil {
		return err
	}
	if capRPS, err = calibrate(fc, fleetAdapters); err != nil {
		return fmt.Errorf("calibrate sim-fleet: %w", err)
	}
	fmt.Printf("sim-fleet: capacity %.3f sim req/s (constant %.3f)\n", capRPS, fleetCapacityRPS)
	start := time.Now()
	refLoop(10_000_000)
	fmt.Printf("reference loop: %.0f iterations/s (constant %d)\n", 1e7/time.Since(start).Seconds(), refItersPerSecond)
	m := startHostMeter()
	time.Sleep(time.Second)
	iters, cpu := m.finish()
	fmt.Printf("host meter: %.0f iterations per CPU second (constant %d)\n", float64(iters)/cpu.Seconds(), spinItersPerSecond)
	return nil
}
