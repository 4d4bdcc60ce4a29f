// Soak scenario: hours of simulated live traffic against one elastic,
// faulty cluster — diurnal background with seeded flash crowds, a
// churning tenant population, popularity drift across rotating hot
// sets, autoscaling between half and full capacity, and random GPU
// faults — with the fairness layer on. It is the everything-at-once
// stress the individual experiments isolate; the CI smoke runs a
// minutes-long horizon under -race and punica_invariants.

package experiments

import (
	"fmt"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

// SoakOptions configures the soak run.
type SoakOptions struct {
	// Horizon is the simulated arrival window (default 2h).
	Horizon time.Duration
	// NumGPUs is the provisioned capacity ceiling (default 8); the
	// autoscaler floats the fleet between half of it and all of it.
	NumGPUs  int
	MaxBatch int
	// Base is the background request rate (default 6 req/s), swelling
	// ±40% over a 1h diurnal period.
	Base float64
	// NumModels sizes each popularity phase (default 24); the hot set
	// rotates by NumModels/2 each quarter of the horizon.
	NumModels int
	// StoreAdapters caps each GPU's adapter store (default 8).
	StoreAdapters int
	// FaultRate is GPU faults per GPU-hour (default 0.5).
	FaultRate float64
	// Fairness toggles the VTC admission layer (default on — use
	// NoFairness to disable).
	NoFairness bool
	Seed       int64
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Horizon <= 0 {
		o.Horizon = 2 * time.Hour
	}
	if o.NumGPUs <= 0 {
		o.NumGPUs = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.Base <= 0 {
		o.Base = 6
	}
	if o.NumModels <= 0 {
		o.NumModels = 24
	}
	if o.StoreAdapters <= 0 {
		o.StoreAdapters = 8
	}
	if o.FaultRate <= 0 {
		o.FaultRate = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Spec composes the soak's traffic: diurnal base, seeded flash crowds
// (one per 20 minutes of horizon, at least two), a churning tenant
// population, and a four-phase popularity drift whose hot set rotates.
func (o SoakOptions) Spec() workload.TrafficSpec {
	quarter := o.Horizon / 4
	shift := o.NumModels / 2
	var phases []dist.Phase
	for i := 0; i < 4; i++ {
		phases = append(phases, dist.Phase{
			Length: quarter, Kind: dist.Skewed,
			NumModels: o.NumModels, Offset: i * shift,
		})
	}
	spikes := int(o.Horizon / (20 * time.Minute))
	if spikes < 2 {
		spikes = 2
	}
	return workload.TrafficSpec{
		Horizon:       o.Horizon,
		Base:          o.Base,
		DiurnalAmp:    0.4,
		DiurnalPeriod: time.Hour,
		RandomSpikes: workload.RandomSpikes{
			N: spikes, PeakMin: o.Base, PeakMax: 4 * o.Base,
			Ramp: 30 * time.Second, Hold: 2 * time.Minute, Decay: time.Minute,
		},
		Tenants: workload.TenantSpec{
			Population: 1 << 20, PerModel: 4, Churn: o.Horizon / 16,
		},
		Mix:  dist.Mix{Phases: phases},
		Seed: o.Seed,
	}
}

// SoakResult summarizes the run.
type SoakResult struct {
	Opts     SoakOptions
	Requests int
	Finished int64

	Throughput float64
	Makespan   time.Duration
	P50        float64
	P99        float64

	Migrations    int64
	Evictions     int64
	AdapterStalls int64
	QueuePeak     int

	TenantCount  int
	StallSkew    float64
	JainFairness float64

	Digest string
}

// Soak runs the scenario.
func Soak(opts SoakOptions) (*SoakResult, error) {
	o := opts.withDefaults()
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), o.Seed)
	trace := gen.Traffic(o.Spec())

	sys := core.PunicaSystem()
	sys.MaxBatch = o.MaxBatch
	model := models.Llama2_7B()
	faults := cluster.RandomFaultPlan(o.Seed, o.NumGPUs, o.Horizon, o.FaultRate)
	cfg := cluster.Config{
		NumGPUs: o.NumGPUs,
		Engine: core.Config{
			System:         sys,
			GPU:            hw.A100(),
			Model:          model,
			Rank:           models.DefaultLoRARank,
			LoRAStoreBytes: int64(o.StoreAdapters) * model.LoRABytes(models.DefaultLoRARank),
		},
		MigrationInterval: 30 * time.Second,
		Autoscale: &cluster.AutoscaleConfig{
			MinGPUs: (o.NumGPUs + 1) / 2, MaxGPUs: o.NumGPUs,
			ProvisionDelay: 30 * time.Second, CheckInterval: 30 * time.Second,
		},
		Faults:   &faults,
		Fairness: !o.NoFairness,
	}
	c := cluster.New(cfg)
	res, err := c.Run(trace)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	if res.Finished != int64(len(trace)) {
		return nil, fmt.Errorf("soak: finished %d of %d trace requests", res.Finished, len(trace))
	}
	return &SoakResult{
		Opts:          o,
		Requests:      len(trace),
		Finished:      res.Finished,
		Throughput:    res.Throughput,
		Makespan:      res.Makespan,
		P50:           res.EndToEnd.Percentile(50),
		P99:           res.EndToEnd.Percentile(99),
		Migrations:    res.Migrations,
		Evictions:     res.Evictions,
		AdapterStalls: res.AdapterStalls,
		QueuePeak:     res.QueuePeak,
		TenantCount:   len(res.Tenants),
		StallSkew:     res.StallSkew,
		JainFairness:  res.JainFairness,
		Digest:        trafficDigest(res),
	}, nil
}

// SoakReport renders the result as one row and bench record.
func SoakReport(r *SoakResult) *Report {
	return &Report{
		Experiment: "soak",
		Title: fmt.Sprintf("Soak — %s of live traffic, %d GPUs (autoscaled ≥%d), %.1f faults/GPU-hour, fairness %s:",
			r.Opts.Horizon, r.Opts.NumGPUs, (r.Opts.NumGPUs+1)/2, r.Opts.FaultRate, onOff(!r.Opts.NoFairness)),
		Rows: []Row{{Name: fmt.Sprintf("%s/%dgpus", r.Opts.Horizon, r.Opts.NumGPUs), Cells: []Cell{
			{Name: "requests", Header: "requests", Value: r.Requests},
			{Name: "finished", Header: "finished", Value: r.Finished},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: r.Throughput},
			{Name: "makespan_s", Header: "makespan", Format: "%.0fs", Value: r.Makespan.Seconds()},
			{Name: "p50_s", Header: "p50", Format: "%.2fs", Value: r.P50},
			{Name: "p99_s", Header: "p99", Format: "%.2fs", Value: r.P99},
			{Name: "migrations", Header: "migrations", Value: r.Migrations},
			{Name: "evictions", Header: "evictions", Value: r.Evictions},
			{Name: "adapter_stalls", Header: "stalls", Value: r.AdapterStalls},
			{Name: "queue_peak", Header: "queue peak", Value: r.QueuePeak},
			{Name: "tenants", Header: "tenants", Value: r.TenantCount},
			{Name: "stall_skew", Header: "stall skew", Format: "%.1f", Value: r.StallSkew},
			{Name: "jain", Header: "jain", Format: "%.3f", Value: r.JainFairness},
			{Name: "digest", Header: "digest", Value: r.Digest},
		}}},
	}
}
