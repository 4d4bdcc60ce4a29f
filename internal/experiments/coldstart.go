// Cold-start experiment: tiered adapter cache with and without the two
// mitigations this repo adds on top of the paper's on-demand loading —
// load/compute overlap (a stalled queue head's adapter load runs under
// the current prefill) and predictive pre-distribution (a daemon stages
// the adapters the workload spec says are about to get hot into host
// RAM ahead of demand). Every row replays the SAME seeded trace — a
// rotating hot set plus one model-targeted spike — against the same
// tiered fleet; only the mitigation knobs differ. The committed
// bench/BENCH_coldstart.json baseline gates throughput and the naive
// vs pre-distributed cold-start p99 ratio.

package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/workload"
)

// ColdStartOptions configures the cold-start mitigation sweep.
type ColdStartOptions struct {
	// NumGPUs and MaxBatch size the cluster (defaults 2 GPUs × batch 4
	// — small enough that the spike stalls the queue, which is what the
	// overlap path needs to act on).
	NumGPUs  int
	MaxBatch int
	// HBMAdapters caps each GPU's HBM store, in adapters (default 16 —
	// a whole phase's hot set, so cold starts are genuine first touches
	// rather than capacity thrash).
	HBMAdapters int
	// NumModels is each phase's hot-set size (default 16). The trace
	// rotates to a disjoint second hot set mid-run — the popularity
	// drift the pre-distribution daemon predicts.
	NumModels int
	// Base and Horizon shape the open-loop arrivals (defaults 6 req/s
	// over 60s).
	Base    float64
	Horizon time.Duration
	// Budgets is the pre-distribution sweep: one run per per-tick byte
	// budget (default 256MiB, 1GiB, 8GiB — from "stages a few adapters
	// per tick" to "stages the whole predicted set").
	Budgets []int64
	// Tiers is the staging hierarchy below HBM (default a 64-adapter
	// node SSD at 2GB/s+1ms under a 24-adapter host RAM at 8GB/s+100µs).
	Tiers []lora.TierSpec
	// Seed drives the arrival process.
	Seed int64
}

func (o ColdStartOptions) withDefaults() ColdStartOptions {
	if o.NumGPUs <= 0 {
		o.NumGPUs = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4
	}
	if o.HBMAdapters <= 0 {
		o.HBMAdapters = 16
	}
	if o.NumModels <= 0 {
		o.NumModels = 16
	}
	if o.Base <= 0 {
		o.Base = 6
	}
	if o.Horizon <= 0 {
		o.Horizon = 60 * time.Second
	}
	if len(o.Budgets) == 0 {
		o.Budgets = []int64{256 << 20, 1 << 30, 8 << 30}
	}
	if len(o.Tiers) == 0 {
		bytes := models.Llama2_7B().LoRABytes(models.DefaultLoRARank)
		o.Tiers = []lora.TierSpec{
			{Name: "ssd", CapacityBytes: 64 * bytes,
				Link: hw.Link{Name: "ssd", Bandwidth: 2e9, Latency: time.Millisecond}},
			{Name: "ram", CapacityBytes: 24 * bytes,
				Link: hw.Link{Name: "ram", Bandwidth: 8e9, Latency: 100 * time.Microsecond}},
		}
	}
	if o.Seed == 0 {
		o.Seed = 5
	}
	return o
}

// Spec builds the shared trace's spec: a two-phase popularity rotation
// (disjoint hot sets) plus one model-targeted spike mid-run.
func (o ColdStartOptions) Spec() workload.TrafficSpec {
	return workload.TrafficSpec{
		Horizon: o.Horizon,
		Base:    o.Base,
		Spikes: []workload.Spike{{
			At:     o.Horizon / 2,
			Peak:   2.5 * o.Base,
			Ramp:   o.Horizon / 20,
			Hold:   o.Horizon / 6,
			Decay:  o.Horizon / 12,
			Model:  2*o.NumModels + 8,
			Tenant: 1,
		}},
		Mix: dist.Mix{Phases: []dist.Phase{
			{Length: o.Horizon / 2, Kind: dist.Skewed, NumModels: o.NumModels},
			{Kind: dist.Skewed, NumModels: o.NumModels, Offset: o.NumModels},
		}},
		Tenants: workload.TenantSpec{Population: 16, PerModel: 2},
		Seed:    o.Seed,
	}
}

// ColdStartPoint is one run of the shared trace under one mitigation
// configuration.
type ColdStartPoint struct {
	Name    string
	Overlap bool
	// Budget is the pre-distribution per-tick byte budget; < 0 means
	// the daemon is off entirely.
	Budget int64

	Requests   int
	Finished   int64
	Throughput float64
	Makespan   time.Duration

	// Cold-start latency (seconds): staged HBM-miss load times.
	ColdStarts int
	ColdP50    float64
	ColdP99    float64
	// RAMHitRate is the fraction of host-RAM lookups that hit — how
	// often an HBM miss was served one PCIe hop away.
	RAMHitRate float64

	PreDistBytes      int64
	PreDistPromotions int64
	Digest            string
}

// coldStartCell replays the shared trace under one configuration.
func coldStartCell(o ColdStartOptions, trace []workload.Request, spec workload.TrafficSpec,
	name string, overlap bool, budget int64) (ColdStartPoint, error) {
	sys := core.PunicaSystem()
	sys.MaxBatch = o.MaxBatch
	model := models.Llama2_7B()
	cfg := cluster.Config{
		NumGPUs: o.NumGPUs,
		Engine: core.Config{
			System:         sys,
			GPU:            hw.A100(),
			Model:          model,
			Rank:           models.DefaultLoRARank,
			LoRAStoreBytes: int64(o.HBMAdapters) * model.LoRABytes(models.DefaultLoRARank),
		},
		MigrationInterval: 10 * time.Second,
		Tiers:             o.Tiers,
		Overlap:           overlap,
	}
	if budget >= 0 {
		cfg.PreDist = &cluster.PreDistConfig{
			Interval:    500 * time.Millisecond,
			Lead:        2 * time.Second,
			BudgetBytes: budget,
			TopK:        o.NumModels,
			Mix:         spec.Mix,
			Spikes:      spec.Spikes,
		}
	}
	res, err := cluster.New(cfg).Run(trace)
	if err != nil {
		return ColdStartPoint{}, fmt.Errorf("coldstart %s: %w", name, err)
	}
	if res.Finished != int64(len(trace)) {
		return ColdStartPoint{}, fmt.Errorf("coldstart %s: finished %d of %d trace requests",
			name, res.Finished, len(trace))
	}
	p := ColdStartPoint{
		Name:              name,
		Overlap:           overlap,
		Budget:            budget,
		Requests:          len(trace),
		Finished:          res.Finished,
		Throughput:        res.Throughput,
		Makespan:          res.Makespan,
		ColdStarts:        res.ColdStart.Count(),
		ColdP50:           res.ColdStart.Percentile(50),
		ColdP99:           res.ColdStart.Percentile(99),
		PreDistBytes:      res.PreDistBytes,
		PreDistPromotions: res.PreDistPromotions,
		Digest:            coldStartDigest(res),
	}
	for _, ts := range res.TierStats {
		if ts.Tier == "ram" && ts.Hits+ts.Misses > 0 {
			p.RAMHitRate = float64(ts.Hits) / float64(ts.Hits+ts.Misses)
		}
	}
	return p, nil
}

// coldStartDigest fingerprints a run's simulated outcomes including the
// tier counters — the determinism witness that the mitigation knobs are
// the only variable across the sweep's rows.
func coldStartDigest(res *cluster.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "finished=%d decode=%d makespan=%d stalls=%d cold{%s} predist=%d/%d",
		res.Finished, res.DecodeTokens, int64(res.Makespan),
		res.AdapterStalls, res.ColdStart.Summary(), res.PreDistBytes, res.PreDistPromotions)
	for _, ts := range res.TierStats {
		fmt.Fprintf(h, " %s:%d/%d/%d/%d/%d",
			ts.Tier, ts.Hits, ts.Misses, ts.Promotions, ts.Demotions, ts.BytesIn)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ColdStart runs the mitigation sweep over one shared trace: the naive
// tiered baseline, overlap alone, then overlap + pre-distribution at
// each byte budget.
func ColdStart(opts ColdStartOptions) ([]ColdStartPoint, error) {
	o := opts.withDefaults()
	spec := o.Spec()
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), o.Seed)
	trace := gen.Traffic(spec)
	if len(trace) == 0 {
		return nil, fmt.Errorf("coldstart: spec generated no arrivals")
	}
	var points []ColdStartPoint
	run := func(name string, overlap bool, budget int64) error {
		p, err := coldStartCell(o, trace, spec, name, overlap, budget)
		if err != nil {
			return err
		}
		points = append(points, p)
		return nil
	}
	if err := run("naive", false, -1); err != nil {
		return nil, err
	}
	if err := run("overlap", true, -1); err != nil {
		return nil, err
	}
	for _, budget := range o.Budgets {
		name := fmt.Sprintf("predist/%s", formatBudget(budget))
		if err := run(name, true, budget); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// formatBudget renders a byte budget compactly for row names.
func formatBudget(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ColdStartGain returns the headline ratio: the naive tiered baseline's
// cold-start p99 over the best pre-distributed row's (0 if the sweep
// lacks either row).
func ColdStartGain(points []ColdStartPoint) float64 {
	var naive, best float64
	for _, p := range points {
		if p.Name == "naive" {
			naive = p.ColdP99
		}
		if p.Budget > 0 && (best == 0 || p.ColdP99 < best) {
			best = p.ColdP99
		}
	}
	if naive == 0 || best == 0 {
		return 0
	}
	return naive / best
}

// ColdStartReport renders the sweep, one row and bench record per run,
// plus the headline naive-vs-predist p99 gain the baseline gates.
func ColdStartReport(points []ColdStartPoint) *Report {
	r := &Report{
		Experiment: "coldstart",
		Title:      "ColdStart — tiered adapter cache: naive vs overlap vs pre-distribution over one trace:",
	}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: p.Name, Cells: []Cell{
			{Name: "config", Header: "config", Value: p.Name},
			{Name: "overlap", Value: onOff(p.Overlap)},
			{Name: "budget_bytes", Value: p.Budget},
			{Name: "requests", Header: "requests", Value: p.Requests},
			{Name: "finished", Value: p.Finished},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: p.Throughput},
			{Name: "makespan_s", Value: p.Makespan.Seconds()},
			{Name: "cold_starts", Header: "cold starts", Value: p.ColdStarts},
			{Name: "cold_p50_ms", Header: "cold p50", Format: "%.1fms", Value: p.ColdP50 * 1e3},
			{Name: "cold_p99_ms", Header: "cold p99", Format: "%.1fms", Value: p.ColdP99 * 1e3},
			{Name: "ram_hit_rate", Value: p.RAMHitRate},
			{Header: "ram hit", Format: "%.0f%%", Value: p.RAMHitRate * 100},
			{Name: "predist_bytes", Value: p.PreDistBytes},
			{Header: "predist MiB", Format: "%.0f", Value: float64(p.PreDistBytes) / float64(1<<20)},
			{Name: "predist_promotions", Value: p.PreDistPromotions},
			{Name: "digest", Header: "digest", Value: p.Digest},
		}})
	}
	if gain := ColdStartGain(points); gain > 0 {
		r.Note = fmt.Sprintf("cold-start p99 gain (naive / best pre-distributed): %.1fx", gain)
		r.Derived = []BenchRecord{{
			Experiment: "coldstart",
			Name:       "predist-gain",
			Metrics:    map[string]float64{"cold_p99_gain": gain},
		}}
	}
	return r
}
