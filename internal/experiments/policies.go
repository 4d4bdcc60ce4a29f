package experiments

import (
	"fmt"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/sched"
	"punica/internal/workload"
)

// PolicyCompareOptions parameterises the scheduling-policy head-to-head:
// every built-in policy (paper §5.1, adapter affinity, rank-aware) runs
// the same traces on the same fleet, so differences in throughput,
// adapter stalls and adapter evictions are attributable to placement
// alone. Arrivals are Poisson at a constant Rate over Horizon — the
// scheduler's §7.3 operating regime, where adapter warmth persists
// between placements and locality has something to exploit.
type PolicyCompareOptions struct {
	NumGPUs int
	// Rate is the arrival rate (req/s); Rate×Horizon sizes each trace.
	Rate    float64
	Horizon time.Duration
	Seed    int64

	MaxBatch int
	// StoreAdapters sizes each GPU's adapter store in default-rank
	// adapters — small values create the §5.2 contention the affinity
	// policy exploits.
	StoreAdapters int

	// DriftRotations splits the ZipfDrift workload's horizon into that
	// many phases with disjoint hot sets (popularity drift).
	DriftRotations int

	// Ranks is the adapter-rank palette of the RankMix workload
	// (adapter id i serves rank Ranks[i mod len]); heterogeneous ranks
	// make SGMV pad to the batch maximum, the overhead the rank-aware
	// policy avoids.
	Ranks []int
}

// DefaultPolicyCompareOptions returns a store-pressured 4-GPU setup
// that finishes in seconds of wall time.
func DefaultPolicyCompareOptions() PolicyCompareOptions {
	return PolicyCompareOptions{
		NumGPUs:        4,
		Rate:           8,
		Horizon:        time.Minute,
		Seed:           42,
		MaxBatch:       16,
		StoreAdapters:  4,
		DriftRotations: 3,
		Ranks:          []int{8, 16, 32, 64},
	}
}

func (o PolicyCompareOptions) withDefaults() PolicyCompareOptions {
	d := DefaultPolicyCompareOptions()
	if o.NumGPUs <= 0 {
		o.NumGPUs = d.NumGPUs
	}
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = d.MaxBatch
	}
	if o.StoreAdapters <= 0 {
		o.StoreAdapters = d.StoreAdapters
	}
	if o.DriftRotations <= 0 {
		o.DriftRotations = d.DriftRotations
	}
	if len(o.Ranks) == 0 {
		o.Ranks = d.Ranks
	}
	return o
}

// PolicyComparePoint is one (workload, policy) cell of the comparison.
type PolicyComparePoint struct {
	Workload string
	Policy   string

	Throughput float64
	Finished   int64
	// BusyFrac is the mean per-GPU busy fraction: the same tokens at a
	// higher busy fraction means wasted invocation time (e.g. SGMV rank
	// padding in mixed-rank batches). UtilSpread is max−min per-GPU busy
	// fraction (derived from core.Stats.BusyTime): load imbalance a mean
	// alone hides.
	BusyFrac         float64
	UtilSpread       float64
	AdapterStalls    int64
	AdapterEvictions int64
	Migrations       int64
	QueuePeak        int
}

// policyWorkload is one trace the comparison replays under each policy.
type policyWorkload struct {
	name string
	// trace regenerates the identical request stream for every policy.
	trace func() []workload.Request
	// adapterRank is non-nil only for the heterogeneous-rank scenario.
	adapterRank func(lora.ModelID) int
}

// poisson builds a constant-rate arrival trace with the given
// popularity distribution.
func (o PolicyCompareOptions) poisson(kind dist.Kind) []workload.Request {
	gen := workload.NewGenerator(kind, workload.ShareGPTLengths(), o.Seed)
	n := int(o.Rate * o.Horizon.Seconds())
	rate := func(time.Duration) float64 { return o.Rate }
	return gen.Poisson(rate, o.Rate, o.Horizon, dist.NumModels(kind, n))
}

func (o PolicyCompareOptions) workloads() []policyWorkload {
	var wls []policyWorkload
	for _, kind := range dist.Kinds {
		k := kind
		wls = append(wls, policyWorkload{
			name:  k.String(),
			trace: func() []workload.Request { return o.poisson(k) },
		})
	}
	wls = append(wls, policyWorkload{
		name: "ZipfDrift",
		trace: func() []workload.Request {
			gen := workload.NewGenerator(dist.Zipf, workload.ShareGPTLengths(), o.Seed)
			n := int(o.Rate * o.Horizon.Seconds())
			numModels := dist.NumModels(dist.Zipf, n)
			phases := make([]dist.Phase, o.DriftRotations)
			for i := range phases {
				phases[i] = dist.Phase{
					Length:    o.Horizon / time.Duration(o.DriftRotations),
					Kind:      dist.Zipf,
					Alpha:     dist.DefaultZipfAlpha,
					NumModels: numModels,
					Offset:    i * numModels,
				}
			}
			rate := func(time.Duration) float64 { return o.Rate }
			return gen.PoissonMix(rate, o.Rate, o.Horizon, dist.Mix{Phases: phases})
		},
	})
	ranks := o.Ranks
	wls = append(wls, policyWorkload{
		name:  "RankMix",
		trace: func() []workload.Request { return o.poisson(dist.Uniform) },
		adapterRank: func(id lora.ModelID) int {
			return ranks[int(id)%len(ranks)]
		},
	})
	return wls
}

// ComparePolicies runs every built-in policy over the four paper
// popularity distributions plus the Zipf hot-set-drift and
// heterogeneous-rank workloads, on an adapter-store-pressured fleet.
func ComparePolicies(opts PolicyCompareOptions) ([]PolicyComparePoint, error) {
	o := opts.withDefaults()
	model := models.Llama2_7B()
	var points []PolicyComparePoint
	for _, wl := range o.workloads() {
		// StoreAdapters counts adapters, so the store budget tracks the
		// workload's mean adapter size: a rank-mix palette averages
		// bigger weights than the default rank, and sizing in
		// default-rank units would silently tighten its store.
		adapterBytes := model.LoRABytes(models.DefaultLoRARank)
		if wl.adapterRank != nil {
			var sum int64
			for _, r := range o.Ranks {
				sum += model.LoRABytes(r)
			}
			adapterBytes = sum / int64(len(o.Ranks))
		}
		storeBytes := int64(o.StoreAdapters) * adapterBytes
		for _, policy := range sched.PolicyNames {
			sys := core.PunicaSystem()
			sys.MaxBatch = o.MaxBatch
			c := cluster.New(cluster.Config{
				NumGPUs: o.NumGPUs,
				Engine: core.Config{
					System:         sys,
					GPU:            hw.A100(),
					Model:          model,
					Rank:           models.DefaultLoRARank,
					LoRAStoreBytes: storeBytes,
				},
				MigrationInterval: 10 * time.Second,
				Policy:            policy,
				AdapterRank:       wl.adapterRank,
			})
			res, err := c.Run(wl.trace())
			if err != nil {
				return nil, fmt.Errorf("policy %s on %s: %w", policy, wl.name, err)
			}
			busy := 0.0
			minBusy, maxBusy := 0.0, 0.0
			for i, f := range res.GPUBusyFraction {
				busy += f
				if i == 0 || f < minBusy {
					minBusy = f
				}
				if f > maxBusy {
					maxBusy = f
				}
			}
			if len(res.GPUBusyFraction) > 0 {
				busy /= float64(len(res.GPUBusyFraction))
			}
			points = append(points, PolicyComparePoint{
				Workload:         wl.name,
				Policy:           policy,
				Throughput:       res.Throughput,
				Finished:         res.Finished,
				BusyFrac:         busy,
				UtilSpread:       maxBusy - minBusy,
				AdapterStalls:    res.AdapterStalls,
				AdapterEvictions: res.AdapterEvictions,
				Migrations:       res.Migrations,
				QueuePeak:        res.QueuePeak,
			})
		}
	}
	return points, nil
}

// PoliciesReport renders the head-to-head, one row and bench record per
// (workload, policy) cell.
func PoliciesReport(points []PolicyComparePoint) *Report {
	r := &Report{
		Experiment: "policies",
		Title:      "Scheduling-policy comparison (store-pressured fleet, Poisson arrivals):",
	}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: p.Workload + "/" + p.Policy, Cells: []Cell{
			{Name: "workload", Header: "workload", Value: p.Workload},
			{Name: "policy", Header: "policy", Value: p.Policy},
			{Name: "throughput_tok_s", Header: "throughput", Format: "%.0f tok/s", Value: p.Throughput},
			{Name: "busy_frac", Value: p.BusyFrac},
			{Header: "busy", Format: "%.1f%%", Value: 100 * p.BusyFrac},
			{Name: "util_spread", Value: p.UtilSpread},
			{Header: "spread", Format: "%.1f%%", Value: 100 * p.UtilSpread},
			{Name: "adapter_stalls", Header: "stalls", Value: p.AdapterStalls},
			{Name: "adapter_evictions", Header: "adapter evictions", Value: p.AdapterEvictions},
			{Name: "migrations", Header: "migrations", Value: p.Migrations},
			{Name: "queue_peak", Header: "queue peak", Value: p.QueuePeak},
		}})
	}
	return r
}
