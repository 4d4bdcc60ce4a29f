package experiments

import (
	"fmt"
	"sort"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/metrics"
	"punica/internal/models"
	"punica/internal/sched"
	"punica/internal/workload"
)

// FaultsOptions parameterises the availability experiment: the same
// Poisson trace replays under every (placement policy × failure rate)
// cell, with failures drawn as a seeded Poisson process of crash,
// crash-and-replace, and transient-stall events. Rate 0 is the
// fault-free baseline each policy's degradation is measured against.
type FaultsOptions struct {
	NumGPUs int
	// Rate is the arrival rate (req/s); Rate×Horizon sizes the trace.
	Rate    float64
	Horizon time.Duration
	Seed    int64

	// Policies to compare (default: all built-ins).
	Policies []string
	// FaultRates are the injected failure rates in faults per GPU-hour.
	// 0 must be present (or is prepended) to anchor the baseline.
	FaultRates []float64
}

// DefaultFaultsOptions returns an 8-GPU sweep that finishes in seconds
// of wall time while still injecting several failures per cell.
func DefaultFaultsOptions() FaultsOptions {
	return FaultsOptions{
		NumGPUs:    8,
		Rate:       12,
		Horizon:    3 * time.Minute,
		Seed:       42,
		Policies:   append([]string(nil), sched.PolicyNames...),
		FaultRates: []float64{0, 30, 90},
	}
}

func (o FaultsOptions) withDefaults() FaultsOptions {
	d := DefaultFaultsOptions()
	if o.NumGPUs <= 0 {
		o.NumGPUs = d.NumGPUs
	}
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if len(o.Policies) == 0 {
		o.Policies = d.Policies
	}
	if len(o.FaultRates) == 0 {
		o.FaultRates = d.FaultRates
	}
	hasZero := false
	for _, r := range o.FaultRates {
		if r == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		o.FaultRates = append([]float64{0}, o.FaultRates...)
	}
	// The fault-free baseline must run before the cells measured
	// against it: sort ascending so rate 0 is always first.
	sort.Float64s(o.FaultRates)
	return o
}

// FaultsPoint is one (policy, failure-rate) cell.
type FaultsPoint struct {
	Policy    string
	FaultRate float64 // faults per GPU-hour

	Failures     int64
	Replacements int64
	Stalls       int64
	Recovered    int64
	// RecomputedPrefillTokens is the KvCache context destroyed by
	// crashes — the recomputation bill recovery pays.
	RecomputedPrefillTokens int64

	Finished   int64
	Throughput float64
	// ThroughputFrac is Throughput over the same policy's fault-free
	// baseline (1.0 at rate 0).
	ThroughputFrac float64
	P50TTFT        float64 // seconds
	P99TTFT        float64
	// P99TTFTDelta is P99TTFT minus the fault-free baseline's (seconds).
	P99TTFTDelta float64
	// RecoveryP50/P99 are failure→re-placement latencies (seconds).
	RecoveryP50 float64
	RecoveryP99 float64
}

// faultsTrace builds the shared request stream: constant-rate Poisson
// arrivals with the paper's Skewed popularity.
func faultsTrace(o FaultsOptions) []workload.Request {
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), o.Seed)
	n := int(o.Rate * o.Horizon.Seconds())
	rate := func(time.Duration) float64 { return o.Rate }
	return gen.Poisson(rate, o.Rate, o.Horizon, dist.NumModels(dist.Skewed, n))
}

// Faults runs the availability sweep: for each policy, the identical
// trace under each failure rate, reporting throughput and p99-TTFT
// degradation versus that policy's fault-free run. Every cell asserts
// the recovery contract — all requests finish, recovered or not.
func Faults(opts FaultsOptions) ([]FaultsPoint, error) {
	o := opts.withDefaults()
	var out []FaultsPoint
	for _, policy := range o.Policies {
		var baseThroughput, baseP99 float64
		for _, rate := range o.FaultRates {
			reqs := faultsTrace(o)
			var plan *cluster.FaultPlan
			if rate > 0 {
				p := cluster.RandomFaultPlan(o.Seed+int64(rate*1000), o.NumGPUs, o.Horizon, rate)
				plan = &p
			}
			c := cluster.New(cluster.Config{
				NumGPUs: o.NumGPUs,
				Engine: core.Config{
					System: core.PunicaSystem(),
					GPU:    hw.A100(),
					Model:  models.Llama2_7B(),
					Rank:   models.DefaultLoRARank,
				},
				MigrationInterval: 10 * time.Second,
				Policy:            policy,
				Faults:            plan,
			})
			res, err := c.Run(reqs)
			if err != nil {
				return nil, fmt.Errorf("faults %s@%.0f: %w", policy, rate, err)
			}
			if res.Finished != int64(len(reqs)) {
				return nil, fmt.Errorf("faults %s@%.0f: finished %d/%d — recovery lost requests",
					policy, rate, res.Finished, len(reqs))
			}
			p := FaultsPoint{
				Policy:                  policyLabel(policy),
				FaultRate:               rate,
				Failures:                res.GPUFailures,
				Replacements:            res.GPUReplacements,
				Stalls:                  res.GPUStalls,
				Recovered:               res.RecoveredRequests,
				RecomputedPrefillTokens: res.RecomputedPrefillTokens,
				Finished:                res.Finished,
				Throughput:              res.Throughput,
				P50TTFT:                 res.TimeToFirstToken.Percentile(50),
				P99TTFT:                 res.TimeToFirstToken.Percentile(99),
				RecoveryP50:             res.RecoveryLatency.Percentile(50),
				RecoveryP99:             res.RecoveryLatency.Percentile(99),
			}
			if rate == 0 {
				baseThroughput, baseP99 = p.Throughput, p.P99TTFT
			}
			if baseThroughput > 0 {
				p.ThroughputFrac = p.Throughput / baseThroughput
			}
			p.P99TTFTDelta = p.P99TTFT - baseP99
			out = append(out, p)
		}
	}
	return out, nil
}

func policyLabel(name string) string {
	if name == "" {
		return "paper"
	}
	return name
}

// MergedRecoveryLatency folds per-cell recovery histograms into one
// distribution — a convenience for summarising a sweep.
func MergedRecoveryLatency(results []*cluster.Result) metrics.Histogram {
	var h metrics.Histogram
	for _, r := range results {
		if r != nil {
			h.Merge(&r.RecoveryLatency)
		}
	}
	return h
}

// FaultsReport renders the sweep, one row and bench record per (policy,
// fault-rate) cell.
func FaultsReport(points []FaultsPoint) *Report {
	r := &Report{
		Experiment: "faults",
		Title: "Extension — availability under GPU failures (crash / crash+replace / stall):\n" +
			"degradation is vs. the same policy at fault rate 0\n",
	}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("%s/%.0f-per-gpu-hour", p.Policy, p.FaultRate), Cells: []Cell{
			{Name: "policy", Header: "policy", Value: p.Policy},
			{Name: "faults_per_gpu_hour", Header: "faults/GPU-h", Format: "%.0f", Value: p.FaultRate},
			{Name: "gpu_failures", Header: "fail", Value: p.Failures},
			{Name: "gpu_replacements", Header: "repl", Value: p.Replacements},
			{Name: "gpu_stalls", Header: "stall", Value: p.Stalls},
			{Name: "recovered_requests", Header: "recov", Value: p.Recovered},
			{Name: "recomputed_prefill_tokens", Header: "recompute-tok", Value: p.RecomputedPrefillTokens},
			{Name: "finished", Value: p.Finished},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: p.Throughput},
			{Name: "throughput_frac", Header: "vs base", Format: "%.2f", Value: p.ThroughputFrac},
			{Name: "p50_ttft_s", Value: p.P50TTFT},
			{Name: "p99_ttft_s", Header: "p99 TTFT(s)", Format: "%.2f", Value: p.P99TTFT},
			{Name: "p99_ttft_delta_s", Header: "Δp99(s)", Format: "%+.2f", Value: p.P99TTFTDelta},
			{Name: "recovery_p50_s", Value: p.RecoveryP50},
			{Name: "recovery_p99_s", Header: "recov p99(s)", Format: "%.3f", Value: p.RecoveryP99},
		}})
	}
	return r
}
