// Traffic experiment: flash-crowd sweep with the fairness layer off and
// on. Each sweep point replays the SAME open-loop trace twice — a
// Skewed background population plus one whale tenant's spike on the hot
// adapter — against a cluster whose adapter store is deliberately tight
// (StoreAdapters slots per GPU), so the crowd forces adapter stalls.
// Fairness off, the stalls concentrate on whichever tail tenant sits
// behind the whale's backlog; fairness on, the VTC layer interleaves
// tenants and the stall skew collapses. The committed
// bench/BENCH_traffic.json baseline gates both throughput and the
// off/on skew ratio.

package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

// TrafficOptions configures the flash-crowd fairness sweep.
type TrafficOptions struct {
	// NumGPUs and MaxBatch size the cluster (defaults 2 GPUs × batch 8).
	NumGPUs  int
	MaxBatch int
	// StoreAdapters caps each GPU's adapter store to that many resident
	// adapters (default 4). The default geometry is deliberate: the
	// background working set (NumModels adapters) exactly fits the
	// store, and the whale's private adapter is the +1 that overflows
	// it — so every adapter stall in the sweep is whale-induced.
	StoreAdapters int
	// NumModels is the Skewed background adapter population (default 4).
	NumModels int
	// Base and Horizon shape the background: Base req/s with a gentle
	// diurnal swell over Horizon (defaults 2 req/s over 4m).
	Base    float64
	Horizon time.Duration
	// SpikePeaks is the sweep: one flash crowd per peak rate (req/s,
	// 0 = no spike), each run fairness-off then fairness-on over the
	// identical trace. Default {0, 32, 40}.
	SpikePeaks []float64
	// SpikeModel and WhaleTenant target the crowd: every spike arrival
	// hits that adapter tagged with that tenant. SpikeModel defaults to
	// NumModels — the first id past the background set, the whale's
	// private fine-tune.
	SpikeModel  int
	WhaleTenant int64
	// Tenants is the background tenant population (default 64 tenants,
	// 3 active per adapter, no churn — small enough that per-tenant
	// outcomes are statistically meaningful over the horizon).
	Tenants workload.TenantSpec
	// Lengths samples request sizes (default ShareGPT log-normals).
	Lengths workload.Lengths
	// Seed drives both the arrival process and the spec's seeded parts.
	Seed int64
}

func (o TrafficOptions) withDefaults() TrafficOptions {
	if o.NumGPUs <= 0 {
		o.NumGPUs = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.StoreAdapters <= 0 {
		o.StoreAdapters = 4
	}
	if o.NumModels <= 0 {
		o.NumModels = 4
	}
	if o.Base <= 0 {
		o.Base = 2
	}
	if o.Horizon <= 0 {
		o.Horizon = 4 * time.Minute
	}
	if len(o.SpikePeaks) == 0 {
		o.SpikePeaks = []float64{0, 32, 40}
	}
	if o.SpikeModel <= 0 {
		o.SpikeModel = o.NumModels
	}
	if o.WhaleTenant <= 0 {
		o.WhaleTenant = 1
	}
	if o.Tenants.Population <= 0 {
		o.Tenants = workload.TenantSpec{Population: 64, PerModel: 3}
	}
	if o.Lengths.PromptMax <= 0 {
		o.Lengths = workload.ShareGPTLengths()
	}
	if o.Seed == 0 {
		o.Seed = 2
	}
	return o
}

// Spec builds the sweep point's traffic spec: diurnal background over a
// Skewed mix, plus (peak > 0) one whale flash crowd on the hot adapter.
func (o TrafficOptions) Spec(peak float64) workload.TrafficSpec {
	spec := workload.TrafficSpec{
		Horizon:       o.Horizon,
		Base:          o.Base,
		DiurnalAmp:    0.3,
		DiurnalPeriod: o.Horizon,
		Tenants:       o.Tenants,
		Mix: dist.Mix{Phases: []dist.Phase{{
			Kind: dist.Skewed, NumModels: o.NumModels,
		}}},
		Seed: o.Seed,
	}
	if peak > 0 {
		spec.Spikes = []workload.Spike{{
			At:     o.Horizon / 4,
			Peak:   peak,
			Ramp:   15 * time.Second,
			Hold:   o.Horizon / 2,
			Decay:  20 * time.Second,
			Model:  o.SpikeModel,
			Tenant: o.WhaleTenant,
		}}
	}
	return spec
}

// TrafficPoint is one (spike peak, fairness) run over the shared trace.
type TrafficPoint struct {
	SpikePeak float64
	Fairness  bool

	Requests   int
	Finished   int64
	Throughput float64 // decode tokens/s over the makespan
	Makespan   time.Duration

	// End-to-end latency (seconds): overall, and the tail tenants' p99
	// with the whale excluded — the number the whale's crowd inflates.
	P50     float64
	P99     float64
	TailP99 float64

	// Fairness indices from Result: max/median per-tenant adapter
	// stalls, and Jain's index over per-tenant decode tokens.
	StallSkew    float64
	JainFairness float64

	AdapterStalls int64
	QueuePeak     int
	TenantCount   int
	Digest        string
}

// trafficCell replays one trace against one cluster configuration.
func trafficCell(o TrafficOptions, trace []workload.Request, peak float64, fair bool) (TrafficPoint, error) {
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
			LoRAStoreBytes: int64(o.StoreAdapters) * model.LoRABytes(models.DefaultLoRARank),
		},
		MigrationInterval: 10 * time.Second,
		Fairness:          fair,
	}
	c := cluster.New(cfg)
	res, err := c.Run(trace)
	if err != nil {
		return TrafficPoint{}, fmt.Errorf("traffic peak%g/fair=%v: %w", peak, fair, err)
	}
	if res.Finished != int64(len(trace)) {
		return TrafficPoint{}, fmt.Errorf("traffic peak%g/fair=%v: finished %d of %d trace requests",
			peak, fair, res.Finished, len(trace))
	}
	p := TrafficPoint{
		SpikePeak:     peak,
		Fairness:      fair,
		Requests:      len(trace),
		Finished:      res.Finished,
		Throughput:    res.Throughput,
		Makespan:      res.Makespan,
		P50:           res.EndToEnd.Percentile(50),
		P99:           res.EndToEnd.Percentile(99),
		TailP99:       cluster.TenantP99(res.Tenants, o.WhaleTenant),
		StallSkew:     res.StallSkew,
		JainFairness:  res.JainFairness,
		AdapterStalls: res.AdapterStalls,
		QueuePeak:     res.QueuePeak,
		TenantCount:   len(res.Tenants),
		Digest:        trafficDigest(res),
	}
	return p, nil
}

// trafficDigest fingerprints the run's simulated outcomes — the
// determinism witness that fairness toggling is the only variable
// between a sweep pair's two runs.
func trafficDigest(res *cluster.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "finished=%d decode=%d makespan=%d stalls=%d peak=%d tenants=%d e2e{%s}",
		res.Finished, res.DecodeTokens, int64(res.Makespan),
		res.AdapterStalls, res.QueuePeak, len(res.Tenants), res.EndToEnd.Summary())
	for _, to := range res.Tenants {
		fmt.Fprintf(h, " t%d:%d/%d/%d", to.Tenant, to.Finished, to.DecodeTokens, to.AdapterStalls)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Traffic runs the flash-crowd sweep: for each spike peak, fairness off
// then fairness on over the identical trace.
func Traffic(opts TrafficOptions) ([]TrafficPoint, error) {
	o := opts.withDefaults()
	var points []TrafficPoint
	for _, peak := range o.SpikePeaks {
		// One generator per peak: the off/on pair must replay the same
		// arrivals, so the trace is drawn once and shared.
		gen := workload.NewGenerator(dist.Skewed, o.Lengths, o.Seed)
		trace := gen.Traffic(o.Spec(peak))
		for _, fair := range []bool{false, true} {
			p, err := trafficCell(o, trace, peak, fair)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// TrafficReport renders the sweep, one row and bench record per run,
// plus one off/on comparison record per spike peak carrying the skew
// ratio and tail-p99 gain the fairness layer is accountable for.
func TrafficReport(points []TrafficPoint) *Report {
	r := &Report{
		Experiment: "traffic",
		Title:      "Traffic — flash-crowd sweep, fairness off vs on over identical traces:",
	}
	fair := map[float64]TrafficPoint{} // each peak's fairness-on run
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("peak%g/fair=%s", p.SpikePeak, onOff(p.Fairness)), Cells: []Cell{
			{Name: "spike_peak", Header: "peak", Format: "%g", Value: p.SpikePeak},
			{Name: "fairness", Header: "fairness", Value: onOff(p.Fairness)},
			{Name: "requests", Header: "requests", Value: p.Requests},
			{Name: "finished", Value: p.Finished},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: p.Throughput},
			{Name: "makespan_s", Value: p.Makespan.Seconds()},
			{Name: "p50_s", Header: "p50", Format: "%.2fs", Value: p.P50},
			{Name: "p99_s", Header: "p99", Format: "%.2fs", Value: p.P99},
			{Name: "tail_p99_s", Header: "tail p99", Format: "%.2fs", Value: p.TailP99},
			{Name: "stall_skew", Header: "stall skew", Format: "%.1f", Value: p.StallSkew},
			{Name: "jain", Header: "jain", Format: "%.3f", Value: p.JainFairness},
			{Name: "adapter_stalls", Header: "stalls", Value: p.AdapterStalls},
			{Name: "queue_peak", Header: "queue peak", Value: p.QueuePeak},
			{Name: "tenants", Header: "tenants", Value: p.TenantCount},
			{Name: "digest", Header: "digest", Value: p.Digest},
		}})
		if p.Fairness {
			fair[p.SpikePeak] = p
		}
	}
	for _, off := range points {
		on, ok := fair[off.SpikePeak]
		if off.Fairness || !ok {
			continue
		}
		m := map[string]float64{"jain_gain": on.JainFairness - off.JainFairness}
		if on.StallSkew > 0 {
			m["skew_ratio"] = off.StallSkew / on.StallSkew
		}
		if on.TailP99 > 0 {
			m["tail_p99_gain"] = off.TailP99 / on.TailP99
		}
		r.Derived = append(r.Derived, BenchRecord{
			Experiment: "traffic",
			Name:       fmt.Sprintf("peak%g/fairness-gain", off.SpikePeak),
			Metrics:    m,
		})
	}
	return r
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
