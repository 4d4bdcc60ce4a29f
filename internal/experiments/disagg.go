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

// DisaggOptions parameterises the prefill/decode disaggregation
// experiment: the same prefill-heavy trace replays on the same GPU
// count in unified mode (every GPU runs "Prefill steps and Decode steps
// continuously", §5) and in disaggregated mode (a prefill pool feeds a
// decode pool by KV migration), so any difference in decode-side tail
// latency is attributable to removing prefill head-of-line blocking.
type DisaggOptions struct {
	NumGPUs int
	// PrefillGPUs sizes the disaggregated prefill pool; the remaining
	// NumGPUs − PrefillGPUs serve decode.
	PrefillGPUs int
	// Rate is the arrival rate (req/s); Rate×Horizon sizes each trace.
	Rate    float64
	Horizon time.Duration
	Seed    int64

	// Lengths samples the prefill-heavy mix: long prompts (the blocking
	// work) with moderate outputs (the blocked work).
	Lengths workload.Lengths

	// Policy selects the placement policy for both modes.
	Policy string
}

// PrefillHeavyLengths is the disaggregation experiment's mix: prompts
// averaging ≈700 tokens (capped near the engine's single-step prefill
// ceiling) against ShareGPT-like outputs. One such prefill occupies a
// unified GPU for tens of milliseconds — several decode steps' worth of
// stall for every other tenant in the batch.
func PrefillHeavyLengths() workload.Lengths {
	return workload.Lengths{
		PromptMu: 6.4, PromptSigma: 0.5, PromptMin: 256, PromptMax: 1536,
		OutMu: 4.0, OutSigma: 0.7, OutMin: 8, OutMax: 256,
	}
}

// DefaultDisaggOptions returns an 8-GPU sweep (2 prefill + 6 decode in
// disaggregated mode) that finishes in seconds of wall time.
func DefaultDisaggOptions() DisaggOptions {
	return DisaggOptions{
		NumGPUs:     8,
		PrefillGPUs: 2,
		Rate:        24,
		Horizon:     2 * time.Minute,
		Seed:        42,
		Lengths:     PrefillHeavyLengths(),
	}
}

func (o DisaggOptions) withDefaults() DisaggOptions {
	d := DefaultDisaggOptions()
	if o.NumGPUs <= 0 {
		o.NumGPUs = d.NumGPUs
	}
	if o.PrefillGPUs <= 0 || o.PrefillGPUs >= o.NumGPUs {
		o.PrefillGPUs = cluster.DisaggFromRatio(o.NumGPUs, 0.25).PrefillGPUs
	}
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if o.Lengths == (workload.Lengths{}) {
		o.Lengths = d.Lengths
	}
	return o
}

// DisaggPrefillGPUs translates a -disagg-ratio CLI knob into a prefill
// pool size for numGPUs.
func DisaggPrefillGPUs(numGPUs int, ratio float64) int {
	return cluster.DisaggFromRatio(numGPUs, ratio).PrefillGPUs
}

// DisaggPoint is one (distribution, mode) cell of the comparison.
type DisaggPoint struct {
	Workload string
	Mode     string // "unified" or "P+D" (e.g. "2p+6d")

	Throughput float64
	Finished   int64
	// DecodeP50/P99 are inter-token latency percentiles (seconds) — the
	// §5 head-of-line metric disaggregation attacks.
	DecodeP50 float64
	DecodeP99 float64
	P50TTFT   float64
	P99TTFT   float64

	// Pool utilization (derived from core.Stats.BusyTime): in unified
	// mode both report the fleet mean; split, they expose imbalance.
	PrefillUtil float64
	DecodeUtil  float64

	KVMigrations      int64
	KVMigratedMB      float64
	Fallbacks         int64
	AdapterPrefetches int64
	QueuePeak         int
}

// disaggTrace builds one distribution's prefill-heavy Poisson trace.
func (o DisaggOptions) disaggTrace(kind dist.Kind) []workload.Request {
	gen := workload.NewGenerator(kind, o.Lengths, o.Seed)
	n := int(o.Rate * o.Horizon.Seconds())
	rate := func(time.Duration) float64 { return o.Rate }
	return gen.Poisson(rate, o.Rate, o.Horizon, dist.NumModels(kind, n))
}

func (o DisaggOptions) run(reqs []workload.Request, disagg *cluster.DisaggConfig) (*cluster.Result, error) {
	c := cluster.New(cluster.Config{
		NumGPUs: o.NumGPUs,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
		Policy:            o.Policy,
		Disagg:            disagg,
	})
	return c.Run(reqs)
}

func disaggPoint(workloadName, mode string, res *cluster.Result) DisaggPoint {
	return DisaggPoint{
		Workload:          workloadName,
		Mode:              mode,
		Throughput:        res.Throughput,
		Finished:          res.Finished,
		DecodeP50:         res.InterTokenLatency.Percentile(50),
		DecodeP99:         res.InterTokenLatency.Percentile(99),
		P50TTFT:           res.TimeToFirstToken.Percentile(50),
		P99TTFT:           res.TimeToFirstToken.Percentile(99),
		PrefillUtil:       res.PrefillUtil,
		DecodeUtil:        res.DecodeUtil,
		KVMigrations:      res.KVMigrations,
		KVMigratedMB:      float64(res.KVMigratedBytes) / (1 << 20),
		Fallbacks:         res.KVMigrationFallbacks,
		AdapterPrefetches: res.AdapterPrefetches,
		QueuePeak:         res.QueuePeak,
	}
}

// Disaggregation runs the unified-vs-disaggregated head-to-head over
// the four paper popularity distributions under the prefill-heavy mix:
// each distribution's identical trace replays on NumGPUs unified GPUs
// and on a PrefillGPUs/(NumGPUs−PrefillGPUs) split fleet. Every cell
// asserts the recovery and leak contracts (all requests finish; KV and
// pin accounting checked inside cluster.Run).
func Disaggregation(opts DisaggOptions) ([]DisaggPoint, error) {
	o := opts.withDefaults()
	split := cluster.DisaggConfig{
		PrefillGPUs: o.PrefillGPUs,
		DecodeGPUs:  o.NumGPUs - o.PrefillGPUs,
	}
	splitName := fmt.Sprintf("%dp+%dd", split.PrefillGPUs, split.DecodeGPUs)
	var points []DisaggPoint
	for _, kind := range dist.Kinds {
		// One trace per distribution, shared by both modes: cluster.Run
		// copies request state into its own core.Requests, so the slice
		// is read-only across runs and the equal-trace property is
		// structural.
		reqs := o.disaggTrace(kind)
		n := int64(len(reqs))
		uni, err := o.run(reqs, nil)
		if err != nil {
			return nil, fmt.Errorf("disagg %s unified: %w", kind, err)
		}
		if uni.Finished != n {
			return nil, fmt.Errorf("disagg %s unified finished %d/%d", kind, uni.Finished, n)
		}
		dis, err := o.run(reqs, &split)
		if err != nil {
			return nil, fmt.Errorf("disagg %s split: %w", kind, err)
		}
		if dis.Finished != n {
			return nil, fmt.Errorf("disagg %s split finished %d/%d", kind, dis.Finished, n)
		}
		points = append(points,
			disaggPoint(kind.String(), "unified", uni),
			disaggPoint(kind.String(), splitName, dis))
	}
	return points, nil
}

// DisaggReport renders the head-to-head, one row and bench record per
// (distribution, mode) cell.
func DisaggReport(points []DisaggPoint) *Report {
	r := &Report{
		Experiment: "disagg",
		Title: "Extension — prefill/decode disaggregation (prefill-heavy mix, equal GPU count):\n" +
			"decode p50/p99 are inter-token latencies; util columns are per-pool busy fractions\n",
	}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: p.Workload + "/" + p.Mode, Cells: []Cell{
			{Name: "workload", Header: "workload", Value: p.Workload},
			{Name: "mode", Header: "mode", Value: p.Mode},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: p.Throughput},
			{Name: "finished", Value: p.Finished},
			{Name: "decode_p50_s", Value: p.DecodeP50},
			{Header: "decode p50(ms)", Format: "%.1f", Value: 1000 * p.DecodeP50},
			{Name: "decode_p99_s", Value: p.DecodeP99},
			{Header: "decode p99(ms)", Format: "%.1f", Value: 1000 * p.DecodeP99},
			{Name: "p50_ttft_s", Value: p.P50TTFT},
			{Name: "p99_ttft_s", Header: "p99 TTFT(s)", Format: "%.2f", Value: p.P99TTFT},
			{Name: "prefill_util", Value: p.PrefillUtil},
			{Header: "prefill util", Format: "%.1f%%", Value: 100 * p.PrefillUtil},
			{Name: "decode_util", Value: p.DecodeUtil},
			{Header: "decode util", Format: "%.1f%%", Value: 100 * p.DecodeUtil},
			{Name: "kv_migrations", Header: "kv moves", Value: p.KVMigrations},
			{Name: "kv_migrated_mb", Header: "moved MB", Format: "%.0f", Value: p.KVMigratedMB},
			{Name: "kv_fallbacks", Header: "fallbacks", Value: p.Fallbacks},
			{Name: "adapter_prefetches", Value: p.AdapterPrefetches},
			{Name: "queue_peak", Value: p.QueuePeak},
		}})
	}
	return r
}
