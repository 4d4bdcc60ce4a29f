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

// Fig13Options parameterises the cluster-deployment experiment. The
// defaults reproduce §7.3: 16 GPUs, one hour, Zipf-1.5 popularity, 7B
// model, Poisson arrivals whose rate ramps up and back down.
type Fig13Options struct {
	NumGPUs  int
	Peak     float64 // req/s at the plateau
	RampUp   time.Duration
	Hold     time.Duration
	RampDown time.Duration
	BinWidth time.Duration
	Seed     int64

	// ZipfAlpha overrides the Skewed popularity decay when > 1 (the
	// paper uses 1.5).
	ZipfAlpha float64
	// HotSetRotations > 1 splits the horizon into that many popularity
	// phases with disjoint hot sets (popularity drift): adapters go
	// cold mid-run and a fresh set heats up, stressing the adapter
	// stores and the autoscaler. 0 or 1 keeps the paper's static
	// population.
	HotSetRotations int

	// Policy selects the placement policy ("" = the paper's §5.1 rule).
	Policy string
}

// trapezoid returns the load profile the options describe.
func (o Fig13Options) trapezoid() workload.Trapezoid {
	return workload.Trapezoid{
		Peak: o.Peak, RampUp: o.RampUp, Hold: o.Hold, RampDown: o.RampDown,
	}
}

// fig13Trace builds the §7.3 request trace: Poisson arrivals over the
// trapezoidal profile with Zipf popularity — static by default, or a
// rotating hot set when HotSetRotations asks for drift.
func fig13Trace(opts Fig13Options) []workload.Request {
	profile := opts.trapezoid()
	horizon := profile.Horizon()
	gen := workload.NewGenerator(dist.Skewed, workload.ClusterLengths(), opts.Seed)
	numModels := dist.NumModels(dist.Skewed, int(opts.Peak*horizon.Seconds()/2))
	alpha := opts.ZipfAlpha
	if alpha <= 1 {
		alpha = dist.DefaultZipfAlpha
	}
	rotations := opts.HotSetRotations
	if rotations <= 1 {
		if alpha == dist.DefaultZipfAlpha {
			return gen.Poisson(profile.Rate, opts.Peak, horizon, numModels)
		}
		rotations = 1
	}
	phases := make([]dist.Phase, rotations)
	for i := range phases {
		phases[i] = dist.Phase{
			Length:    horizon / time.Duration(rotations),
			Kind:      dist.Zipf,
			Alpha:     alpha,
			NumModels: numModels,
			Offset:    i * numModels,
		}
	}
	return gen.PoissonMix(profile.Rate, opts.Peak, horizon, dist.Mix{Phases: phases})
}

// DefaultFig13Options returns the paper-scale configuration.
func DefaultFig13Options() Fig13Options {
	return Fig13Options{
		NumGPUs:  16,
		Peak:     11,
		RampUp:   25 * time.Minute,
		Hold:     10 * time.Minute,
		RampDown: 25 * time.Minute,
		BinWidth: time.Minute,
		Seed:     42,
	}
}

// Fig13Result carries the three panels of the figure plus summary
// statistics.
type Fig13Result struct {
	Opts    Fig13Options
	Horizon time.Duration

	// ReqRate, TokRate and BatchPerGPU are binned series: requests/s,
	// processed tokens/s, and per-GPU mean invocation batch size.
	ReqRate     []float64
	TokRate     []float64
	BatchPerGPU [][]float64

	Requests   int
	Finished   int64
	Migrations int64
	Evictions  int64
	Throughput float64
	// Latency and backpressure summaries (seconds / counts), carried for
	// the machine-readable bench output.
	P50TTFT       float64
	P99TTFT       float64
	AdapterStalls int64
	// PeakIdleGPUs counts GPUs that stayed idle during the plateau bin
	// with the highest load, and TailIdleGPUs during the final bin —
	// consolidation should free GPUs as load recedes.
	TailIdleGPUs int
}

// Fig13 runs the cluster deployment experiment.
func Fig13(opts Fig13Options) (*Fig13Result, error) {
	horizon := opts.trapezoid().Horizon()
	reqs := fig13Trace(opts)

	c := cluster.New(cluster.Config{
		NumGPUs: opts.NumGPUs,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
		Policy:            opts.Policy,
	})
	res, err := c.Run(reqs)
	if err != nil {
		return nil, err
	}

	span := res.Makespan
	if horizon > span {
		span = horizon
	}
	out := &Fig13Result{
		Opts:       opts,
		Horizon:    span,
		ReqRate:    res.ArrivalSeries.RateBin(span, opts.BinWidth),
		TokRate:    res.ProcessedSeries.RateBin(span, opts.BinWidth),
		Requests:   len(reqs),
		Finished:   res.Finished,
		Migrations: res.Migrations,
		Evictions:  res.Evictions,
		Throughput: res.Throughput,

		P50TTFT:       res.TimeToFirstToken.Percentile(50),
		P99TTFT:       res.TimeToFirstToken.Percentile(99),
		AdapterStalls: res.AdapterStalls,
	}
	for i := range res.BatchSeries {
		out.BatchPerGPU = append(out.BatchPerGPU, res.BatchSeries[i].Bin(span, opts.BinWidth))
	}
	// Idle GPUs in the final bin: batch size 0.
	lastBin := len(out.ReqRate) - 1
	for _, series := range out.BatchPerGPU {
		if lastBin < len(series) && series[lastBin] == 0 {
			out.TailIdleGPUs++
		}
	}
	return out, nil
}

// Fig13Report renders the three panels as aligned text columns and CSV,
// one row per bin, the CSV with one batch column per GPU, and the run's
// summary as its one bench record.
func Fig13Report(r *Fig13Result) *Report {
	rep := &Report{
		Experiment: "fig13",
		Title: fmt.Sprintf("Figure 13 — Cluster deployment: %d GPUs, %v horizon, Zipf-1.5, 7B\n"+
			"requests=%d finished=%d migrations=%d evictions=%d throughput=%.0f tok/s\n",
			r.Opts.NumGPUs, r.Horizon.Round(time.Second),
			r.Requests, r.Finished, r.Migrations, r.Evictions, r.Throughput),
		Derived: []BenchRecord{{
			Experiment: "fig13",
			Name:       fmt.Sprintf("%dgpus/peak%.0f", r.Opts.NumGPUs, r.Opts.Peak),
			Metrics: map[string]float64{
				"throughput_tok_s": r.Throughput,
				"p50_ttft_s":       r.P50TTFT,
				"p99_ttft_s":       r.P99TTFT,
				"adapter_stalls":   float64(r.AdapterStalls),
				"evictions":        float64(r.Evictions),
				"migrations":       float64(r.Migrations),
				"finished":         float64(r.Finished),
				"requests":         float64(r.Requests),
			},
		}},
	}
	for i := range r.ReqRate {
		busy := 0
		sum := 0.0
		var batches []Cell
		for g, series := range r.BatchPerGPU {
			v := 0.0
			if i < len(series) {
				v = series[i]
			}
			if v > 0 {
				busy++
				sum += v
			}
			batches = append(batches, Cell{Name: fmt.Sprintf("gpu%02d_batch", g), Value: v})
		}
		mean := 0.0
		if busy > 0 {
			mean = sum / float64(busy)
		}
		rep.Rows = append(rep.Rows, Row{Cells: append([]Cell{
			{Name: "minute", Header: "t(min)", Format: "%.0f", Value: (time.Duration(i) * r.Opts.BinWidth).Minutes()},
			{Name: "req_per_s", Header: "req/s", Format: "%.1f", Value: r.ReqRate[i]},
			{Name: "tok_per_s", Header: "tok/s", Format: "%.0f", Value: r.TokRate[i]},
			{Name: "busy_gpus", Header: "busy GPUs", Value: busy},
			{Header: "mean batch (busy)", Format: "%.1f", Value: mean},
		}, batches...)})
	}
	return rep
}
