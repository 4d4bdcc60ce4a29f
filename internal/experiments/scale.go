package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

// ScaleOptions parameterises the control-plane scale harness: a sweep of
// fleet sizes × trace lengths measuring the simulator's own cost — wall
// clock, events per second, allocations per event — rather than any
// serving metric. The motivation is CaraServe's observation that
// CPU-side scheduling only wins if the control plane is cheap: this
// harness is the regression meter that keeps it cheap as the codebase
// grows.
//
// Requests are deliberately short (small prompt/output) so the sweep
// stresses scheduling, admission, event dispatch and metrics — the
// per-request fixed costs — instead of simulated token arithmetic.
type ScaleOptions struct {
	// GPUs and Requests define the sweep grid (every pair runs).
	GPUs     []int
	Requests []int
	// Kind is the adapter-popularity distribution (Skewed by default —
	// the paper's hardest placement case).
	Kind dist.Kind
	Seed int64

	// PromptLen/OutputLen fix each request's shape (defaults 32/8).
	PromptLen int
	OutputLen int
	// RatePerGPU is the Poisson arrival rate per fleet GPU (req/s);
	// total rate scales with the fleet so every cell operates near the
	// same per-GPU load.
	RatePerGPU float64
	// MaxBatch caps the invocation batch (§5.1 default 32).
	MaxBatch int

	// Cells shards the fleet for the epoch-barrier parallel engine:
	// 0 auto-derives from the fleet size alone (GPUs/32, clamped to
	// [1,16]) — never from Workers, so sweeping -parallel cannot change
	// the simulation; 1 forces the classic single-cluster path.
	Cells int
	// Workers is the goroutine budget for advancing cells (≤1 runs the
	// sequential reference interleaving). Ignored when the point runs
	// single-cell.
	Workers int
	// EpochDelta overrides the barrier interval Δ (0 = sim.DefaultEpoch).
	EpochDelta time.Duration
}

// autoCells derives the shard count from fleet size only: one cell per
// 32 GPUs, clamped to [1,16]. 16 GPUs → 1 cell (classic path);
// 256 GPUs → 8 cells.
func autoCells(gpus int) int {
	c := gpus / 32
	if c < 1 {
		c = 1
	}
	if c > 16 {
		c = 16
	}
	return c
}

// DefaultScaleOptions returns the standard grid: 16→256 GPUs crossed
// with 10k→1M requests. The full grid is minutes of wall time on a
// laptop after the hot-path work this harness exists to guard; use
// punica-bench -scale-gpus/-scale-requests to run single cells.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{
		GPUs:       []int{16, 64, 256},
		Requests:   []int{10_000, 100_000, 1_000_000},
		Kind:       dist.Skewed,
		Seed:       42,
		PromptLen:  32,
		OutputLen:  8,
		RatePerGPU: 25,
		MaxBatch:   core.DefaultMaxBatch,
	}
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	d := DefaultScaleOptions()
	if len(o.GPUs) == 0 {
		o.GPUs = d.GPUs
	}
	if len(o.Requests) == 0 {
		o.Requests = d.Requests
	}
	if o.PromptLen <= 0 {
		o.PromptLen = d.PromptLen
	}
	if o.OutputLen <= 0 {
		o.OutputLen = d.OutputLen
	}
	if o.RatePerGPU <= 0 {
		o.RatePerGPU = d.RatePerGPU
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = d.MaxBatch
	}
	return o
}

// ScalePoint is one (GPUs, requests) cell of the sweep.
type ScalePoint struct {
	GPUs     int
	Requests int

	// WallSeconds is real elapsed time for the cluster run (trace
	// generation excluded); Events the discrete-event count executed;
	// EventsPerSec their ratio.
	WallSeconds  float64
	Events       int64
	EventsPerSec float64

	// AllocsPerEvent and BytesPerEvent are heap allocations (count and
	// bytes) per executed event, measured via runtime.MemStats deltas
	// around the run — the allocation-flatness headline.
	AllocsPerEvent float64
	BytesPerEvent  float64

	// Simulated outcomes, to pin that the run did real work.
	SimMakespan time.Duration
	Finished    int64
	Throughput  float64
	QueuePeak   int

	// Cells/Workers record the sharding this point ran with (1/1 for
	// the classic path); Epochs, BarrierStalls and Spills come from the
	// epoch-barrier executor. Digest hashes the simulated outcomes only
	// (never wall time), so any two runs of the same point must agree
	// byte-for-byte whatever the worker count.
	Cells         int
	Workers       int
	Epochs        int64
	BarrierStalls int64
	Spills        int64
	Digest        string

	// PerCell breaks the run down by simulation cell (nil for the
	// classic path).
	PerCell []ScaleCellDetail
}

// ScaleCellDetail is one cell's share of a sharded scale point.
type ScaleCellDetail struct {
	Cell          int
	GPUs          int
	Requests      int
	Events        int64
	EventsPerSec  float64 // cell events over the point's wall time
	SpillsIn      int64
	SpillsOut     int64
	BarrierStalls int64
}

// scaleDigest fingerprints a run's simulated outcomes. Wall-clock and
// allocation figures are deliberately excluded: the digest is the
// determinism witness that -parallel changes speed and nothing else.
func scaleDigest(events int64, res *cluster.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d finished=%d decode=%d prefill=%d makespan=%d peak=%d spills=%d ttft{%s} e2e{%s}",
		events, res.Finished, res.DecodeTokens, res.PrefillTokens,
		int64(res.Makespan), res.QueuePeak, res.Spills,
		res.TimeToFirstToken.Summary(), res.EndToEnd.Summary())
	return fmt.Sprintf("%016x", h.Sum64())
}

// scaleTrace builds the cell's deterministic short-request trace.
func (o ScaleOptions) scaleTrace(gpus, n int) []workload.Request {
	gen := workload.NewGenerator(o.Kind, workload.Constant(o.PromptLen, o.OutputLen), o.Seed)
	rate := o.RatePerGPU * float64(gpus)
	horizon := time.Duration(float64(n) / rate * float64(time.Second))
	return gen.Poisson(func(time.Duration) float64 { return rate }, rate, horizon,
		dist.NumModels(o.Kind, n))
}

// ScaleCell runs one cell of the sweep and measures it.
func ScaleCell(o ScaleOptions, gpus, requests int) (ScalePoint, error) {
	return scaleCell(o.withDefaults(), gpus, requests)
}

// scaleCell runs one cell; o must already carry defaults.
func scaleCell(o ScaleOptions, gpus, requests int) (ScalePoint, error) {
	sys := core.PunicaSystem()
	sys.MaxBatch = o.MaxBatch
	trace := o.scaleTrace(gpus, requests)
	base := cluster.Config{
		NumGPUs: gpus,
		Engine: core.Config{
			System: sys,
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
	}
	cells := o.Cells
	if cells == 0 {
		cells = autoCells(gpus)
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}

	var (
		single *cluster.Cluster
		multi  *cluster.MultiCluster
	)
	if cells > 1 {
		multi = cluster.NewMulti(cluster.CellsConfig{
			Base:       base,
			Cells:      cells,
			Workers:    workers,
			EpochDelta: o.EpochDelta,
		})
	} else {
		single = cluster.New(base)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var (
		res *cluster.Result
		err error
	)
	if multi != nil {
		res, err = multi.Run(trace)
	} else {
		res, err = single.Run(trace)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale %dgpus/%dreqs: %w", gpus, requests, err)
	}

	var events int64
	if multi != nil {
		events = multi.Executed()
	} else {
		events = single.Clock().Executed()
	}
	p := ScalePoint{
		GPUs:        gpus,
		Requests:    requests,
		WallSeconds: wall.Seconds(),
		Events:      events,
		SimMakespan: res.Makespan,
		Finished:    res.Finished,
		Throughput:  res.Throughput,
		QueuePeak:   res.QueuePeak,
		Cells:       cells,
		Workers:     workers,
		Digest:      scaleDigest(events, res),
	}
	if multi != nil {
		p.Epochs = res.Epochs
		p.BarrierStalls = res.BarrierStalls
		p.Spills = res.Spills
		for i, st := range multi.CellStats() {
			d := ScaleCellDetail{
				Cell:          i,
				GPUs:          st.GPUs,
				Requests:      st.Requests,
				Events:        st.Events,
				SpillsIn:      st.SpillsIn,
				SpillsOut:     st.SpillsOut,
				BarrierStalls: st.BarrierStalls,
			}
			if wall > 0 {
				d.EventsPerSec = float64(st.Events) / wall.Seconds()
			}
			p.PerCell = append(p.PerCell, d)
		}
	} else {
		p.Workers = 1
	}
	if wall > 0 {
		p.EventsPerSec = float64(events) / wall.Seconds()
	}
	if events > 0 {
		p.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		p.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	// Poisson thinning draws a random count near the nominal cell size;
	// every drawn request must finish.
	if p.Finished != int64(len(trace)) {
		return ScalePoint{}, fmt.Errorf("scale %dgpus/%dreqs: finished %d of %d trace requests",
			gpus, requests, p.Finished, len(trace))
	}
	return p, nil
}

// Scale runs the full GPUs × requests sweep.
func Scale(opts ScaleOptions) ([]ScalePoint, error) {
	o := opts.withDefaults()
	var points []ScalePoint
	for _, g := range o.GPUs {
		for _, n := range o.Requests {
			p, err := scaleCell(o, g, n)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// ScaleReport renders the sweep: one text row, CSV row and bench record
// per sweep point, each followed by one CSV row per simulation cell of a
// sharded point. A point's cell column is -1; a cell row carries that
// cell's events/sec, spill counts and barrier stalls.
func ScaleReport(points []ScalePoint) *Report {
	r := &Report{
		Experiment: "scale",
		Title:      "Scale harness — simulator control-plane cost (short-request Skewed trace):",
	}
	for _, p := range points {
		r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("%dgpus/%dreqs", p.GPUs, p.Requests), Cells: []Cell{
			{Name: "gpus", Header: "gpus", Value: p.GPUs},
			{Name: "requests", Header: "requests", Value: p.Requests},
			{Name: "cells", Header: "cells", Value: p.Cells},
			{Name: "workers", Header: "workers", Value: p.Workers},
			// A string, so the -1 marker stays out of the record.
			{Name: "cell", Value: "-1"},
			{Name: "wall_seconds", Header: "wall", Format: "%.2fs", Value: p.WallSeconds},
			{Name: "events", Header: "events", Value: p.Events},
			{Name: "events_per_sec", Header: "events/s", Format: "%.0f", Value: p.EventsPerSec},
			{Name: "allocs_per_event", Header: "allocs/event", Format: "%.1f", Value: p.AllocsPerEvent},
			{Name: "bytes_per_event", Header: "bytes/event", Format: "%.0f", Value: p.BytesPerEvent},
			{Name: "spills", Header: "spills", Value: p.Spills},
			{Name: "barrier_stalls", Header: "stalls", Value: p.BarrierStalls},
			{Name: "sim_makespan_s", Header: "sim makespan", Format: "%.0fs", Value: p.SimMakespan.Seconds()},
			{Name: "finished", Value: p.Finished},
			{Name: "throughput_tok_s", Header: "tok/s", Format: "%.0f", Value: p.Throughput},
			{Name: "queue_peak", Value: p.QueuePeak},
			{Name: "epochs", Value: p.Epochs},
			{Name: "digest", Header: "digest", Value: p.Digest},
		}})
		for _, d := range p.PerCell {
			r.Rows = append(r.Rows, Row{Cells: []Cell{
				{Name: "gpus", Value: d.GPUs},
				{Name: "requests", Value: d.Requests},
				{Name: "cells", Value: p.Cells},
				{Name: "workers", Value: p.Workers},
				{Name: "cell", Value: d.Cell},
				{Name: "events", Value: d.Events},
				{Name: "events_per_sec", Value: d.EventsPerSec},
				{Name: "barrier_stalls", Value: d.BarrierStalls},
				{Name: "epochs", Value: p.Epochs},
				{Name: "spills_in", Value: d.SpillsIn},
				{Name: "spills_out", Value: d.SpillsOut},
			}})
		}
	}
	return r
}
