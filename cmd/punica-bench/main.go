// Command punica-bench regenerates every table and figure of the Punica
// paper's evaluation on the simulated substrate and prints them as text.
//
// Usage:
//
//	punica-bench [flags] <experiment>
//
// Run it without arguments to list the experiments and the output flags
// each takes. "all" runs the paper's figures and ablations; the longer
// sweeps run alone. -csv writes one experiment's data as CSV, -json
// writes the bench records of the experiments run, and -check FILE
// fails the run when a gated metric falls past its bound below the
// committed record file FILE (bench/BENCH_*.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"punica/internal/experiments"
	"punica/internal/hw"
	"punica/internal/models"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "punica-bench:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag package or usage has
// already explained on stderr.
var errUsage = errors.New("usage")

// config holds the flag values the experiments read.
type config struct {
	model           string
	n               int
	seed            int64
	seedSet         bool // -seed was given: the pinned sweeps keep their own seed otherwise
	gpus            int
	peak            float64
	fullHour        bool
	scaleGPUs       []int
	scaleRequests   []int
	cells           int
	parallel        int
	overloadSpeedup float64
	soakHorizon     time.Duration
}

// experiment is one entry of the table below.
type experiment struct {
	name string
	// solo describes an experiment "all" skips; it is empty for the
	// experiments "all" runs.
	solo string
	// csv and records say whether run's report carries a CSV writer and
	// bench records, so -csv and -json are checked before anything runs.
	csv, records bool
	gate         gate
	run          func(*config) (*experiments.Report, error)
}

// gate is what -check holds an experiment's records to: each metric
// (every one is higher-is-better) may fall at most bound, a fraction,
// below its baseline value. An experiment with no metrics has no gate.
type gate struct {
	metrics []string
	bound   float64
}

// table lists every experiment, those "all" runs first, in its order.
var table = []experiment{
	{name: "fig1", csv: true, run: func(c *config) (*experiments.Report, error) {
		model, err := models.ByName(c.model)
		if err != nil {
			return nil, err
		}
		return experiments.Fig1Report(experiments.Fig1(hw.A100(), model)), nil
	}},
	{name: "fig6", run: func(c *config) (*experiments.Report, error) {
		res, err := experiments.Fig6(min(c.n, 256), c.seed)
		return out(res, err, text(experiments.FormatFig6))
	}},
	{name: "fig7", csv: true, run: func(*config) (*experiments.Report, error) {
		return experiments.Fig7Report(experiments.Fig7()), nil
	}},
	{name: "fig8", csv: true, run: func(*config) (*experiments.Report, error) {
		return experiments.Fig8Report(experiments.Fig8()), nil
	}},
	{name: "fig9", csv: true, run: func(*config) (*experiments.Report, error) {
		return experiments.Fig9Report(experiments.Fig9()), nil
	}},
	{name: "fig10", csv: true, run: func(*config) (*experiments.Report, error) {
		return experiments.Fig10Report(experiments.Fig10()), nil
	}},
	{name: "fig11", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		model, err := models.ByName(c.model)
		if err != nil {
			return nil, err
		}
		rows, err := experiments.Fig11(model, c.textGen())
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("Figure 11 — single-GPU text generation (%s, %d requests):", model.Name, c.n)
		return experiments.Fig11Report("fig11", title, rows), nil
	}},
	{name: "fig12", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		rows, err := experiments.Fig12(c.textGen())
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("Figure 12 — 70B tensor parallel on 8xA100-40G (%d requests):", c.n)
		return experiments.Fig11Report("fig12", title, rows), nil
	}},
	{name: "fig13", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		res, err := experiments.Fig13(c.fig13())
		return out(res, err, experiments.Fig13Report)
	}},
	{name: "headline", run: func(c *config) (*experiments.Report, error) {
		model, err := models.ByName(c.model)
		if err != nil {
			return nil, err
		}
		rows, err := experiments.Fig11(model, c.textGen())
		return out(rows, err, text(func(rows []experiments.Fig11Row) string {
			return experiments.FormatHeadline(experiments.Headline(rows))
		}))
	}},
	{name: "loading", run: func(*config) (*experiments.Report, error) {
		return out(experiments.Loading(), nil, text(experiments.FormatLoading))
	}},
	{name: "ablation-norm", run: func(*config) (*experiments.Report, error) {
		return out(experiments.AblationNorm(), nil, text(experiments.FormatAblationNorm))
	}},
	{name: "ablation-maxbatch", run: func(c *config) (*experiments.Report, error) {
		points, err := experiments.AblationMaxBatch(min(c.n, 400), c.seed, nil)
		return out(points, err, text(experiments.FormatAblationMaxBatch))
	}},
	{name: "ablation-pagesize", run: func(c *config) (*experiments.Report, error) {
		points, err := experiments.AblationPageSize(min(c.n, 300), c.seed, nil)
		return out(points, err, text(experiments.FormatAblationPageSize))
	}},
	{name: "ablation-prefill", run: func(c *config) (*experiments.Report, error) {
		points, err := experiments.AblationPrefillLimit(min(c.n, 400), c.seed, nil)
		return out(points, err, text(experiments.FormatAblationPrefillLimit))
	}},
	{name: "ablation-migration", run: func(c *config) (*experiments.Report, error) {
		o := c.fig13()
		if !c.fullHour {
			o.NumGPUs = 8
			o.Peak = 6
			o.RampUp, o.Hold, o.RampDown = 6*time.Minute, 3*time.Minute, 6*time.Minute
		}
		res, err := experiments.AblationMigration(o)
		return out(res, err, text(experiments.FormatAblationMigration))
	}},
	{name: "ablation-quant", run: func(c *config) (*experiments.Report, error) {
		points, err := experiments.AblationQuantization(min(c.n, 300), c.seed)
		return out(points, err, text(experiments.FormatAblationQuantization))
	}},
	{name: "autoscale", run: func(c *config) (*experiments.Report, error) {
		o := c.fig13()
		if !c.fullHour {
			o.NumGPUs = 8
			o.Peak = 6
			o.RampUp, o.Hold, o.RampDown = 8*time.Minute, 4*time.Minute, 8*time.Minute
		}
		res, err := experiments.Autoscale(o)
		return out(res, err, text(experiments.FormatAutoscale))
	}},
	{name: "policies", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		o := experiments.DefaultPolicyCompareOptions()
		o.Seed = c.seed
		points, err := experiments.ComparePolicies(o)
		return out(points, err, experiments.PoliciesReport)
	}},
	{name: "faults", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		o := experiments.DefaultFaultsOptions()
		o.Seed = c.seed
		points, err := experiments.Faults(o)
		return out(points, err, experiments.FaultsReport)
	}},
	{name: "disagg", csv: true, records: true, run: func(c *config) (*experiments.Report, error) {
		o := experiments.DefaultDisaggOptions()
		o.Seed = c.seed
		points, err := experiments.Disaggregation(o)
		return out(points, err, experiments.DisaggReport)
	}},
	{name: "scale", solo: "control-plane scale sweep; its full grid runs 1M-request traces",
		csv: true, records: true, gate: gate{[]string{"events_per_sec"}, 0.20},
		run: func(c *config) (*experiments.Report, error) {
			o := experiments.DefaultScaleOptions()
			o.Seed = c.seed
			if c.scaleGPUs != nil {
				o.GPUs = c.scaleGPUs
			}
			if c.scaleRequests != nil {
				o.Requests = c.scaleRequests
			}
			o.Cells = c.cells
			o.Workers = c.parallel
			points, err := experiments.Scale(o)
			return out(points, err, experiments.ScaleReport)
		}},
	// traffic, coldstart and overload pin their default sweeps, seed and
	// all, so the committed bench/BENCH_*.json records reproduce; only
	// an explicit -seed overrides it.
	{name: "traffic", solo: "flash-crowd fairness sweep",
		csv: true, records: true, gate: gate{[]string{"throughput_tok_s", "skew_ratio", "tail_p99_gain"}, 0.20},
		run: func(c *config) (*experiments.Report, error) {
			var o experiments.TrafficOptions
			if c.seedSet {
				o.Seed = c.seed
			}
			points, err := experiments.Traffic(o)
			return out(points, err, experiments.TrafficReport)
		}},
	{name: "coldstart", solo: "tiered adapter-cache mitigation sweep",
		csv: true, records: true, gate: gate{[]string{"throughput_tok_s", "cold_p99_gain"}, 0.20},
		run: func(c *config) (*experiments.Report, error) {
			var o experiments.ColdStartOptions
			if c.seedSet {
				o.Seed = c.seed
			}
			points, err := experiments.ColdStart(o)
			return out(points, err, experiments.ColdStartReport)
		}},
	// overload replays open-loop traffic through the live HTTP stack in
	// wall time, so its bound is generous and only the shedding-on vs
	// -off goodput retention gates; latency and refusal counters ride
	// along as records.
	{name: "overload", solo: "live-HTTP overload-protection sweep, in wall time",
		csv: true, records: true, gate: gate{[]string{"goodput_retention"}, 0.50},
		run: func(c *config) (*experiments.Report, error) {
			o := experiments.OverloadOptions{Speedup: c.overloadSpeedup}
			if c.seedSet {
				o.Seed = c.seed
			}
			points, err := experiments.Overload(o)
			return out(points, err, experiments.OverloadReport)
		}},
	{name: "soak", solo: "hours-long everything-at-once run; -soak-horizon shortens it",
		csv: true, records: true,
		run: func(c *config) (*experiments.Report, error) {
			res, err := experiments.Soak(experiments.SoakOptions{Horizon: c.soakHorizon, Seed: c.seed})
			return out(res, err, experiments.SoakReport)
		}},
}

// out builds an experiment's report from its result, unless it failed.
func out[T any](res T, err error, report func(T) *experiments.Report) (*experiments.Report, error) {
	if err != nil {
		return nil, err
	}
	return report(res), nil
}

// text makes a report of a text-only experiment's text.
func text[T any](format func(T) string) func(T) *experiments.Report {
	return func(res T) *experiments.Report { return &experiments.Report{Title: format(res)} }
}

func (c *config) textGen() experiments.TextGenOptions {
	return experiments.TextGenOptions{NumRequests: c.n, Seed: c.seed}
}

// fig13 is the cluster deployment fig13, autoscale and
// ablation-migration start from.
func (c *config) fig13() experiments.Fig13Options {
	o := experiments.DefaultFig13Options()
	o.NumGPUs = c.gpus
	o.Peak = c.peak
	o.Seed = c.seed
	if !c.fullHour {
		// Scaled horizon for interactive runs; -full-hour reproduces
		// the paper's 60 minutes.
		o.RampUp, o.Hold, o.RampDown = 10*time.Minute, 5*time.Minute, 10*time.Minute
	}
	return o
}

// run parses args, runs the experiment they name, prints its text to
// stdout, writes -csv and -json, and applies -check.
func run(args []string, stdout io.Writer) error {
	var c config
	var csvPath, jsonPath, checkPath string
	fs := flag.NewFlagSet("punica-bench", flag.ContinueOnError)
	fs.Usage = func() { usage(fs) }
	fs.StringVar(&c.model, "model", "7b", "model for fig1, fig11 and headline: 7b or 13b")
	fs.IntVar(&c.n, "n", 1000, "requests for text-generation experiments")
	fs.Int64Var(&c.seed, "seed", 42, "workload seed")
	fs.IntVar(&c.gpus, "gpus", 16, "GPUs for fig13")
	fs.Float64Var(&c.peak, "peak", 11, "peak request rate (req/s) for fig13")
	fs.BoolVar(&c.fullHour, "full-hour", false, "run fig13 at the paper's full one-hour horizon")
	fs.StringVar(&csvPath, "csv", "", "also write the experiment's data as CSV to this file")
	fs.StringVar(&jsonPath, "json", "", "write the bench records of the experiments run to this JSON file")
	fs.StringVar(&checkPath, "check", "", "gate the experiment's records against this committed bench record file")
	fs.Func("scale-gpus", "comma-separated GPU counts for the scale sweep (default 16,64,256)", intList(&c.scaleGPUs))
	fs.Func("scale-requests", "comma-separated request counts for the scale sweep (default 10000,100000,1000000)", intList(&c.scaleRequests))
	fs.IntVar(&c.cells, "cells", 0, "scale: simulation cells per fleet (0 auto: GPUs/32 in [1,16]; 1 forces the classic single-cluster path)")
	fs.IntVar(&c.parallel, "parallel", 1, "scale: worker goroutines advancing cells between epoch barriers (results are identical for any value)")
	fs.Float64Var(&c.overloadSpeedup, "overload-speedup", 0, "overload: wall-clock speedup of the live serving runs (default 50)")
	fs.DurationVar(&c.soakHorizon, "soak-horizon", 0, "soak: override the simulated horizon (default 2h)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}
	fs.Visit(func(f *flag.Flag) { c.seedSet = c.seedSet || f.Name == "seed" })

	exps, err := lookup(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := validateOutputs(fs.Arg(0), exps, csvPath, jsonPath, checkPath); err != nil {
		return err
	}
	var baseline []experiments.BenchRecord
	if checkPath != "" {
		if baseline, err = readBaseline(checkPath); err != nil {
			return err
		}
	}

	var records []experiments.BenchRecord
	for _, e := range exps {
		r, err := e.run(&c)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Text())
		if csvPath != "" {
			if err := writeFile(csvPath, r.CSV); err != nil {
				return err
			}
		}
		records = append(records, r.Records()...)
	}
	if jsonPath != "" {
		if err := writeFile(jsonPath, func(w io.Writer) error {
			return experiments.WriteBenchJSON(w, records)
		}); err != nil {
			return err
		}
	}
	if checkPath != "" {
		return checkBaseline(checkPath, exps[0].gate, baseline, records)
	}
	return nil
}

// lookup returns the experiments name stands for: one, or those "all"
// runs.
func lookup(name string) ([]experiment, error) {
	var exps []experiment
	for _, e := range table {
		if e.name == name || (name == "all" && e.solo == "") {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return exps, nil
}

// validateOutputs refuses output flags the experiments cannot honour,
// before any of them runs.
func validateOutputs(name string, exps []experiment, csvPath, jsonPath, checkPath string) error {
	records := slices.ContainsFunc(exps, func(e experiment) bool { return e.records })
	switch {
	case csvPath != "" && len(exps) > 1:
		return fmt.Errorf("-csv: %s runs several experiments, and each CSV would overwrite the last", name)
	case csvPath != "" && !exps[0].csv:
		return fmt.Errorf("-csv: %s has no CSV output", name)
	case jsonPath != "" && !records:
		return fmt.Errorf("-json: %s has no bench records", name)
	case checkPath != "" && (len(exps) > 1 || exps[0].gate.metrics == nil):
		return fmt.Errorf("-check: %s has no gate", name)
	}
	return nil
}

func readBaseline(path string) ([]experiments.BenchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-check: %w", err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("-check %s: %w", path, err)
	}
	return baseline, nil
}

// checkBaseline holds current to g against the baseline records read
// from path.
func checkBaseline(path string, g gate, baseline, current []experiments.BenchRecord) error {
	var errs []error
	for _, metric := range g.metrics {
		errs = append(errs, experiments.CompareBaseline(baseline, current, metric, g.bound)...)
	}
	if len(errs) > 0 {
		return fmt.Errorf("-check %s: %d failure(s) at bound %.0f%%:\n%w",
			path, len(errs), 100*g.bound, errors.Join(errs...))
	}
	fmt.Fprintf(os.Stderr, "check passed: no %s regression past %.0f%% vs %s\n",
		strings.Join(g.metrics, "/"), 100*g.bound, path)
	return nil
}

// writeFile writes one output file and names it on stderr.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

// intList parses a comma-separated list of positive ints into dst ("" → nil).
func intList(dst *[]int) func(string) error {
	return func(s string) error {
		*dst = nil
		if s == "" {
			return nil
		}
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("count must be positive, got %d", n)
			}
			*dst = append(*dst, n)
		}
		return nil
	}
}

func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: punica-bench [flags] <experiment>\n\nexperiments, with the output flags each takes:\n")
	fmt.Fprintf(w, "  %-19s %-18s every experiment below not marked \"alone\"\n", "all", "-json")
	for _, e := range table {
		var flags []string
		if e.csv {
			flags = append(flags, "-csv")
		}
		if e.records {
			flags = append(flags, "-json")
		}
		if e.gate.metrics != nil {
			flags = append(flags, "-check")
		}
		line := fmt.Sprintf("  %-19s %-18s", e.name, strings.Join(flags, " "))
		if e.solo != "" {
			line += " alone: " + e.solo
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "\n-check fails the run when a gated metric falls past its bound below the file's:\n")
	for _, e := range table {
		if e.gate.metrics != nil {
			fmt.Fprintf(w, "  %-19s %s, bound %.0f%%\n", e.name, strings.Join(e.gate.metrics, ", "), 100*e.gate.bound)
		}
	}
	fmt.Fprintf(w, "\nflags:\n")
	fs.PrintDefaults()
}
