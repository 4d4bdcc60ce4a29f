// Command punica-bench regenerates every table and figure of the Punica
// paper's evaluation on the simulated substrate and prints them as text.
//
// Usage:
//
//	punica-bench [flags] <experiment>
//
// Experiments: fig1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 headline
// loading ablation-norm ablation-maxbatch ablation-pagesize
// ablation-prefill ablation-migration ablation-quant autoscale policies
// faults disagg traffic coldstart soak scale all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"punica/internal/experiments"
	"punica/internal/hw"
	"punica/internal/models"
)

var (
	modelFlag = flag.String("model", "7b", "model for fig11: 7b or 13b")
	nFlag     = flag.Int("n", 1000, "requests for text-generation experiments")
	seedFlag  = flag.Int64("seed", 42, "workload seed")
	gpusFlag  = flag.Int("gpus", 16, "GPUs for fig13")
	peakFlag  = flag.Float64("peak", 11, "peak request rate (req/s) for fig13")
	hourFlag  = flag.Bool("full-hour", false, "run fig13 at the paper's full one-hour horizon")
	csvFlag   = flag.String("csv", "", "also write the figure's data as CSV to this file (fig1,7,8,9,10,11,12,13,scale)")
	jsonFlag  = flag.String("json", "", "write machine-readable results to this JSON file (fig11,fig12,fig13,policies,faults,disagg,scale)")

	scaleGPUs = flag.String("scale-gpus", "", "comma-separated GPU counts for the scale sweep (default 16,64,256)")
	scaleReqs = flag.String("scale-requests", "", "comma-separated request counts for the scale sweep (default 10000,100000,1000000)")

	cellsFlag    = flag.Int("cells", 0, "scale: simulation cells per fleet (0 auto: GPUs/32 in [1,16]; 1 forces the classic single-cluster path)")
	parallelFlag = flag.Int("parallel", 1, "scale: worker goroutines advancing cells between epoch barriers (results are identical for any value)")

	baselineFlag = flag.String("baseline", "", "scale: committed BENCH_scale.json to gate against; the run fails if events/sec regresses past -regress-threshold")
	regressFlag  = flag.Float64("regress-threshold", 0.20, "scale: fractional events/sec drop vs -baseline that fails the run")

	trafficBaselineFlag = flag.String("traffic-baseline", "", "traffic: committed BENCH_traffic.json to gate against; the run fails if throughput, the off/on stall-skew ratio, or the tail-p99 gain regresses past -regress-threshold")

	coldstartBaselineFlag = flag.String("coldstart-baseline", "", "coldstart: committed BENCH_coldstart.json to gate against; the run fails if throughput or the naive-vs-predist cold-start p99 gain regresses past -regress-threshold")

	overloadBaselineFlag = flag.String("overload-baseline", "", "overload: committed BENCH_overload.json to gate against; the run fails if the shedding-on vs -off goodput retention regresses past -regress-threshold")
	overloadSpeedupFlag  = flag.Float64("overload-speedup", 0, "overload: wall-clock speedup of the live serving runs (default 50)")

	soakHorizonFlag = flag.Duration("soak-horizon", 0, "soak: override the simulated horizon (default 2h)")
)

// benchRecords accumulates -json output across the experiments run.
var benchRecords []experiments.BenchRecord

// writeCSV writes one figure's CSV when -csv is set.
func writeCSV(write func(io.Writer) error) error {
	if *csvFlag == "" {
		return nil
	}
	f, err := os.Create(*csvFlag)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *csvFlag)
	return nil
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, exp := range allExperiments {
			if err := run(exp); err != nil {
				fatal(err)
			}
		}
	} else if err := run(name); err != nil {
		fatal(err)
	}
	if err := writeBenchJSON(); err != nil {
		fatal(err)
	}
}

// writeBenchJSON flushes accumulated machine-readable results when
// -json was given.
func writeBenchJSON() error {
	if *jsonFlag == "" {
		return nil
	}
	f, err := os.Create(*jsonFlag)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteBenchJSON(f, benchRecords); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *jsonFlag)
	return nil
}

var allExperiments = []string{
	"fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "headline", "loading",
	"ablation-norm", "ablation-maxbatch", "ablation-pagesize",
	"ablation-prefill", "ablation-migration", "ablation-quant",
	"autoscale", "policies", "faults", "disagg",
}

func run(name string) error {
	opts := experiments.TextGenOptions{NumRequests: *nFlag, Seed: *seedFlag}
	switch name {
	case "fig1":
		model, err := models.ByName(*modelFlag)
		if err != nil {
			return err
		}
		points := experiments.Fig1(a100(), model)
		fmt.Println(experiments.FormatFig1(points))
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig1CSV(w, points) }); err != nil {
			return err
		}
	case "fig6":
		res, err := experiments.Fig6(min(*nFlag, 256), *seedFlag)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig6(res))
	case "fig7":
		points := experiments.Fig7()
		fmt.Println(experiments.FormatFig7(points))
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig7CSV(w, points) }); err != nil {
			return err
		}
	case "fig8":
		points := experiments.Fig8()
		fmt.Println(experiments.FormatFig8(points))
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig8CSV(w, points) }); err != nil {
			return err
		}
	case "fig9":
		points := experiments.Fig9()
		fmt.Println(experiments.FormatFig9(points))
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig9CSV(w, points) }); err != nil {
			return err
		}
	case "fig10":
		points := experiments.Fig10()
		fmt.Println(experiments.FormatFig10(points))
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig10CSV(w, points) }); err != nil {
			return err
		}
	case "fig11":
		model, err := models.ByName(*modelFlag)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig11(model, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 11 — single-GPU text generation (%s, %d requests):",
			model.Name, opts.NumRequests)
		fmt.Println(experiments.FormatFig11(title, rows))
		benchRecords = append(benchRecords, experiments.Fig11Records("fig11", rows)...)
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig11CSV(w, rows) }); err != nil {
			return err
		}
	case "fig12":
		rows, err := experiments.Fig12(opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 12 — 70B tensor parallel on 8xA100-40G (%d requests):",
			opts.NumRequests)
		fmt.Println(experiments.FormatFig11(title, rows))
		benchRecords = append(benchRecords, experiments.Fig11Records("fig12", rows)...)
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig11CSV(w, rows) }); err != nil {
			return err
		}
	case "fig13":
		o := fig13Options()
		res, err := experiments.Fig13(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig13(res))
		benchRecords = append(benchRecords, experiments.Fig13Records(res)...)
		if err := writeCSV(func(w io.Writer) error { return experiments.Fig13CSV(w, res) }); err != nil {
			return err
		}
	case "headline":
		model, err := models.ByName(*modelFlag)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig11(model, opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatHeadline(experiments.Headline(rows)))
	case "loading":
		fmt.Println(experiments.FormatLoading(experiments.Loading()))
	case "ablation-norm":
		fmt.Println(experiments.FormatAblationNorm(experiments.AblationNorm()))
	case "ablation-maxbatch":
		points, err := experiments.AblationMaxBatch(min(*nFlag, 400), *seedFlag, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblationMaxBatch(points))
	case "ablation-pagesize":
		points, err := experiments.AblationPageSize(min(*nFlag, 300), *seedFlag, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblationPageSize(points))
	case "ablation-prefill":
		points, err := experiments.AblationPrefillLimit(min(*nFlag, 400), *seedFlag, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblationPrefillLimit(points))
	case "ablation-quant":
		points, err := experiments.AblationQuantization(min(*nFlag, 300), *seedFlag)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblationQuantization(points))
	case "autoscale":
		o := fig13Options()
		if !*hourFlag {
			o.NumGPUs = 8
			o.Peak = 6
			o.RampUp, o.Hold, o.RampDown = 8*time.Minute, 4*time.Minute, 8*time.Minute
		}
		res, err := experiments.Autoscale(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAutoscale(res))
	case "policies":
		o := experiments.DefaultPolicyCompareOptions()
		o.Seed = *seedFlag
		points, err := experiments.ComparePolicies(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatPolicyCompare(points))
		benchRecords = append(benchRecords, experiments.PolicyRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.PolicyCompareCSV(w, points)
		}); err != nil {
			return err
		}
	case "faults":
		o := experiments.DefaultFaultsOptions()
		o.Seed = *seedFlag
		points, err := experiments.Faults(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFaults(points))
		benchRecords = append(benchRecords, experiments.FaultsRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.FaultsCSV(w, points)
		}); err != nil {
			return err
		}
	case "disagg":
		o := experiments.DefaultDisaggOptions()
		o.Seed = *seedFlag
		points, err := experiments.Disaggregation(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatDisaggregation(points))
		benchRecords = append(benchRecords, experiments.DisaggRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.DisaggregationCSV(w, points)
		}); err != nil {
			return err
		}
	case "scale":
		o := experiments.DefaultScaleOptions()
		o.Seed = *seedFlag
		if gpus, err := parseIntList(*scaleGPUs); err != nil {
			return fmt.Errorf("-scale-gpus: %w", err)
		} else if len(gpus) > 0 {
			o.GPUs = gpus
		}
		if reqs, err := parseIntList(*scaleReqs); err != nil {
			return fmt.Errorf("-scale-requests: %w", err)
		} else if len(reqs) > 0 {
			o.Requests = reqs
		}
		o.Cells = *cellsFlag
		o.Workers = *parallelFlag
		points, err := experiments.Scale(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatScale(points))
		benchRecords = append(benchRecords, experiments.ScaleRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.ScaleCSV(w, points)
		}); err != nil {
			return err
		}
		if err := checkScaleBaseline(experiments.ScaleRecords(points)); err != nil {
			return err
		}
	case "traffic":
		var topts experiments.TrafficOptions
		// The default sweep is pinned (seed and all) so the committed
		// BENCH_traffic.json baseline reproduces exactly; only an
		// explicit -seed overrides it.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				topts.Seed = *seedFlag
			}
		})
		points, err := experiments.Traffic(topts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTraffic(points))
		benchRecords = append(benchRecords, experiments.TrafficRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.TrafficCSV(w, points)
		}); err != nil {
			return err
		}
		if err := checkTrafficBaseline(experiments.TrafficRecords(points)); err != nil {
			return err
		}
	case "coldstart":
		// The default sweep is pinned (seed and all) so the committed
		// BENCH_coldstart.json baseline reproduces exactly; only an
		// explicit -seed overrides it.
		var copts experiments.ColdStartOptions
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				copts.Seed = *seedFlag
			}
		})
		points, err := experiments.ColdStart(copts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatColdStart(points))
		benchRecords = append(benchRecords, experiments.ColdStartRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.ColdStartCSV(w, points)
		}); err != nil {
			return err
		}
		if err := checkColdStartBaseline(experiments.ColdStartRecords(points)); err != nil {
			return err
		}
	case "overload":
		// The sweep replays open-loop traffic through the live HTTP
		// stack in wall time; the defaults are pinned so the committed
		// BENCH_overload.json baseline is comparable run-to-run. Only an
		// explicit -seed or -overload-speedup overrides them.
		oopts := experiments.OverloadOptions{Speedup: *overloadSpeedupFlag}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				oopts.Seed = *seedFlag
			}
		})
		points, err := experiments.Overload(oopts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatOverload(points))
		benchRecords = append(benchRecords, experiments.OverloadRecords(points)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.OverloadCSV(w, points)
		}); err != nil {
			return err
		}
		if err := checkOverloadBaseline(experiments.OverloadRecords(points)); err != nil {
			return err
		}
	case "soak":
		res, err := experiments.Soak(experiments.SoakOptions{
			Horizon: *soakHorizonFlag, Seed: *seedFlag,
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSoak(res))
		benchRecords = append(benchRecords, experiments.SoakRecords(res)...)
		if err := writeCSV(func(w io.Writer) error {
			return experiments.SoakCSV(w, res)
		}); err != nil {
			return err
		}
	case "ablation-migration":
		o := fig13Options()
		if !*hourFlag {
			o.NumGPUs = 8
			o.Peak = 6
			o.RampUp, o.Hold, o.RampDown = 6*time.Minute, 3*time.Minute, 6*time.Minute
		}
		res, err := experiments.AblationMigration(o)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblationMigration(res))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// checkTrafficBaseline gates the traffic sweep against a committed
// baseline when -traffic-baseline is set. Three metrics gate: raw
// throughput on every run row, and the off/on stall-skew ratio and
// tail-p99 gain on the per-peak fairness-gain rows — the numbers the
// fairness layer is accountable for.
func checkTrafficBaseline(current []experiments.BenchRecord) error {
	if *trafficBaselineFlag == "" {
		return nil
	}
	f, err := os.Open(*trafficBaselineFlag)
	if err != nil {
		return fmt.Errorf("-traffic-baseline: %w", err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchJSON(f)
	if err != nil {
		return fmt.Errorf("-traffic-baseline %s: %w", *trafficBaselineFlag, err)
	}
	var errs []error
	for _, metric := range []string{"throughput_tok_s", "skew_ratio", "tail_p99_gain"} {
		errs = append(errs, experiments.CompareBaseline(baseline, current, metric, *regressFlag)...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "regression:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d traffic metric(s) regressed past %.0f%% vs %s",
			len(errs), 100**regressFlag, *trafficBaselineFlag)
	}
	fmt.Fprintf(os.Stderr, "baseline check passed: no throughput/skew-ratio/tail-p99-gain regression past %.0f%% vs %s\n",
		100**regressFlag, *trafficBaselineFlag)
	return nil
}

// checkColdStartBaseline gates the cold-start sweep against a committed
// baseline when -coldstart-baseline is set. Two metrics gate: raw
// throughput on every run row, and the naive-vs-predist cold-start p99
// gain — the number pre-distribution + overlap are accountable for.
func checkColdStartBaseline(current []experiments.BenchRecord) error {
	if *coldstartBaselineFlag == "" {
		return nil
	}
	f, err := os.Open(*coldstartBaselineFlag)
	if err != nil {
		return fmt.Errorf("-coldstart-baseline: %w", err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchJSON(f)
	if err != nil {
		return fmt.Errorf("-coldstart-baseline %s: %w", *coldstartBaselineFlag, err)
	}
	var errs []error
	for _, metric := range []string{"throughput_tok_s", "cold_p99_gain"} {
		errs = append(errs, experiments.CompareBaseline(baseline, current, metric, *regressFlag)...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "regression:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d coldstart metric(s) regressed past %.0f%% vs %s",
			len(errs), 100**regressFlag, *coldstartBaselineFlag)
	}
	fmt.Fprintf(os.Stderr, "baseline check passed: no throughput/cold-p99-gain regression past %.0f%% vs %s\n",
		100**regressFlag, *coldstartBaselineFlag)
	return nil
}

// checkOverloadBaseline gates the overload sweep against a committed
// baseline when -overload-baseline is set. One metric gates: the
// shedding-on vs -off goodput retention on the per-factor shedding-gain
// rows — the number the admission layer is accountable for. The
// per-run rows (latency percentiles, refusal counters) ride along as
// informational data; they are wall-clock sensitive, so they do not
// gate.
func checkOverloadBaseline(current []experiments.BenchRecord) error {
	if *overloadBaselineFlag == "" {
		return nil
	}
	f, err := os.Open(*overloadBaselineFlag)
	if err != nil {
		return fmt.Errorf("-overload-baseline: %w", err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchJSON(f)
	if err != nil {
		return fmt.Errorf("-overload-baseline %s: %w", *overloadBaselineFlag, err)
	}
	errs := experiments.CompareBaseline(baseline, current, "goodput_retention", *regressFlag)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "regression:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d overload metric(s) regressed past %.0f%% vs %s",
			len(errs), 100**regressFlag, *overloadBaselineFlag)
	}
	fmt.Fprintf(os.Stderr, "baseline check passed: no goodput-retention regression past %.0f%% vs %s\n",
		100**regressFlag, *overloadBaselineFlag)
	return nil
}

// checkScaleBaseline gates the scale run against a committed baseline
// when -baseline is set: any grid point whose events/sec fell more than
// -regress-threshold below the baseline fails the command.
func checkScaleBaseline(current []experiments.BenchRecord) error {
	if *baselineFlag == "" {
		return nil
	}
	f, err := os.Open(*baselineFlag)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchJSON(f)
	if err != nil {
		return fmt.Errorf("-baseline %s: %w", *baselineFlag, err)
	}
	errs := experiments.CompareBaseline(baseline, current, "events_per_sec", *regressFlag)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "regression:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d scale point(s) regressed past %.0f%% vs %s",
			len(errs), 100**regressFlag, *baselineFlag)
	}
	fmt.Fprintf(os.Stderr, "baseline check passed: no events/sec regression past %.0f%% vs %s\n",
		100**regressFlag, *baselineFlag)
	return nil
}

// parseIntList parses a comma-separated list of positive ints ("" → nil).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("count must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fig13Options() experiments.Fig13Options {
	o := experiments.DefaultFig13Options()
	o.NumGPUs = *gpusFlag
	o.Peak = *peakFlag
	o.Seed = *seedFlag
	if !*hourFlag {
		// Scaled horizon for interactive runs; -full-hour reproduces
		// the paper's 60 minutes.
		o.RampUp, o.Hold, o.RampDown = 10*time.Minute, 5*time.Minute, 10*time.Minute
	}
	return o
}

func a100() hw.GPUSpec { return hw.A100() }

func usage() {
	fmt.Fprintf(os.Stderr, "usage: punica-bench [flags] <experiment>\nexperiments: %v\n",
		allExperiments)
	fmt.Fprintf(os.Stderr, "plus: scale (control-plane scale sweep; excluded from 'all' — the full grid runs 1M-request traces)\n")
	fmt.Fprintf(os.Stderr, "plus: traffic (flash-crowd fairness sweep, gated by -traffic-baseline) and soak (hours-long everything-at-once run; -soak-horizon shortens it) — both excluded from 'all'\n")
	fmt.Fprintf(os.Stderr, "plus: coldstart (tiered adapter-cache mitigation sweep, gated by -coldstart-baseline) — excluded from 'all'\n")
	fmt.Fprintf(os.Stderr, "plus: overload (live-HTTP overload-protection sweep, gated by -overload-baseline) — excluded from 'all'\n")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "punica-bench:", err)
	os.Exit(1)
}
