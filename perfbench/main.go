// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	perfbench --workload chat|saturate|sim-fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics (see metrics.go);
// with --trace 1 the same workload runs with handler wrappers, a state
// poller and a CPU profile, and the metrics are the per-layer ones.
//
//	perfbench --calibrate
//
// re-derives, from cluster.Run, the capacities the offered rates in
// config.go were fixed from, and prints them beside the constants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: chat, saturate or sim-fleet")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	calibrate := flag.Bool("calibrate", false, "print the cluster.Run capacity of each workload and exit")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *calibrate {
		if err := runCalibration(); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	window := time.Duration(*seconds) * time.Second
	traced := *trace == 1

	var res *runResult
	var err error
	switch *workloadName {
	case "chat":
		res, err = runServing(chatConfig, *seed, window, traced)
	case "saturate":
		res, err = runServing(saturateConfig, *seed, window, traced)
	case "sim-fleet":
		res, err = runSimFleet(*seed, window, traced)
	default:
		err = fmt.Errorf("unknown workload %q (want chat, saturate or sim-fleet)", *workloadName)
	}
	if err != nil {
		fatal(err)
	}
	res.set("peak_rss_mb", peakRSSMiB())
	for _, msg := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	out, err := res.report(traced)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runResult collects one run's accounting and measured values.
type runResult struct {
	attempted int64
	failed    int64
	// completedInWindow counts serving completions inside the window,
	// the denominator of per-request costs.
	completedInWindow int64
	problems          []string // output-check violations; any makes the run incorrect
	values            map[string]float64
}

func newResult() *runResult { return &runResult{values: map[string]float64{}} }

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the result line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A metric the
// workload does not exercise reads 0; a missing end-to-end metric is a
// bug in the benchmark, not a measurement.
func (r *runResult) report(traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
		for _, s := range endToEnd {
			r.values["traced."+s.name] = r.values[s.name]
		}
	}
	metrics := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// percentile is the nearest-rank p-th percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(float64(len(xs))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
