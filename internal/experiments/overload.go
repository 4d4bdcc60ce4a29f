// Overload experiment: the degraded-mode serving capstone. A calibration
// sim measures the deployment's sustainable request rate, then open-loop
// traffic is replayed through the REAL HTTP serving stack (serve.Server
// behind an httptest listener — streaming NDJSON, 429 envelopes,
// Retry-After headers, the lot) at 1x, 2x and 4x that capacity, once
// with the admission layer off (legacy unbounded queue) and once with it
// on. Clients honor Retry-After and resubmit rejected requests with
// bounded retries. The sweep reports goodput (SLO-meeting completions
// over offered load), tail latency in simulated seconds, queue peaks and
// the shed/429/retry counters, each beside the offline sim's queue peak
// and p99 on the same trace; the committed bench/BENCH_overload.json
// baseline gates the shedding-on vs -off goodput retention at the
// highest overload factor.

package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/metrics"
	"punica/internal/models"
	"punica/internal/sched"
	"punica/internal/serve"
	"punica/internal/workload"
)

// OverloadOptions configures the overload-protection sweep.
type OverloadOptions struct {
	// NumGPUs and MaxBatch size the deployment (defaults 2 GPUs x batch 8).
	NumGPUs  int
	MaxBatch int
	// Speedup converts simulated latency to wall pacing for the serving
	// runs (default 50). Higher is faster wall time until the host
	// cannot step, stream and serve at the paced rate. Measured on
	// 2 vCPUs at 1x load (EXPERIMENTS.md), the live queue peak and p99
	// stayed within 1.5x of the offline sim's (peak 20, p99 7.7s) in
	// nearly every run at speedups 10 and 25. At 50, scheduling stalls
	// longer than the drivers' catch-up bound began to cost capacity
	// (peaks 22-60); at 100 the queue peaked at 42, and at 200, where a
	// decode step paces at ~0.06 ms of wall time, the stack fell behind
	// its model (queue 264, p99 37s). Latencies are measured on the
	// server's simulated clock, so below that point the reported
	// numbers are speedup-independent.
	Speedup float64
	// Horizon is the arrival window in simulated time (default 1m).
	Horizon time.Duration
	// LoadFactors multiply the calibrated capacity into offered rates
	// (default {1, 2, 4}).
	LoadFactors []float64
	// MaxQueue is the admission cap for the shedding-on runs (default
	// 2 x NumGPUs x MaxBatch). The shedding-off runs keep the legacy
	// unbounded queue.
	MaxQueue int
	// SLO is the end-to-end latency budget, in simulated time, that a
	// completion must meet to count toward goodput (default 20s).
	SLO time.Duration
	// RetryAttempts bounds each client's total tries per request,
	// honoring Retry-After between them (default 2; 1 disables retries).
	RetryAttempts int
	// RetryWaitCap caps the honored Retry-After wall wait so a sweep
	// cell cannot be parked on the serving stack's 1s floor (default 2s).
	RetryWaitCap time.Duration
	// Grace is extra wall time after the last arrival for in-flight
	// generations and retries to land before the cell is frozen
	// (default 3s).
	Grace time.Duration
	// NumModels is the Skewed adapter population (default 4).
	NumModels int
	// CalibrationRequests sizes the capacity-measurement batch (default 300).
	CalibrationRequests int
	// Lengths samples request sizes (default ShareGPT log-normals).
	Lengths workload.Lengths
	// Seed drives the arrival process and length draws.
	Seed int64
}

func (o OverloadOptions) withDefaults() OverloadOptions {
	if o.NumGPUs <= 0 {
		o.NumGPUs = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.Speedup <= 0 {
		o.Speedup = 50
	}
	if o.Horizon <= 0 {
		o.Horizon = time.Minute
	}
	if len(o.LoadFactors) == 0 {
		o.LoadFactors = []float64{1, 2, 4}
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.NumGPUs * o.MaxBatch
	}
	if o.SLO <= 0 {
		o.SLO = 20 * time.Second
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 2
	}
	if o.RetryWaitCap <= 0 {
		o.RetryWaitCap = 2 * time.Second
	}
	if o.Grace <= 0 {
		o.Grace = 3 * time.Second
	}
	if o.NumModels <= 0 {
		o.NumModels = 4
	}
	if o.CalibrationRequests <= 0 {
		o.CalibrationRequests = 300
	}
	if o.Lengths.PromptMax <= 0 {
		o.Lengths = workload.ShareGPTLengths()
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	return o
}

// engineConfig is the per-GPU engine shared by the calibration sim and
// the serving runs — capacity is only meaningful if both see the same
// hardware.
func (o OverloadOptions) engineConfig() core.Config {
	sys := core.PunicaSystem()
	sys.MaxBatch = o.MaxBatch
	return core.Config{
		System: sys,
		GPU:    hw.A100(),
		Model:  models.Llama2_7B(),
		Rank:   models.DefaultLoRARank,
	}
}

// OverloadPoint is one (load factor, shedding) serving run.
type OverloadPoint struct {
	Factor   float64
	Shedding bool

	// OfferedRate is the open-loop arrival rate (req/s, simulated time);
	// Offered the trace size it realized over the horizon.
	OfferedRate float64
	Offered     int

	// Completed counts streams that delivered EOS inside the measurement
	// window; SLOMet those whose end-to-end simulated latency (EOS sim
	// time minus scheduled arrival) met the SLO. Goodput = SLOMet/Offered.
	Completed int
	SLOMet    int
	Goodput   float64

	// P50/P99 are end-to-end latencies over completions, in simulated
	// seconds.
	P50 float64
	P99 float64

	// QueuePeak is the deepest the scheduler's wait queue got; QueueCap
	// the admission bound (0 = unbounded).
	QueuePeak int
	QueueCap  int

	// SimQueuePeak and SimP99 are the offline sim's queue peak and
	// end-to-end p99 (simulated seconds) on the same trace and
	// deployment with no admission cap: what the live stack shows at
	// this factor with shedding off if it runs exactly at its model.
	// Both rows of a factor carry the same values.
	SimQueuePeak int
	SimP99       float64

	// Refusals and recoveries: HTTP 429s observed by clients, requests
	// the server counted as admission-rejected or shed, client retry
	// attempts, and retries that ultimately completed.
	HTTP429        int64
	Rejected       int64
	Shed           int64
	Retries        int64
	RetrySucceeded int64
}

// overloadOutcome is one client goroutine's bookkeeping, merged under a
// mutex into the cell's accumulators.
type overloadOutcome struct {
	completed bool
	latency   float64 // sim seconds, valid when completed
	http429   int64
	retries   int64
	retrySucc bool
}

// Overload runs the sweep: for each load factor, shedding off then on
// over the identical arrival trace.
func Overload(opts OverloadOptions) ([]OverloadPoint, error) {
	o := opts.withDefaults()
	capacity, err := o.calibrate()
	if err != nil {
		return nil, err
	}
	var points []OverloadPoint
	for _, factor := range o.LoadFactors {
		rate := capacity * factor
		// One trace per factor: the off/on pair must replay the same
		// arrivals.
		gen := workload.NewGenerator(dist.Skewed, o.Lengths, o.Seed)
		trace := gen.Traffic(workload.TrafficSpec{
			Horizon: o.Horizon,
			Base:    rate,
			Mix: dist.Mix{Phases: []dist.Phase{{
				Kind: dist.Skewed, NumModels: o.NumModels,
			}}},
			Seed: o.Seed,
		})
		if len(trace) == 0 {
			return nil, fmt.Errorf("overload x%g: empty trace at %.2f req/s", factor, rate)
		}
		sim, err := o.deployment().Run(trace)
		if err != nil {
			return nil, fmt.Errorf("overload x%g sim: %w", factor, err)
		}
		for _, shedding := range []bool{false, true} {
			p, err := o.cell(trace, factor, rate, shedding)
			if err != nil {
				return nil, err
			}
			p.SimQueuePeak = sim.QueuePeak
			p.SimP99 = sim.EndToEnd.Percentile(99)
			// The admission cap is a hard bound, not a target: a
			// shedding-on run whose queue outgrew it means the admission
			// layer is broken, not slow.
			if shedding && p.QueuePeak > o.MaxQueue {
				return nil, fmt.Errorf("overload x%g: queue peaked at %d past the admission cap %d",
					factor, p.QueuePeak, o.MaxQueue)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// deployment is the offline sim of the serving deployment: the same
// GPUs and engines, no admission cap.
func (o OverloadOptions) deployment() *cluster.Cluster {
	return cluster.New(cluster.Config{
		NumGPUs: o.NumGPUs,
		Engine:  o.engineConfig(),
	})
}

// calibrate measures the deployment's sustainable request rate: a
// saturating batch through the offline cluster sim, capacity =
// finished / makespan.
func (o OverloadOptions) calibrate() (float64, error) {
	gen := workload.NewGenerator(dist.Skewed, o.Lengths, o.Seed)
	trace := gen.Batch(o.CalibrationRequests)
	res, err := o.deployment().Run(trace)
	if err != nil {
		return 0, fmt.Errorf("overload calibration: %w", err)
	}
	if res.Finished == 0 || res.Makespan <= 0 {
		return 0, fmt.Errorf("overload calibration: degenerate result (%d finished over %v)",
			res.Finished, res.Makespan)
	}
	return float64(res.Finished) / res.Makespan.Seconds(), nil
}

// cell replays one trace against one live serving deployment.
func (o OverloadOptions) cell(trace []workload.Request, factor, rate float64, shedding bool) (OverloadPoint, error) {
	cfg := serve.Config{
		NumGPUs: o.NumGPUs,
		Engine:  o.engineConfig(),
		Speedup: o.Speedup,
	}
	if shedding {
		cfg.Admission = sched.AdmissionConfig{MaxQueue: o.MaxQueue}
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{}
	start := time.Now()

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		lat metrics.Histogram
		p   = OverloadPoint{Factor: factor, Shedding: shedding,
			OfferedRate: rate, Offered: len(trace), QueueCap: cfg.Admission.MaxQueue}
	)
	for i := range trace {
		wg.Add(1)
		go func(req workload.Request) {
			defer wg.Done()
			select {
			case <-time.After(time.Until(start.Add(time.Duration(float64(req.Arrival) / o.Speedup)))):
			case <-ctx.Done():
				return
			}
			out := o.drive(ctx, client, ts.URL, req)
			mu.Lock()
			defer mu.Unlock()
			p.HTTP429 += out.http429
			p.Retries += out.retries
			if out.completed {
				p.Completed++
				lat.Add(out.latency)
				if out.latency <= o.SLO.Seconds() {
					p.SLOMet++
				}
				if out.retrySucc {
					p.RetrySucceeded++
				}
			}
		}(trace[i])
	}

	// Freeze the cell after the arrival window plus a grace period —
	// stragglers (a backlog the unbounded queue may never drain in
	// bounded wall time) count as not completed.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	horizonWall := time.Duration(float64(o.Horizon) / o.Speedup)
	select {
	case <-done:
	case <-time.After(horizonWall + o.Grace):
	}
	cancel()
	<-done

	stats, err := fetchServeStats(ts.URL)
	ts.Close()
	srv.Close()
	if err != nil {
		return OverloadPoint{}, fmt.Errorf("overload x%g/shed=%v: %w", factor, shedding, err)
	}
	p.QueuePeak = stats.QueuePeak
	p.Rejected = stats.Rejected + stats.TenantRejected
	p.Shed = stats.Shed
	p.Goodput = float64(p.SLOMet) / float64(p.Offered)
	p.P50 = lat.Percentile(50)
	p.P99 = lat.Percentile(99)
	return p, nil
}

// drive submits one request over HTTP, honoring Retry-After on 429 up to
// the retry budget, and reads the NDJSON stream to EOS.
func (o OverloadOptions) drive(ctx context.Context, client *http.Client, base string, req workload.Request) overloadOutcome {
	var out overloadOutcome
	body, _ := json.Marshal(serve.GenerateRequest{
		Model:     req.Model,
		PromptLen: req.PromptLen,
		MaxTokens: req.OutputLen,
		Tenant:    req.Tenant,
	})
	for attempt := 1; ; attempt++ {
		status, eosSim, retryAfter, err := postGenerate(ctx, client, base, body)
		if err != nil {
			return out // cancelled or transport failure: not completed
		}
		if status == http.StatusOK {
			out.completed = true
			out.latency = eosSim - req.Arrival.Seconds()
			out.retrySucc = attempt > 1
			return out
		}
		if status != http.StatusTooManyRequests {
			return out
		}
		out.http429++
		if attempt >= o.RetryAttempts {
			return out
		}
		if retryAfter > o.RetryWaitCap {
			retryAfter = o.RetryWaitCap
		}
		out.retries++
		select {
		case <-time.After(retryAfter):
		case <-ctx.Done():
			return out
		}
	}
}

// postGenerate performs one generate attempt. On 200 it consumes the
// stream and returns the EOS token's simulated timestamp; a stream that
// ends without EOS (shed mid-flight, server close, cancellation) is
// reported as a non-OK status.
func postGenerate(ctx context.Context, client *http.Client, base string, body []byte) (status int, eosSim float64, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, 0, parseRetryAfterHeader(resp), nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	sawEOS := false
	for sc.Scan() {
		var ev serve.TokenEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.EOS {
			sawEOS = true
			eosSim = ev.SimTime
		}
	}
	if !sawEOS {
		// Truncated 200: the window closed (or the request was dropped)
		// before EOS. Report as a refusal-shaped non-status so the caller
		// neither counts a completion nor retries.
		return http.StatusGone, 0, 0, nil
	}
	return http.StatusOK, eosSim, 0, nil
}

func parseRetryAfterHeader(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// fetchServeStats reads the /v1/stats snapshot.
func fetchServeStats(base string) (*serve.Stats, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// FormatOverload renders the sweep as an aligned table, pairing each
// factor's shedding-off and shedding-on rows.
func FormatOverload(points []OverloadPoint) string {
	t := newTable("load", "shedding", "offered", "rate", "completed", "slo met", "goodput",
		"p50", "p99", "sim p99", "queue peak", "sim peak", "cap", "429s", "shed", "retries")
	for _, p := range points {
		cap := "inf"
		if p.QueueCap > 0 {
			cap = strconv.Itoa(p.QueueCap)
		}
		t.add(
			fmt.Sprintf("%gx", p.Factor),
			onOff(p.Shedding),
			strconv.Itoa(p.Offered),
			fmt.Sprintf("%.1f/s", p.OfferedRate),
			strconv.Itoa(p.Completed),
			strconv.Itoa(p.SLOMet),
			fmt.Sprintf("%.1f%%", 100*p.Goodput),
			fmt.Sprintf("%.1fs", p.P50),
			fmt.Sprintf("%.1fs", p.P99),
			fmt.Sprintf("%.1fs", p.SimP99),
			strconv.Itoa(p.QueuePeak),
			strconv.Itoa(p.SimQueuePeak),
			cap,
			strconv.FormatInt(p.HTTP429, 10),
			strconv.FormatInt(p.Shed, 10),
			strconv.FormatInt(p.Retries, 10))
	}
	return "Overload — open-loop traffic through the live HTTP stack, shedding off vs on\n" +
		"(sim p99 / sim peak: the offline sim on the same trace, no admission cap):\n" + t.String()
}

// OverloadCSV writes the sweep as CSV, one row per run.
func OverloadCSV(out io.Writer, points []OverloadPoint) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"load_factor", "shedding", "offered", "offered_rate_rps",
		"completed", "slo_met", "goodput", "p50_s", "p99_s", "sim_p99_s", "queue_peak",
		"sim_queue_peak", "queue_cap", "http_429", "rejected", "shed", "retries",
		"retry_succeeded"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := w.Write([]string{
			fmt.Sprintf("%g", p.Factor),
			onOff(p.Shedding),
			strconv.Itoa(p.Offered),
			fmt.Sprintf("%.2f", p.OfferedRate),
			strconv.Itoa(p.Completed),
			strconv.Itoa(p.SLOMet),
			fmt.Sprintf("%.4f", p.Goodput),
			fmt.Sprintf("%.3f", p.P50),
			fmt.Sprintf("%.3f", p.P99),
			fmt.Sprintf("%.3f", p.SimP99),
			strconv.Itoa(p.QueuePeak),
			strconv.Itoa(p.SimQueuePeak),
			strconv.Itoa(p.QueueCap),
			strconv.FormatInt(p.HTTP429, 10),
			strconv.FormatInt(p.Rejected, 10),
			strconv.FormatInt(p.Shed, 10),
			strconv.FormatInt(p.Retries, 10),
			strconv.FormatInt(p.RetrySucceeded, 10),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// OverloadRecords flattens the sweep into bench records: one per run,
// plus one off/on comparison record per load factor carrying the
// goodput retention the admission layer is accountable for. Retention is
// computed on +1-smoothed SLO-met counts so a zero-goodput shedding-off
// cell (total congestive collapse) still yields a finite, gateable
// ratio.
func OverloadRecords(points []OverloadPoint) []BenchRecord {
	var recs []BenchRecord
	byFactor := map[float64][2]*OverloadPoint{}
	for i := range points {
		p := &points[i]
		recs = append(recs, BenchRecord{
			Experiment: "overload",
			Name:       fmt.Sprintf("x%g/shed=%s", p.Factor, onOff(p.Shedding)),
			Metrics: map[string]float64{
				"goodput":        p.Goodput,
				"slo_met":        float64(p.SLOMet),
				"completed":      float64(p.Completed),
				"p99_s":          p.P99,
				"sim_p99_s":      p.SimP99,
				"queue_peak":     float64(p.QueuePeak),
				"sim_queue_peak": float64(p.SimQueuePeak),
				"http_429":       float64(p.HTTP429),
				"shed":           float64(p.Shed),
				"retries":        float64(p.Retries),
			},
		})
		pair := byFactor[p.Factor]
		if p.Shedding {
			pair[1] = p
		} else {
			pair[0] = p
		}
		byFactor[p.Factor] = pair
	}
	for _, p := range points {
		pair := byFactor[p.Factor]
		if p.Shedding || pair[0] == nil || pair[1] == nil {
			continue // emit once per factor, from the off row
		}
		off, on := pair[0], pair[1]
		m := map[string]float64{
			"goodput_retention": float64(on.SLOMet+1) / float64(off.SLOMet+1),
		}
		if on.QueuePeak > 0 {
			m["queue_compression"] = float64(off.QueuePeak) / float64(on.QueuePeak)
		}
		recs = append(recs, BenchRecord{
			Experiment: "overload",
			Name:       fmt.Sprintf("x%g/shedding-gain", p.Factor),
			Metrics:    m,
		})
	}
	return recs
}
