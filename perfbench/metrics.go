package main

// metricSpec names one reported metric and its unit. The lists mirror
// BENCHMARK.json; every workload reports every metric of a list, and a
// per-layer metric of a layer the workload does not exercise reads 0.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees. On chat and saturate the
// latencies are wall-clock, as the load generator observes them; on
// sim-fleet they are the replay's modelled (simulated) latencies.
var endToEnd = []metricSpec{
	{"ttft_p50_ms", "ms"},
	{"ttft_p90_ms", "ms"},
	{"itl_p50_ms", "ms"},
	{"itl_p99_ms", "ms"},
	{"slo_attainment", "frac"},
	{"goodput_req_s", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// runnerRoutes are the runner RPCs the frontend issues on a unified
// deployment; the traced chat run counts and times each.
var runnerRoutes = []string{"enqueue", "state", "can_admit", "stream", "cancel"}

// profBuckets group CPU-profile self samples by package (see prof.go).
var profBuckets = []string{
	"serve", "remote", "sched", "core", "lora", "kvcache", "layer_sgmv",
	"sim", "cluster", "metrics", "net_http", "encoding_json", "runtime", "other",
}

// perLayer is reported by traced runs.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"remote.queue_wait_ms_p50", "ms"},
		{"remote.rpcs_per_req", "count"},
		{"remote.state_304_frac", "frac"},
		{"remote.proxy_write_us_per_token", "us"},
		{"remote.stream_bytes_per_token", "B"},
		{"remote.retries", "count"},
	}
	for _, r := range runnerRoutes {
		specs = append(specs,
			metricSpec{"remote.rpcs_per_req." + r, "count"},
			metricSpec{"remote.runner_ms_p50." + r, "ms"})
	}
	specs = append(specs, []metricSpec{
		{"serve.first_write_ms_p50", "ms"},
		{"serve.write_us_per_token", "us"},
		{"serve.bytes_per_token", "B"},
		{"serve.refused_frac", "frac"},
		{"sched.queue_peak", "count"},
		{"sched.rejected", "count"},
		{"sched.drain_rate_per_s", "1/s"},
		{"sched.queue_wait_ms", "ms"},
		{"core.tokens_per_step", "count"},
		{"core.steps_per_s", "1/s"},
		{"core.active_batch_mean", "count"},
		{"kvcache.free_frac_min", "frac"},
		{"lora.resident_adapters", "count"},
		{"lora.hbm_hit_frac", "frac"},
		{"lora.evictions_per_req", "count"},
		{"lora.stalls_per_req", "count"},
		{"lora.cold_start_p99_ms", "ms"},
		{"cluster.queue_peak", "count"},
		{"cluster.batch_mean", "count"},
		{"cluster.gpu_busy_mean", "frac"},
		{"cluster.ttft_p99_ms", "ms"},
		{"sim.wall_s", "s"},
		{"sim.ref_s", "s"},
		{"sim.req_per_ref_s", "1/s"},
		{"sim.allocs_per_req", "count"},
		{"sim.bytes_per_req", "B"},
		{"sim.gc_cycles", "count"},
	}...)
	for _, b := range profBuckets {
		specs = append(specs, metricSpec{"prof." + b + "_frac", "frac"})
	}
	specs = append(specs, []metricSpec{
		{"bench.sent", "count"},
		{"bench.ok", "count"},
		{"bench.refused", "count"},
		{"bench.failed", "count"},
		{"bench.gen_late_p99_ms", "ms"},
		{"host.cpu_ms_per_req_raw", "ms"},
		{"host.ref_iters_per_s", "1/s"},
	}...)
	// The traced run's own end-to-end figures: their difference from an
	// untraced run of the same seed is the tracing overhead.
	for _, s := range endToEnd {
		specs = append(specs, metricSpec{"traced." + s.name, s.unit})
	}
	return specs
}()
