package experiments

import (
	"strings"
	"testing"
	"time"

	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

func TestFig1Shapes(t *testing.T) {
	points := Fig1(hw.A100(), models.Llama2_7B())
	if len(points) != len(Fig1SeqLens)*len(Batches1to32) {
		t.Fatalf("got %d points", len(points))
	}
	byCell := map[[2]int]Fig1Point{}
	for _, p := range points {
		byCell[[2]int{p.SeqLen, p.Batch}] = p
	}
	// Prefill proportional to batch: b32/b1 ≈ 30x at len 512.
	pr := float64(byCell[[2]int{512, 32}].Prefill) / float64(byCell[[2]int{512, 1}].Prefill)
	if pr < 10 {
		t.Errorf("prefill batch scaling %.1fx, want near-proportional", pr)
	}
	// Decode sublinear: b32/b1 < 2 at len 128.
	de := float64(byCell[[2]int{128, 32}].Decode) / float64(byCell[[2]int{128, 1}].Decode)
	if de > 2 {
		t.Errorf("decode batch scaling %.2fx, want < 2", de)
	}
	// Fig. 1 absolute anchors: ~11→13ms short, ~17→34ms long.
	if d := byCell[[2]int{128, 32}].Decode; d < 10*time.Millisecond || d > 17*time.Millisecond {
		t.Errorf("decode b32 len128 = %v, want ~13ms", d)
	}
	if d := byCell[[2]int{2048, 32}].Decode; d < 25*time.Millisecond || d > 45*time.Millisecond {
		t.Errorf("decode b32 len2048 = %v, want ~34ms", d)
	}
	out := Fig1Report(points).Text()
	if !strings.Contains(out, "Prefill latency") || !strings.Contains(out, "2048") {
		t.Error("Fig1Report text malformed")
	}
}

func TestFig7Shapes(t *testing.T) {
	points := Fig7()
	// Distinct: intensity constant, achieved increasing with batch.
	var distinct []Fig7Point
	for _, p := range points {
		if p.Dist == dist.Distinct {
			distinct = append(distinct, p)
		}
	}
	for i := 1; i < len(distinct); i++ {
		if distinct[i].Intensity != distinct[0].Intensity {
			t.Error("Distinct intensity should not vary with batch")
		}
		if distinct[i].AchievedFLOPS <= distinct[i-1].AchievedFLOPS {
			t.Error("Distinct achieved FLOP/s should increase with batch")
		}
	}
	// Identical: intensity increases; achieved stays under both roofs.
	var prevIntensity float64
	for _, p := range points {
		if p.Dist != dist.Identical {
			continue
		}
		if p.Intensity <= prevIntensity {
			t.Error("Identical intensity should increase with batch")
		}
		prevIntensity = p.Intensity
		if p.AchievedFLOPS > 312e12 || p.AchievedFLOPS > p.Intensity*1.935e12 {
			t.Error("roofline ceiling violated")
		}
	}
	if !strings.Contains(Fig7Report(points).Text(), "roofline") {
		t.Error("Fig7Report text malformed")
	}
}

func TestFig8Shapes(t *testing.T) {
	points := Fig8()
	for _, p := range points {
		if p.Batch >= 8 && p.SGMV >= p.GatherBMM {
			t.Errorf("%v b=%d: SGMV %v not faster than Gather-BMM %v",
				p.Dist, p.Batch, p.SGMV, p.GatherBMM)
		}
		if p.Dist == dist.Distinct && p.Batch == 64 {
			if p.Loop < time.Millisecond {
				t.Error("Loop should be terrible on Distinct b=64")
			}
			// Paper: 37µs → 116µs band for SGMV (we allow 60-130µs).
			if p.SGMV < 60*time.Microsecond || p.SGMV > 130*time.Microsecond {
				t.Errorf("SGMV Distinct b=64 = %v, want ~75-116µs", p.SGMV)
			}
		}
		if p.Dist == dist.Identical && p.Batch == 64 {
			// Paper: "SGMV latency remains almost constant, 37µs→40µs".
			if p.SGMV > 55*time.Microsecond {
				t.Errorf("SGMV Identical b=64 = %v, want ~40µs", p.SGMV)
			}
		}
	}
	if !strings.Contains(Fig8Report(points).Text(), "Gather-BMM") {
		t.Error("Fig8Report text malformed")
	}
}

func TestFig9Shapes(t *testing.T) {
	points := Fig9()
	byCell := map[[3]int]time.Duration{}
	for _, p := range points {
		byCell[[3]int{p.Rank, int(p.Dist), p.Batch}] = p.Latency
	}
	// Latency grows with rank in the Distinct case at batch 64.
	prev := time.Duration(0)
	for _, r := range Fig9Ranks {
		l := byCell[[3]int{r, int(dist.Distinct), 64}]
		if l <= prev {
			t.Errorf("Distinct b=64 latency should grow with rank")
		}
		prev = l
	}
	// Weight-sharing workloads stay flat: b=64 within 1.5x of b=1.
	for _, r := range Fig9Ranks {
		for _, k := range []dist.Kind{dist.Uniform, dist.Skewed, dist.Identical} {
			b1 := byCell[[3]int{r, int(k), 1}]
			b64 := byCell[[3]int{r, int(k), 64}]
			if float64(b64)/float64(b1) > 1.5 {
				t.Errorf("rank %d %v not flat: %v → %v", r, k, b1, b64)
			}
		}
	}
	if !strings.Contains(Fig9Report(points).Text(), "r=64") {
		t.Error("Fig9Report text malformed")
	}
}

func TestFig10Shapes(t *testing.T) {
	points := Fig10()
	byCell := map[string]time.Duration{}
	for _, p := range points {
		byCell[p.Model+p.Dist.String()+string(rune(p.SeqLen))+string(rune(p.Batch))] = p.Latency
	}
	// Layer latency is LoRA-popularity-agnostic: for every (model, len,
	// batch), max/min across distributions ≤ 1.4.
	type key struct {
		model  string
		length int
		batch  int
	}
	minMax := map[key][2]time.Duration{}
	for _, p := range points {
		k := key{p.Model, p.SeqLen, p.Batch}
		mm, ok := minMax[k]
		if !ok {
			minMax[k] = [2]time.Duration{p.Latency, p.Latency}
			continue
		}
		if p.Latency < mm[0] {
			mm[0] = p.Latency
		}
		if p.Latency > mm[1] {
			mm[1] = p.Latency
		}
		minMax[k] = mm
	}
	for k, mm := range minMax {
		if ratio := float64(mm[1]) / float64(mm[0]); ratio > 1.4 {
			t.Errorf("%v: distribution spread %.2f, want < 1.4", k, ratio)
		}
	}
	if !strings.Contains(Fig10Report(points).Text(), "llama-2-13b") {
		t.Error("Fig10Report text malformed")
	}
}

func smallOpts() TextGenOptions { return TextGenOptions{NumRequests: 120, Seed: 3} }

func TestFig11Shapes(t *testing.T) {
	rows, err := Fig11(models.Llama2_7B(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(system string, k dist.Kind) float64 {
		for _, r := range rows {
			if r.System == system && r.Dist == k {
				return r.Throughput
			}
		}
		t.Fatalf("missing row %s/%v", system, k)
		return 0
	}
	// Punica consistently high regardless of workload (spread < 1.4x).
	pMin, pMax := 1e18, 0.0
	for _, k := range dist.Kinds {
		v := get("Punica", k)
		if v < pMin {
			pMin = v
		}
		if v > pMax {
			pMax = v
		}
	}
	if pMax/pMin > 1.4 {
		t.Errorf("Punica throughput spread %.2f across workloads, want flat", pMax/pMin)
	}
	// Every baseline collapses on Distinct: Punica ≥ 4x.
	for _, sys := range []string{"HuggingFace Transformers", "DeepSpeed",
		"FasterTransformer (backbone-only)", "vLLM (backbone-only)"} {
		if get("Punica", dist.Distinct) < 4*get(sys, dist.Distinct) {
			t.Errorf("Punica should be ≥4x %s on Distinct", sys)
		}
	}
	// Identical: vLLM ties or slightly beats Punica (backbone-only).
	v, p := get("vLLM (backbone-only)", dist.Identical), get("Punica", dist.Identical)
	if v < p*0.95 {
		t.Errorf("vLLM Identical %.0f should be >= Punica %.0f (backbone-only advantage)", v, p)
	}
	if v > p*1.35 {
		t.Errorf("vLLM Identical %.0f should be close to Punica %.0f", v, p)
	}
	// HuggingFace is the weakest system on Identical (§7.2).
	for _, sys := range []string{"DeepSpeed", "FasterTransformer (backbone-only)",
		"vLLM (backbone-only)", "Punica"} {
		if get("HuggingFace Transformers", dist.Identical) >= get(sys, dist.Identical) {
			t.Errorf("HuggingFace should be slowest on Identical, beat %s", sys)
		}
	}
}

func TestHeadlineClaims(t *testing.T) {
	rows, err := Fig11(models.Llama2_7B(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	h := Headline(rows)
	if h.MultiLoRASpeedup < 4 {
		t.Errorf("multi-LoRA speedup %.1fx, want large (paper: 12x)", h.MultiLoRASpeedup)
	}
	// "only adding 2ms latency per token": between 0.5 and 4 ms.
	if h.AddedMsPerToken < 0.2 || h.AddedMsPerToken > 4 {
		t.Errorf("added latency %.2f ms/token, want ~2ms", h.AddedMsPerToken)
	}
	if !strings.Contains(FormatHeadline(h), "speedup") {
		t.Error("FormatHeadline malformed")
	}
}

func TestFig12Shapes(t *testing.T) {
	rows, err := Fig12(TextGenOptions{NumRequests: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	get := func(system string, k dist.Kind) float64 {
		for _, r := range rows {
			if r.System == system && r.Dist == k {
				return r.Throughput
			}
		}
		t.Fatalf("missing row %s/%v", system, k)
		return 0
	}
	// Punica flat across workloads; vLLM collapses on multi-LoRA.
	for _, k := range []dist.Kind{dist.Distinct, dist.Uniform, dist.Skewed} {
		if get("Punica", k) < 6*get("vLLM (backbone-only)", k) {
			t.Errorf("%v: Punica should dominate vLLM by ~10-20x on 70B multi-LoRA", k)
		}
	}
	// Identical: same parallel scheme → near parity (§7.2).
	v, p := get("vLLM (backbone-only)", dist.Identical), get("Punica", dist.Identical)
	if ratio := v / p; ratio < 0.9 || ratio > 1.35 {
		t.Errorf("70B Identical vLLM/Punica = %.2f, want ~1", ratio)
	}
}

func TestFig13SmallScale(t *testing.T) {
	opts := Fig13Options{
		NumGPUs:  4,
		Peak:     3,
		RampUp:   3 * time.Minute,
		Hold:     time.Minute,
		RampDown: 3 * time.Minute,
		BinWidth: 30 * time.Second,
		Seed:     9,
	}
	res, err := Fig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != int64(res.Requests) {
		t.Fatalf("finished %d/%d", res.Finished, res.Requests)
	}
	// Request-rate panel follows the trapezoid: middle bin > first bin.
	mid := len(res.ReqRate) / 2
	if res.ReqRate[mid] <= res.ReqRate[0] {
		t.Error("request rate should peak mid-run")
	}
	// Token panel tracks load.
	if res.TokRate[mid] <= res.TokRate[0] {
		t.Error("token rate should peak mid-run")
	}
	if len(res.BatchPerGPU) != opts.NumGPUs {
		t.Fatalf("batch series for %d GPUs", len(res.BatchPerGPU))
	}
	out := Fig13Report(res).Text()
	if !strings.Contains(out, "req/s") || !strings.Contains(out, "busy GPUs") {
		t.Error("Fig13Report text malformed")
	}
}

func TestFig6Waste(t *testing.T) {
	res, err := Fig6(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticWasted == 0 {
		t.Error("static batching should waste decode steps")
	}
	if res.PagedWasted != 0 {
		t.Error("Punica's separable KvCache should waste nothing")
	}
	if res.WasteFrac <= 0 || res.WasteFrac >= 1 {
		t.Errorf("waste fraction %.2f out of range", res.WasteFrac)
	}
	if !strings.Contains(FormatFig6(res), "wasted") {
		t.Error("FormatFig6 malformed")
	}
}

func TestLoadingMicrobenchmark(t *testing.T) {
	res := Loading()
	// §5.2: ~50µs/layer (we land ~100µs with copy-issue overhead),
	// ~2ms/model; loading must hide behind one decode step.
	if res.PerLayer > 200*time.Microsecond {
		t.Errorf("per-layer load %v too slow", res.PerLayer)
	}
	if res.PerModel < time.Millisecond || res.PerModel > 5*time.Millisecond {
		t.Errorf("per-model load %v, want ~2-4ms", res.PerModel)
	}
	if res.PerModel >= res.DecodeStep {
		t.Error("adapter load should hide behind one decode step")
	}
	if !strings.Contains(FormatLoading(res), "PCIe") {
		t.Error("FormatLoading malformed")
	}
}

func TestAblationNorm(t *testing.T) {
	res := AblationNorm()
	want := time.Duration(models.Llama2_7B().Layers) * 2 * (hw.LayerNormUnfused - hw.LayerNormFused)
	if res.StepSavingsTotal != want {
		t.Errorf("norm fusion saves %v, want %v", res.StepSavingsTotal, want)
	}
	if !strings.Contains(FormatAblationNorm(res), "LayerNorm") {
		t.Error("FormatAblationNorm malformed")
	}
}

func TestAblationMaxBatch(t *testing.T) {
	points, err := AblationMaxBatch(60, 11, []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Throughput grows with batch cap; per-token latency grows too.
	if points[2].Throughput <= points[0].Throughput {
		t.Error("larger batch cap should raise throughput")
	}
	if points[2].P50TokenMs <= points[0].P50TokenMs {
		t.Error("larger batches should cost per-token latency")
	}
	if !strings.Contains(FormatAblationMaxBatch(points), "max batch") {
		t.Error("format malformed")
	}
}

func TestAblationPrefillLimit(t *testing.T) {
	points, err := AblationPrefillLimit(60, 13, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Larger prefill bursts hurt tail per-token latency (the §5 design
	// rationale for limiting prefill to 1).
	if points[1].P99TokenMs < points[0].P99TokenMs {
		t.Errorf("prefill burst should raise p99: limit1=%.1f limit8=%.1f",
			points[0].P99TokenMs, points[1].P99TokenMs)
	}
	if !strings.Contains(FormatAblationPrefillLimit(points), "prefill") {
		t.Error("format malformed")
	}
}

func TestAblationPageSize(t *testing.T) {
	points, err := AblationPageSize(40, 17, []int{16, 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Errorf("page size %d produced no throughput", p.PageSize)
		}
	}
	if !strings.Contains(FormatAblationPageSize(points), "page size") {
		t.Error("format malformed")
	}
}

func TestAblationMigration(t *testing.T) {
	res, err := AblationMigration(Fig13Options{
		NumGPUs:  4,
		Peak:     3,
		RampUp:   2 * time.Minute,
		Hold:     time.Minute,
		RampDown: 2 * time.Minute,
		BinWidth: 30 * time.Second,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WithMigrations == 0 {
		t.Error("expected some consolidation migrations")
	}
	if res.WithTailIdle < res.WithoutTailIdle {
		t.Errorf("consolidation should free at least as many GPUs at tail: with=%d without=%d",
			res.WithTailIdle, res.WithoutTailIdle)
	}
	if !strings.Contains(FormatAblationMigration(res), "migrations") {
		t.Error("format malformed")
	}
}

func TestAblationQuantization(t *testing.T) {
	points, err := AblationQuantization(60, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d points", len(points))
	}
	get := func(w, kv hw.Precision) QuantPoint {
		for _, p := range points {
			if p.Weights == w && p.KV == kv {
				return p
			}
		}
		t.Fatalf("missing point %v/%v", w, kv)
		return QuantPoint{}
	}
	fp := get(hw.FP16, hw.FP16)
	w8 := get(hw.INT8, hw.FP16)
	kv8 := get(hw.FP16, hw.INT8)
	// Quantized weights must raise throughput (decode is weight-bound)
	// and never increase evictions (more KV headroom).
	if w8.Throughput <= fp.Throughput {
		t.Errorf("int8 weights %.0f should beat fp16 %.0f", w8.Throughput, fp.Throughput)
	}
	if w8.Evictions > fp.Evictions {
		t.Errorf("int8 weights should not evict more (%d vs %d)", w8.Evictions, fp.Evictions)
	}
	// Quantized KvCache cuts attention traffic: throughput up too.
	if kv8.Throughput <= fp.Throughput {
		t.Errorf("int8 KvCache %.0f should beat fp16 %.0f", kv8.Throughput, fp.Throughput)
	}
	if !strings.Contains(FormatAblationQuantization(points), "nf4") {
		t.Error("format malformed")
	}
}

func TestAutoscaleExperiment(t *testing.T) {
	res, err := Autoscale(Fig13Options{
		NumGPUs:  4,
		Peak:     4,
		RampUp:   3 * time.Minute,
		Hold:     time.Minute,
		RampDown: 3 * time.Minute,
		BinWidth: 30 * time.Second,
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings <= 0 {
		t.Errorf("elastic provisioning should save GPU time, got %.2f", res.Savings)
	}
	if res.Provisions == 0 || res.Releases == 0 {
		t.Errorf("expected scaling activity: %+v", res)
	}
	// Elasticity trades some time-to-first-token; it must not be free.
	if res.ElasticP99TTFT < res.FixedP99TTFT {
		t.Errorf("elastic p99 TTFT %.2f should not beat fixed %.2f",
			res.ElasticP99TTFT, res.FixedP99TTFT)
	}
	if !strings.Contains(FormatAutoscale(res), "GPU-seconds") {
		t.Error("format malformed")
	}
}

func TestFig13PopularityDrift(t *testing.T) {
	opts := Fig13Options{
		NumGPUs:  4,
		Peak:     3,
		RampUp:   3 * time.Minute,
		Hold:     time.Minute,
		RampDown: 3 * time.Minute,
		BinWidth: 30 * time.Second,
		Seed:     9,

		HotSetRotations: 3,
		ZipfAlpha:       2,
	}
	res, err := Fig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != int64(res.Requests) || res.Requests == 0 {
		t.Fatalf("finished %d/%d under popularity drift", res.Finished, res.Requests)
	}
	// Drift must actually change the trace relative to the static run:
	// same arrival process (identical rng consumption), but later
	// phases assign model ids beyond the static population.
	static := opts
	static.HotSetRotations = 0
	static.ZipfAlpha = 0
	driftTrace, staticTrace := fig13Trace(opts), fig13Trace(static)
	if len(driftTrace) != len(staticTrace) {
		t.Fatalf("drift changed arrival count: %d vs %d", len(driftTrace), len(staticTrace))
	}
	maxModel := func(reqs []workload.Request) int64 {
		var m int64
		for _, r := range reqs {
			if r.Model > m {
				m = r.Model
			}
		}
		return m
	}
	if maxModel(driftTrace) <= maxModel(staticTrace) {
		t.Fatalf("hot-set rotation assigned no offset models: drift max %d, static max %d",
			maxModel(driftTrace), maxModel(staticTrace))
	}
	sres, err := Fig13(static)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Requests != res.Requests {
		t.Fatalf("drift changed arrival count: %d vs %d", res.Requests, sres.Requests)
	}
}
