// Command punica-cluster runs the §7.3 cluster deployment experiment
// (Fig. 13): a 16-GPU Punica cluster under an hour of Poisson load whose
// rate ramps up and back down, with Zipf-1.5 LoRA popularity. It prints
// the figure's three panels (req/s, tok/s, per-GPU batch occupancy) as a
// text table plus summary statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/experiments"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/sched"
	"punica/internal/workload"
)

func main() {
	gpus := flag.Int("gpus", 16, "number of GPUs")
	peak := flag.Float64("peak", 11, "peak request rate (req/s)")
	rampUp := flag.Duration("ramp-up", 25*time.Minute, "ramp-up duration")
	hold := flag.Duration("hold", 10*time.Minute, "plateau duration")
	rampDown := flag.Duration("ramp-down", 25*time.Minute, "ramp-down duration")
	bin := flag.Duration("bin", time.Minute, "series bin width")
	seed := flag.Int64("seed", 42, "workload seed")
	policy := flag.String("policy", "paper", "placement policy: paper, affinity or rank")
	autoscale := flag.Bool("autoscale", false, "compare fixed vs elastic (§5.1) provisioning instead")
	policies := flag.Bool("compare-policies", false,
		"run the policy head-to-head across workload distributions instead")
	policyCSV := flag.String("policy-csv", "", "write the policy comparison as CSV to this file")
	faults := flag.Bool("faults", false,
		"run the availability experiment instead: failure rate x policy, degradation vs fault-free")
	faultsCSV := flag.String("faults-csv", "", "write the availability sweep as CSV to this file")
	disagg := flag.Bool("disagg", false,
		"run the prefill/decode disaggregation experiment instead: unified vs split pools on a prefill-heavy mix")
	disaggRatio := flag.Float64("disagg-ratio", 0.25,
		"fraction of the fleet serving the prefill pool in -disagg mode")
	disaggCSV := flag.String("disagg-csv", "", "write the disaggregation sweep as CSV to this file")
	fairness := flag.Bool("fairness", false,
		"enable the VTC per-tenant fairness admission layer (off preserves the FCFS golden traces)")
	traffic := flag.String("traffic", "",
		"run an open-loop traffic spec instead of the Fig. 13 trapezoid, e.g.\n\"horizon=8m;base=5;spike=at:2m,peak:30,model:0,tenant:1;tenants=64/3;mix=Skewed/32;seed=7\"")
	storeAdapters := flag.Int("store-adapters", 0,
		"with -traffic: cap each GPU's adapter store to this many resident adapters (0 = HBM-derived default)")
	maxBatch := flag.Int("max-batch", 0, "with -traffic: batch-size cap (0 = paper default)")
	tiers := flag.String("tiers", "",
		"with -traffic: staged adapter tiers below HBM, bottom-up, e.g.\n\"ssd:64GiB@2GiB/s,ram:16GiB@8GiB/s+20us\" (empty = flat HBM store)")
	overlap := flag.Bool("overlap", false,
		"with -traffic: overlap a stalled queue head's adapter load with the running prefill")
	predistBudget := flag.String("predist-budget", "",
		"with -traffic and -tiers: enable predictive pre-distribution with this\nper-tick byte budget, e.g. \"1GiB\" (\"0B\" predicts but stages nothing)")
	predistInterval := flag.Duration("predist-interval", cluster.DefaultPreDistInterval,
		"pre-distribution tick interval")
	flag.Parse()

	if _, err := sched.PolicyByName(*policy, sched.PolicyConfig{}); err != nil {
		log.Fatal(err)
	}
	if *traffic == "" && (*tiers != "" || *overlap || *predistBudget != "") {
		log.Fatal("-tiers, -overlap and -predist-budget require -traffic")
	}
	start := time.Now()
	if *traffic != "" {
		topts := tierOptions{
			tiers:           *tiers,
			overlap:         *overlap,
			predistBudget:   *predistBudget,
			predistInterval: *predistInterval,
		}
		if err := runTraffic(*traffic, *gpus, *maxBatch, *storeAdapters, *fairness, *seed, topts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(ran in %v of wall time)\n", time.Since(start).Round(time.Millisecond))
		return
	}
	// The sweeps keep their own fleet size unless -gpus is given: its
	// default is fig13's 16.
	gpusSet := false
	flag.Visit(func(f *flag.Flag) { gpusSet = gpusSet || f.Name == "gpus" })
	var report *experiments.Report
	var csvPath string
	switch {
	case *disagg:
		o := experiments.DefaultDisaggOptions()
		if gpusSet {
			o.NumGPUs = *gpus
		}
		o.PrefillGPUs = experiments.DisaggPrefillGPUs(o.NumGPUs, *disaggRatio)
		o.Seed = *seed
		o.Policy = *policy
		points, err := experiments.Disaggregation(o)
		if err != nil {
			log.Fatal(err)
		}
		report, csvPath = experiments.DisaggReport(points), *disaggCSV
	case *faults:
		o := experiments.DefaultFaultsOptions()
		if gpusSet {
			o.NumGPUs = *gpus
		}
		o.Seed = *seed
		points, err := experiments.Faults(o)
		if err != nil {
			log.Fatal(err)
		}
		report, csvPath = experiments.FaultsReport(points), *faultsCSV
	case *policies:
		o := experiments.DefaultPolicyCompareOptions()
		if gpusSet {
			o.NumGPUs = *gpus
		}
		o.Seed = *seed
		points, err := experiments.ComparePolicies(o)
		if err != nil {
			log.Fatal(err)
		}
		report, csvPath = experiments.PoliciesReport(points), *policyCSV
	}
	if report != nil {
		if err := printReport(report, csvPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(ran in %v of wall time)\n", time.Since(start).Round(time.Millisecond))
		return
	}
	opts := experiments.Fig13Options{
		NumGPUs:  *gpus,
		Peak:     *peak,
		RampUp:   *rampUp,
		Hold:     *hold,
		RampDown: *rampDown,
		BinWidth: *bin,
		Seed:     *seed,
		Policy:   *policy,
	}
	if *autoscale {
		res, err := experiments.Autoscale(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.FormatAutoscale(res))
		return
	}
	res, err := experiments.Fig13(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.Fig13Report(res).Text())
	fmt.Printf("(simulated %v of cluster time in %v of wall time)\n",
		res.Horizon.Round(time.Second), time.Since(start).Round(time.Millisecond))
}

// printReport prints r's text and, when path is set, writes its CSV
// there.
func printReport(r *experiments.Report, path string) error {
	fmt.Println(r.Text())
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.CSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// tierOptions bundles the tiered-adapter-cache flags runTraffic wires
// into the cluster config.
type tierOptions struct {
	tiers           string
	overlap         bool
	predistBudget   string
	predistInterval time.Duration
}

// runTraffic replays an open-loop traffic spec (-traffic) against a
// fresh cluster and prints the run summary plus the per-tenant view the
// fairness layer (-fairness) is accountable for.
func runTraffic(specStr string, gpus, maxBatch, storeAdapters int, fairness bool, seed int64, topts tierOptions) error {
	spec, err := workload.ParseTrafficSpec(specStr)
	if err != nil {
		return err
	}
	if spec.Seed == 0 {
		spec.Seed = seed
	}
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), spec.Seed)
	trace := gen.Traffic(spec)
	if len(trace) == 0 {
		return fmt.Errorf("traffic spec %q generated no arrivals", specStr)
	}

	sys := core.PunicaSystem()
	if maxBatch > 0 {
		sys.MaxBatch = maxBatch
	}
	model := models.Llama2_7B()
	cfg := cluster.Config{
		NumGPUs: gpus,
		Engine: core.Config{
			System: sys,
			GPU:    hw.A100(),
			Model:  model,
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
		Fairness:          fairness,
	}
	if storeAdapters > 0 {
		cfg.Engine.LoRAStoreBytes = int64(storeAdapters) * model.LoRABytes(models.DefaultLoRARank)
	}
	cfg.Tiers, err = lora.ParseTierSpec(topts.tiers)
	if err != nil {
		return err
	}
	cfg.Overlap = topts.overlap
	if topts.predistBudget != "" {
		if len(cfg.Tiers) == 0 {
			return fmt.Errorf("-predist-budget requires -tiers")
		}
		budget, err := lora.ParseBytes(topts.predistBudget)
		if err != nil {
			return fmt.Errorf("-predist-budget: %w", err)
		}
		cfg.PreDist = &cluster.PreDistConfig{
			Interval:    topts.predistInterval,
			BudgetBytes: budget,
			Mix:         spec.Mix,
			Spikes:      spec.Spikes,
		}
	}
	res, err := cluster.New(cfg).Run(trace)
	if err != nil {
		return err
	}

	fair := "off"
	if fairness {
		fair = "on"
	}
	fmt.Printf("Traffic replay — %d requests over %v on %d GPUs, fairness %s:\n",
		len(trace), spec.Horizon, gpus, fair)
	fmt.Printf("  finished %d  tok/s %.0f  makespan %.0fs  p50 %.2fs  p99 %.2fs\n",
		res.Finished, res.Throughput, res.Makespan.Seconds(),
		res.EndToEnd.Percentile(50), res.EndToEnd.Percentile(99))
	fmt.Printf("  adapter stalls %d  queue peak %d  migrations %d  evictions %d\n",
		res.AdapterStalls, res.QueuePeak, res.Migrations, res.Evictions)
	if len(res.TierStats) > 0 {
		fmt.Println("  adapter tiers (tier hits misses promo demo bytes-in):")
		for _, ts := range res.TierStats {
			fmt.Printf("    %-5s %-8d %-8d %-6d %-6d %d\n",
				ts.Tier, ts.Hits, ts.Misses, ts.Promotions, ts.Demotions, ts.BytesIn)
		}
		fmt.Printf("  cold starts %d  p50 %.1fms  p99 %.1fms",
			res.ColdStart.Count(), res.ColdStart.Percentile(50)*1e3,
			res.ColdStart.Percentile(99)*1e3)
		if cfg.PreDist != nil {
			fmt.Printf("  predist bytes %d  promotions %d",
				res.PreDistBytes, res.PreDistPromotions)
		}
		fmt.Println()
	}
	if len(res.Tenants) == 0 {
		return nil
	}
	whale := cluster.HottestTenant(res.Tenants)
	fmt.Printf("  tenants %d  stall skew %.1f  jain %.3f  hottest tenant %d  tail p99 %.2fs\n",
		len(res.Tenants), res.StallSkew, res.JainFairness,
		whale, cluster.TenantP99(res.Tenants, whale))

	// Top tenants by decode tokens — the whale plus the biggest tail.
	byTokens := append([]cluster.TenantOutcome(nil), res.Tenants...)
	sort.Slice(byTokens, func(i, j int) bool {
		if byTokens[i].DecodeTokens != byTokens[j].DecodeTokens {
			return byTokens[i].DecodeTokens > byTokens[j].DecodeTokens
		}
		return byTokens[i].Tenant < byTokens[j].Tenant
	})
	if len(byTokens) > 8 {
		byTokens = byTokens[:8]
	}
	fmt.Println("  top tenants (id finished decode-tokens stalls p99):")
	for _, to := range byTokens {
		fmt.Printf("    %-8d %-8d %-12d %-6d %.2fs\n",
			to.Tenant, to.Finished, to.DecodeTokens, to.AdapterStalls,
			to.EndToEnd.Percentile(99))
	}
	return nil
}
