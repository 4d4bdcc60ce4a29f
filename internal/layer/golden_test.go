package layer

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/sgmv"
)

// goldenCostFile pins InvokeTime and LayerTime in exact nanoseconds over
// the grid costTable walks. Every simulated latency in the repository is
// a sum of these numbers, so a refactor of the cost model that moves
// any row — a re-associated product, a reordered per-term sum, a
// hoisted expression that was not invocation-independent — changes a
// modelled outcome somewhere. Re-record it only for a deliberate change
// to the model, by writing costTable's lines over the file.
const goldenCostFile = "cost_golden.txt"

// costTable evaluates every grid point: three models on their paper
// GPUs, TP 1/2/8, every weight × KvCache precision pair, the baseline
// feature flags one at a time and all together, over prefill-only,
// decode-only and mixed invocations with and without LoRA segments at
// several (padded, mixed-batch) ranks.
func costTable() []string {
	type modelCase struct {
		name  string
		gpu   hw.GPUSpec
		model models.Config
	}
	modelCases := []modelCase{
		{"7B", hw.A100(), models.Llama2_7B()},
		{"13B", hw.A100(), models.Llama2_13B()},
		{"70B", hw.A100_40G(), models.Llama2_70B()},
	}
	type variant struct {
		name  string
		apply func(*Costs)
	}
	precisions := []hw.Precision{hw.FP16, hw.INT8, hw.NF4}
	var variants []variant
	for _, w := range precisions {
		for _, kv := range precisions {
			variants = append(variants, variant{
				fmt.Sprintf("w=%s,kv=%s", w, kv),
				func(c *Costs) { c.WeightPrecision, c.KVPrecision = w, kv },
			})
		}
	}
	variants = append(variants,
		variant{"noflash", func(c *Costs) { c.FlashAttention = false }},
		variant{"unfused", func(c *Costs) { c.FusedNorm = false }},
		variant{"kvconcat", func(c *Costs) { c.KVConcat = true }},
		variant{"loop", func(c *Costs) { c.LoRAImpl = LoRALoop }},
		variant{"hf", func(c *Costs) {
			c.FlashAttention, c.FusedNorm, c.KVConcat, c.LoRAImpl = false, false, true, LoRALoop
		}},
	)

	decodeCtxs := []int{5, 130, 511, 2047, 999, 64, 64, 300}
	wide := make([]int, 32)
	ones := make([]int, 32)
	for i := range wide {
		wide[i] = 1 + 67*i
		ones[i] = 1
	}
	invocations := []struct {
		name string
		inv  Invocation
	}{
		{"prefill", Invocation{PrefillLens: []int{384}}},
		{"prefill-lora-r16", Invocation{PrefillLens: []int{1000, 37},
			LoRASegments: sgmv.NewSegments(1000, 37), LoRARank: 16}},
		{"decode", Invocation{DecodeContexts: decodeCtxs}},
		{"decode-lora-r16", Invocation{DecodeContexts: decodeCtxs,
			LoRASegments: sgmv.NewSegments(1, 2, 5), LoRARank: 16}},
		{"decode-distinct-r64", Invocation{DecodeContexts: wide,
			LoRASegments: sgmv.NewSegments(ones...), LoRARank: 64}},
		{"mixed-r8", Invocation{PrefillLens: []int{777}, DecodeContexts: []int{12, 400, 1500},
			LoRASegments: sgmv.NewSegments(778, 2), LoRARank: 8}},
		{"mixed-r32", Invocation{PrefillLens: []int{777}, DecodeContexts: []int{12, 400, 1500},
			LoRASegments: sgmv.NewSegments(777, 1, 1, 1), LoRARank: 32}},
	}

	// Amplified invocations, 7B only. A term of realistic size lasts
	// 1e5–1e8 ns, so a one-ulp drift in its float evaluation almost never
	// moves the truncated nanosecond. Sizing one term to ~1e15–1e16 ns
	// puts a float ulp near a nanosecond, and the same drift shows: a
	// huge prompt (attention compute), a huge decode context (attention
	// and KvCache concatenation traffic), huge LoRA segments (SGMV and
	// loop kernels). The sizes are odd so no product is an exact power
	// of two, which would hide a rounding change.
	amplified := []struct {
		name string
		inv  Invocation
	}{
		{"amp-prefill", Invocation{PrefillLens: []int{536_870_909}}},
		{"amp-decode", Invocation{DecodeContexts: []int{1_125_899_906_842_597}}},
		{"amp-lora", Invocation{DecodeContexts: []int{5},
			LoRASegments: sgmv.NewSegments(562_949_953_421_311, 140_737_488_355_327), LoRARank: 16}},
	}

	var lines []string
	row := func(model string, tp int, variant, inv string, c Costs, in Invocation) {
		lines = append(lines, fmt.Sprintf("%s tp%d %s %s invoke=%d layer=%d",
			model, tp, variant, inv, int64(c.InvokeTime(in)), int64(c.LayerTime(in))))
	}
	for _, mc := range modelCases {
		for _, tp := range []int{1, 2, 8} {
			for _, v := range variants {
				c := New(mc.gpu, mc.model).WithTP(tp)
				v.apply(&c)
				for _, ic := range invocations {
					row(mc.name, tp, v.name, ic.name, c, ic.inv)
				}
				if mc.name == "7B" {
					for _, ic := range amplified {
						row(mc.name, tp, v.name, ic.name, c, ic.inv)
					}
				}
			}
		}
	}
	return lines
}

func TestCostGoldenTable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenCostFile))
	if err != nil {
		t.Fatalf("read golden cost table: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := costTable()
	if len(got) != len(want) {
		t.Fatalf("cost table has %d rows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("row %d:\n  got:  %s\n  want: %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cost rows drifted from the golden table", bad, len(got))
	}
}
