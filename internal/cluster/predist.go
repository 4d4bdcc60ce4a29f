package cluster

import (
	"time"

	"punica/internal/dist"
	"punica/internal/lora"
	"punica/internal/workload"
)

// PreDistConfig drives the predictive pre-distribution daemon: a
// periodic control-plane tick that reads the workload's popularity
// signals — the dist.Mix phase schedule (which hot set is about to
// rotate in) and workload.TrafficSpec spikes (which single adapter is
// about to surge) — and stages the predicted adapters into every GPU's
// host-RAM tier ahead of demand, within a byte budget per tick. The
// first request for a pre-distributed adapter then pays one PCIe hop
// instead of the full registry → SSD → RAM cascade.
//
// The daemon is deterministic: predictions come only from the seeded
// workload spec and the virtual clock, adapters are staged in a fixed
// order (spike targets first, then the predicted phase's head ids
// ascending) across GPUs in index order, and the budget cuts off at the
// same byte on every run.
type PreDistConfig struct {
	// Interval between prediction ticks (default DefaultPreDistInterval).
	Interval time.Duration
	// Lead is how far ahead the predictor looks for phase rotations and
	// spikes (default: the tick interval, so nothing is missed between
	// ticks).
	Lead time.Duration
	// BudgetBytes caps the bytes moved into staging tiers per tick,
	// per cell. <= 0 disables staging — the daemon predicts but moves
	// nothing, the "naive tiered" baseline.
	BudgetBytes int64
	// TopK is how many head ids of the predicted phase to stage
	// (popularity descends with id within a phase; default 8).
	TopK int
	// Mix is the popularity drift signal, normally the workload spec's
	// Mix. The zero Mix contributes no phase predictions.
	Mix dist.Mix
	// Spikes are the model-targeted traffic surges, normally the
	// workload spec's Spikes. Background spikes (Model < 0) are
	// ignored — they have no single adapter to stage.
	Spikes []workload.Spike
}

// DefaultPreDistInterval paces the daemon when Interval is unset.
const DefaultPreDistInterval = time.Second

const defaultPreDistTopK = 8

func (p *PreDistConfig) interval() time.Duration {
	if p.Interval > 0 {
		return p.Interval
	}
	return DefaultPreDistInterval
}

func (p *PreDistConfig) lead() time.Duration {
	if p.Lead > 0 {
		return p.Lead
	}
	return p.interval()
}

func (p *PreDistConfig) topK() int {
	if p.TopK > 0 {
		return p.TopK
	}
	return defaultPreDistTopK
}

// predicted returns the adapters expected to be hot at now+Lead, in
// staging priority order: spike targets whose ramp begins inside the
// lead window first (most urgent — a spike concentrates demand on one
// adapter), then the head ids of the mix phase active at the horizon,
// ascending (id order is popularity order within a phase). The slice
// is appended to buf to keep the tick allocation-free in steady state.
func (p *PreDistConfig) predicted(buf []lora.ModelID, now time.Duration) []lora.ModelID {
	out := buf[:0]
	horizon := now + p.lead()
	seen := func(id lora.ModelID) bool {
		for _, have := range out {
			if have == id {
				return true
			}
		}
		return false
	}
	for _, sp := range p.Spikes {
		if sp.Model < 0 {
			continue
		}
		if sp.At > now && sp.At <= horizon {
			if id := lora.ModelID(sp.Model); !seen(id) {
				out = append(out, id)
			}
		}
	}
	if phase, ok := p.Mix.PhaseAt(horizon); ok {
		k := p.topK()
		if phase.NumModels > 0 && k > phase.NumModels {
			k = phase.NumModels
		}
		for i := 0; i < k; i++ {
			if id := lora.ModelID(phase.Offset + i); !seen(id) {
				out = append(out, id)
			}
		}
	}
	return out
}

// predistTick runs one daemon cycle: predict, then stage each predicted
// adapter into host RAM on every live GPU (adapters outer, GPUs in
// index order) until the tick's byte budget is spent. Crashed runners
// are skipped; a replacement GPU starts cold and is warmed by the next
// tick. The tick re-arms itself while the run is live, mirroring
// migrationTick.
func (c *Cluster) predistTick() {
	pd := c.cfg.PreDist
	now := c.clock.Now()
	c.predistBuf = pd.predicted(c.predistBuf, now)
	budget := pd.BudgetBytes
	for _, id := range c.predistBuf {
		if budget <= 0 {
			break
		}
		for _, r := range c.gpus {
			if r.crashed {
				continue
			}
			moved := r.eng.PrewarmAdapter(id, now)
			if moved > 0 {
				budget -= moved
				c.res.PreDistBytes += moved
				c.res.PreDistPromotions++
			}
			if budget <= 0 {
				break
			}
		}
	}
	if c.arrivalsLeft() > 0 || c.anyBusy() || c.sched.QueueLen() > 0 {
		c.clock.ScheduleAfter(pd.interval(), c.predistTick)
	}
}
