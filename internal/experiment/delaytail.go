package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"hbh/internal/metrics"
)

// DelayTailResult holds per-protocol delay distributions for the A9
// experiment.
type DelayTailResult struct {
	Runs  int
	Names []string
	Dists map[string]*metrics.Distribution
}

// DelayTail runs the A9 extension experiment: the DISTRIBUTION of
// per-receiver delays (ISP topology, 8 receivers), not just the mean
// the paper plots. Reverse-path protocols do not merely raise the
// average — they fatten the tail, because a single badly-reversed link
// on a branch penalises every member behind it. HBH's delays are the
// unicast shortest paths, so its tail is exactly the substrate's.
func DelayTail(runs int, seed int64) *DelayTailResult {
	res := &DelayTailResult{
		Runs:  runs,
		Names: []string{"PIM-SM", "PIM-SS", "REUNITE", "HBH"},
		Dists: make(map[string]*metrics.Distribution),
	}
	for _, n := range res.Names {
		res.Dists[n] = metrics.NewDistribution(20000)
	}

	for run := 0; run < runs; run++ {
		s := seed + int64(run)*7919
		sp := runSpec(RunConfig{Topo: TopoISP, Receivers: 8, Seed: s})
		for _, p := range []Protocol{REUNITE, HBH, PIMSM, PIMSS} {
			sp.Protocol, sp.rng = p, rand.New(rand.NewSource(s))
			for _, d := range newSession(sp).measure(defaultConvergeIntervals).Delays {
				res.Dists[string(p)].Add(float64(d))
			}
		}
	}
	return res
}

// FormatTable renders the per-protocol delay quantiles.
func (r *DelayTailResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A9 — receiver delay distribution (ISP topology, 8 receivers, %d runs)\n", r.Runs)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s\n", "protocol", "p10", "p50", "p90", "p95", "p99")
	for _, n := range r.Names {
		d := r.Dists[n]
		fmt.Fprintf(&b, "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			n, d.Quantile(0.10), d.Quantile(0.50), d.Quantile(0.90),
			d.Quantile(0.95), d.Quantile(0.99))
	}
	return b.String()
}
