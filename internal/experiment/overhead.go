package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
)

// ControlOverhead runs the A5 extension experiment: steady-state
// control-plane traffic of the dynamic protocols as a function of
// group size, in link transmissions per refresh interval.
//
// Soft-state protocols pay for robustness with periodic refreshes:
// every receiver emits a join per interval (relayed or intercepted
// hop-by-hop), the source multicasts a tree refresh, and HBH
// additionally re-announces branching points with fusion messages.
// This experiment quantifies that price and how it scales with the
// group — the overhead side of the comparison the paper's §3 describes
// qualitatively.
func ControlOverhead(runs int, seed int64) *Figure {
	sizes := RandomSizes()
	fig := &Figure{
		ID:     "A5",
		Title:  "Control overhead vs group size (50-node random topology)",
		XLabel: "Number of receivers",
		YLabel: "control transmissions per refresh interval",
		Runs:   runs,
	}
	protos := []Protocol{REUNITE, HBH}
	for _, p := range protos {
		fig.Series = append(fig.Series, metrics.NewSeries(string(p), sizes))
	}

	const measureIntervals = 10
	for si, size := range sizes {
		for run := 0; run < runs; run++ {
			s := seed + int64(si)*1_000_003 + int64(run)*7919
			sp := runSpec(RunConfig{Topo: TopoRandom50, Receivers: size, Seed: s})

			for pi, p := range protos {
				sp.Protocol, sp.rng = p, rand.New(rand.NewSource(s))
				sess := newSession(sp)
				sess.converge(defaultConvergeIntervals)
				sess.net.ResetStats()
				sess.converge(measureIntervals)
				st := sess.net.Stats()
				// No data is sent during the window: every transmission
				// is control traffic.
				perInterval := float64(st.Transmissions) / measureIntervals
				fig.Series[pi].At(size).Add(perInterval)
			}
		}
	}
	return fig
}
