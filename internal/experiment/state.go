package experiment

import (
	"math/rand"

	"hbh/internal/metrics"
	"hbh/internal/topology"
)

// ForwardingState runs the A4 extension experiment: the forwarding
// state footprint of the recursive-unicast protocols versus classical
// IP multicast, as a function of group size.
//
// REUNITE's founding observation (quoted in §2.1 of the HBH paper) is
// that most routers of a multicast tree are non-branching, yet every
// classical multicast protocol keeps per-group forwarding state in all
// of them. The recursive-unicast protocols keep data-plane state (MFT
// rows) only at branching nodes; non-branching routers have at most a
// control-plane MCT entry. This experiment counts, at convergence:
//
//   - <proto>-MFT: total data-plane entries across all routers + source
//   - <proto>-MCT: routers holding only control-plane state
//   - IP-multicast: routers on the PIM-SS tree, each of which would
//     hold one forwarding entry in classical IP multicast
func ForwardingState(runs int, seed int64) *Figure {
	sizes := RandomSizes()
	fig := &Figure{
		ID:     "A4",
		Title:  "Forwarding state vs group size (50-node random topology)",
		XLabel: "Number of receivers",
		YLabel: "table entries / routers with state",
		Runs:   runs,
	}
	names := []string{
		"HBH-branch-rtrs", "HBH-entries",
		"REU-branch-rtrs", "REU-entries",
		"IP-mcast-rtrs",
	}
	for _, n := range names {
		fig.Series = append(fig.Series, metrics.NewSeries(n, sizes))
	}
	at := func(name string, size int) *metrics.Accumulator {
		return fig.SeriesByName(name).At(size)
	}

	for si, size := range sizes {
		for run := 0; run < runs; run++ {
			s := seed + int64(si)*1_000_003 + int64(run)*7919
			sp := runSpec(RunConfig{Topo: TopoRandom50, Receivers: size, Seed: s})

			// Each dynamic protocol runs on its own network instance
			// over identical costs and members.
			for _, p := range []Protocol{HBH, REUNITE} {
				sp.Protocol, sp.rng = p, rand.New(rand.NewSource(s))
				sess := newSession(sp)
				sess.converge(defaultConvergeIntervals)
				fp := sess.footprint()
				key := "HBH"
				if p == REUNITE {
					key = "REU"
				}
				at(key+"-branch-rtrs", size).Add(float64(fp.MFTRouters))
				at(key+"-entries", size).Add(float64(fp.MFTEntries))
			}

			// Classical IP multicast reference: every router on the
			// source tree holds group forwarding state.
			seen := map[topology.NodeID]bool{}
			for _, m := range sp.hosts {
				p := sp.routing.Path(m, sp.src) // reverse SPT branch
				for _, v := range p {
					if sp.g.Node(v).Kind == topology.Router {
						seen[v] = true
					}
				}
			}
			at("IP-mcast-rtrs", size).Add(float64(len(seen)))
		}
	}
	return fig
}
