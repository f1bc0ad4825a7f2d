// Package experiment is the evaluation harness: it reproduces every
// figure of the paper's §4 (tree cost and receiver delay for HBH,
// REUNITE, PIM-SM and PIM-SS over the ISP and 50-node random
// topologies), the §3/Figure 4 departure-stability comparison, and the
// ablation/extension studies listed in DESIGN.md.
//
// The methodology follows the paper: one multicast channel, the source
// fixed at node 18's host (router 0), a variable number of receivers
// drawn uniformly from the potential-receiver hosts, every directed
// link cost redrawn uniformly from [1,10] per run, and 500 runs
// averaged per data point.
package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"hbh/internal/mtree"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Protocol identifies one protocol under test.
type Protocol string

// The protocols of the paper's evaluation, plus the fusion ablation.
const (
	HBH         Protocol = "HBH"
	HBHNoFusion Protocol = "HBH-nofusion"
	REUNITE     Protocol = "REUNITE"
	PIMSM       Protocol = "PIM-SM"
	PIMSS       Protocol = "PIM-SS"
)

// AllPaperProtocols lists the four curves of Figures 7 and 8 in the
// paper's legend order.
func AllPaperProtocols() []Protocol {
	return []Protocol{PIMSM, PIMSS, REUNITE, HBH}
}

// Topo selects the evaluation topology.
type Topo string

const (
	// TopoISP is the 18-router ISP topology of Figure 6.
	TopoISP Topo = "isp"
	// TopoRandom50 is the 50-node random topology (connectivity 8.6).
	TopoRandom50 Topo = "random50"
	// TopoNSFNET is the classic 14-router NSFNET T1 backbone, an extra
	// substrate for checking that the paper's orderings are not
	// topology artefacts.
	TopoNSFNET Topo = "nsfnet"
	// TopoAbilene is the 11-router Abilene/Internet2 backbone.
	TopoAbilene Topo = "abilene"
	// TopoWaxman40 is a 40-router Waxman random graph (distance-weighted
	// edge probability), fixed structure like random50 with costs redrawn
	// per run. Bounded-n stand-in for the Internet-scale substrates the
	// A13 sweep generates on the fly.
	TopoWaxman40 Topo = "waxman40"
	// TopoBA48 is a 48-router Barabási–Albert preferential-attachment
	// graph (power-law degrees, m=2): hub-and-spoke structure at a size
	// every protocol and the fuzzer can still run exhaustively.
	TopoBA48 Topo = "ba48"
	// TopoTransitStub44 is a two-tier transit-stub hierarchy: a 4-router
	// transit core with 8 stub domains of 5 routers each (44 routers).
	TopoTransitStub44 Topo = "transitstub44"
)

// randomTopoSeed fixes the 50-node topology's structure: the paper
// evaluates one random topology with costs redrawn per run, not a new
// graph per run.
const randomTopoSeed = 424242

var (
	baseMu     sync.Mutex
	baseGraphs = map[Topo]*topology.Graph{}
)

// BaseGraph returns the shared, cost-uninitialised base topology. The
// returned graph is frozen: callers must Clone before mutating costs,
// and a missed Clone panics instead of silently corrupting every later
// run sharing the base.
func BaseGraph(t Topo) *topology.Graph {
	baseMu.Lock()
	defer baseMu.Unlock()
	if g, ok := baseGraphs[t]; ok {
		return g
	}
	var g *topology.Graph
	switch t {
	case TopoISP:
		g = topology.ISP()
	case TopoRandom50:
		g = topology.Random(topology.Paper50(), rand.New(rand.NewSource(randomTopoSeed)))
	case TopoNSFNET:
		g = topology.NSFNET()
	case TopoAbilene:
		g = topology.Abilene()
	case TopoWaxman40:
		g = topology.Waxman(topology.WaxmanConfig{Routers: 40, Alpha: 0.2, Beta: 0.25, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoBA48:
		g = topology.BarabasiAlbert(topology.BAConfig{Routers: 48, M: 2, Hosts: true},
			rand.New(rand.NewSource(randomTopoSeed)))
	case TopoTransitStub44:
		g = topology.TransitStub(topology.TransitStubConfig{
			Transits: 4, TransitDegree: 3, Stubs: 8, StubRouters: 5,
			StubDegree: 2.5, ExtraStubLinks: 3, Hosts: true,
		}, rand.New(rand.NewSource(randomTopoSeed)))
	default:
		panic(fmt.Sprintf("experiment: unknown topology %q", t))
	}
	g.Freeze()
	baseGraphs[t] = g
	return g
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Topo selects the base topology.
	Topo Topo
	// Protocol selects the protocol under test.
	Protocol Protocol
	// Receivers is the group size (receivers drawn at random among the
	// potential-receiver hosts, excluding the source's).
	Receivers int
	// Seed drives cost assignment, receiver choice and join timing.
	Seed int64
	// CostLo/CostHi bound the uniform per-direction link costs;
	// zero values default to the paper's [1, 10].
	CostLo, CostHi int
	// AsymSpread, when >= 0, switches cost assignment to symmetric
	// base costs skewed per direction by up to AsymSpread (the A3
	// asymmetry sweep). -1 (default via zero value handling below)
	// uses the paper's fully independent per-direction draw.
	AsymSpread int
	// UseAsymSpread enables AsymSpread (so the zero value of RunConfig
	// keeps the paper's model).
	UseAsymSpread bool
	// MulticastFraction, when in (0,1], limits the fraction of routers
	// that run the multicast protocol (the A2 unicast-clouds
	// extension); 0 means all routers are capable, as in the paper's
	// experiments. Only meaningful for HBH and REUNITE.
	MulticastFraction float64
	// ConvergeIntervals overrides the soft-state settling time in
	// units of the refresh interval (default 40).
	ConvergeIntervals int
	// Check enables the runtime invariant checker for this run (see
	// CheckInvariants for the sweep-wide switch).
	Check bool
	// TimerSkew, when > 0, scales each receiver's JoinInterval by a
	// deterministic per-receiver factor in [1-TimerSkew, 1+TimerSkew]
	// (see skewFactor), modelling the unsynchronized refresh clocks of
	// a live deployment. No RNG draws are consumed whether on or off,
	// so enabling the knob never perturbs the other seeded draws. The
	// scaled interval must stay below T1 for the config to validate;
	// the genome bounds the skew at 30%, far under that ceiling.
	TimerSkew float64
	// Obs, when non-nil, attaches the observability pipeline to the
	// run's network: trace sinks, counters and the flight recorder all
	// hang off it. When it carries a recorder and the run is checked,
	// invariant violations are reported with the offending node's
	// flight-recorder dump. nil (the default, and the only value the
	// figure sweeps use) keeps the hot path allocation-free and the
	// committed results bit-identical.
	Obs *obs.Observer
	// Scenario, when non-nil, supplies the prebuilt cost-randomized
	// graph and routing tables for this run (see PrepareScenario). All
	// protocols simulated at one (size, run) grid point share the same
	// seed-derived costs, so the sweeps build the graph and run the
	// all-pairs Dijkstra once per scenario instead of once per
	// protocol. The run still consumes the rng draws cost assignment
	// would have, so its results are bit-identical to the uncached
	// path. The scenario must have been prepared from a RunConfig with
	// identical Topo, Seed and cost fields.
	Scenario *Scenario
}

// Scenario is the seed-derived simulation substrate shared by every
// protocol at one sweep grid point: the cost-randomized topology and
// the unicast routing tables computed over it. Protocol runs treat
// both as read-only.
type Scenario struct {
	Graph   *topology.Graph
	Routing unicast.Router
}

// PrepareScenario builds the scenario a RunConfig describes: clone the
// base topology, randomize costs from the seed, compute routing. The
// protocol-specific fields of cfg are ignored.
func PrepareScenario(cfg RunConfig) *Scenario {
	lo, hi := cfg.CostLo, cfg.CostHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := BaseGraph(cfg.Topo).Clone()
	if cfg.UseAsymSpread {
		g.PerturbCosts(rng, lo, hi, cfg.AsymSpread)
	} else {
		g.RandomizeCosts(rng, lo, hi)
	}
	return &Scenario{Graph: g, Routing: unicast.New(g)}
}

// SameScenario reports whether two run configs describe the same
// scenario (identical topology, seed and cost model), i.e. whether a
// Scenario prepared for one can be reused for the other.
func SameScenario(a, b RunConfig) bool {
	return a.Topo == b.Topo && a.Seed == b.Seed &&
		a.CostLo == b.CostLo && a.CostHi == b.CostHi &&
		a.UseAsymSpread == b.UseAsymSpread &&
		(!a.UseAsymSpread || a.AsymSpread == b.AsymSpread)
}

// RunResult is one run's measurement.
type RunResult struct {
	// Cost is the tree cost: packet copies over links for one data
	// packet (Figure 7 metric).
	Cost int
	// MeanDelay is the average receiver delay (Figure 8 metric).
	MeanDelay float64
	// MaxLinkCopies is the worst per-link duplication (1 = clean).
	MaxLinkCopies int
	// Missing counts receivers that did not get the probe; Duplicates
	// counts surplus deliveries. Both are 0 on a converged tree.
	Missing, Duplicates int
}

const defaultConvergeIntervals = 40

// Run executes one simulation run and probes the converged tree.
func Run(cfg RunConfig) RunResult {
	if cfg.Receivers < 1 {
		panic("experiment: need at least one receiver")
	}
	s := newSession(runSpec(cfg))
	s.sampleFootprint(cfg.Obs, string(cfg.Protocol))
	res := s.measure(cfg.ConvergeIntervals)
	s.checkConverged(cfg, res)
	return toRunResult(res)
}

// sourceHostOf fixes the source: the host attached to router 0 (node
// 18 in the ISP figure).
func sourceHostOf(g *topology.Graph) topology.NodeID {
	for _, h := range g.Hosts() {
		if g.AttachedRouter(h) == 0 {
			return h
		}
	}
	panic("experiment: topology has no host on router 0")
}

// sampleReceivers draws n distinct receiver hosts uniformly, excluding
// the source host.
func sampleReceivers(g *topology.Graph, rng *rand.Rand, sourceHost topology.NodeID, n int) []topology.NodeID {
	var pool []topology.NodeID
	for _, h := range g.Hosts() {
		if h != sourceHost {
			pool = append(pool, h)
		}
	}
	if n > len(pool) {
		panic(fmt.Sprintf("experiment: %d receivers requested, only %d hosts", n, len(pool)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

func toRunResult(res *mtree.Result) RunResult {
	return RunResult{
		Cost:          res.Cost,
		MeanDelay:     res.MeanDelay(),
		MaxLinkCopies: res.MaxLinkCopies(),
		Missing:       len(res.Missing),
		Duplicates:    res.Duplicates,
	}
}
