package experiment

import (
	"fmt"
	"strings"

	"hbh/internal/faults"
	"hbh/internal/metrics"
	"hbh/internal/obs"
)

// ConvergenceConfig parameterises the A11 convergence profile: how long
// each protocol takes to reach a quiescent tree after the receivers
// join (and, for the soft-state protocols, after a tree-branch link
// cut), and what the cascade costs in control messages, link crossings
// and wire bytes. Convergence is measured, not assumed: the detector
// declares a channel quiescent once no control message is in flight and
// no table has mutated for convergeSettleIntervals refresh intervals.
type ConvergenceConfig struct {
	Receivers int
	Runs      int
	Seed      int64
}

// convergenceCell is one row of the profile: a (topology, cost model,
// protocol) combination aggregated over the runs.
type convergenceCell struct {
	Topo Topo
	// Asym selects the paper's fully independent per-direction cost
	// draw; false keeps the two directions of every link equal.
	Asym     bool
	Protocol Protocol
	// JoinTime is the measured join-phase convergence time: the virtual
	// time of the last structural table mutation before the channel
	// first went quiescent. CtrlMsgs/CtrlHops/CtrlBytes are the
	// control-plane cost accumulated by then.
	JoinTime  *metrics.Accumulator
	CtrlMsgs  *metrics.Accumulator
	CtrlHops  *metrics.Accumulator
	CtrlBytes *metrics.Accumulator
	// ReconvTime is the fault phase: time from a tree-branch link cut
	// (chosen so the graph stays connected) to re-quiescence. Healed is
	// the fraction of runs that re-quiesced inside the hard cap. The
	// centrally built PIM baseline has no repair cascade to measure, so
	// both stay empty.
	ReconvTime *metrics.Accumulator
	Healed     *metrics.Accumulator
	// Capped counts runs whose join phase exhausted the hard cap
	// (defaultConvergeIntervals) without quiescing.
	Capped int
}

// ConvergenceResult is the full A11 profile.
type ConvergenceResult struct {
	Cfg   ConvergenceConfig
	Cells []*convergenceCell
}

// convergenceProtocols are the profiled protocols: the two soft-state
// cascades plus the centrally built PIM-SM baseline.
func convergenceProtocols() []Protocol { return []Protocol{HBH, REUNITE, PIMSM} }

// ConvergenceExperiment runs the A11 convergence profile over the ISP
// and 50-node random topologies under symmetric and asymmetric costs.
func ConvergenceExperiment(cfg ConvergenceConfig) *ConvergenceResult {
	if cfg.Receivers < 1 {
		panic("experiment: convergence profile needs at least one receiver")
	}
	res := &ConvergenceResult{Cfg: cfg}
	for _, topo := range []Topo{TopoISP, TopoRandom50} {
		for _, asym := range []bool{false, true} {
			for _, proto := range convergenceProtocols() {
				cell := &convergenceCell{
					Topo: topo, Asym: asym, Protocol: proto,
					JoinTime:   &metrics.Accumulator{},
					CtrlMsgs:   &metrics.Accumulator{},
					CtrlHops:   &metrics.Accumulator{},
					CtrlBytes:  &metrics.Accumulator{},
					ReconvTime: &metrics.Accumulator{},
					Healed:     &metrics.Accumulator{},
				}
				for run := 0; run < cfg.Runs; run++ {
					convergenceRun(cfg, cell, cfg.Seed+int64(run)*6101)
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// convergenceRun executes one profiled run and folds it into the cell.
// The cost model is Run()'s: the paper's independent per-direction
// draw for the asymmetric rows, a zero asymmetry spread (equal
// directions) for the symmetric ones.
func convergenceRun(cfg ConvergenceConfig, cell *convergenceCell, seed int64) {
	o := obs.New(nil) // the network binds its own clock
	tr := o.EnableConvergence()
	sp := runSpec(RunConfig{
		Topo: cell.Topo, Protocol: cell.Protocol,
		Receivers: cfg.Receivers, Seed: seed, Obs: o,
		// Symmetric rows keep the two directions of every link equal.
		UseAsymSpread: !cell.Asym,
	})
	s := newSession(sp)
	// A PIM tree is installed centrally before the clock moves: the
	// detector confirms quiescence after the settle window, and the join
	// phase reports the install time (zero) at zero control cost — the
	// baseline the soft-state cascades are compared to.
	joinAt, _, converged := s.convergeMeasured(tr, defaultConvergeIntervals)
	cc := tr.Channel(s.id)
	cell.JoinTime.Add(float64(joinAt))
	cell.CtrlMsgs.Add(float64(cc.CtrlSends))
	cell.CtrlHops.Add(float64(cc.CtrlHops))
	cell.CtrlBytes.Add(float64(cc.CtrlBytes))
	if !converged {
		cell.Capped++
	}
	if s.rcvs == nil {
		return
	}

	// Fault phase: cut a link the converged tree is actually using
	// (preferring one whose loss keeps the graph connected, so the
	// cascade CAN heal around it) and measure to re-quiescence.
	pre := s.ProbeSettled()
	cut := pickCutLink(sp.g, pre, sp.src, sp.hosts)
	tCut := s.sim.Now() + 10
	plan := faults.NewPlan().LinkDown(tCut, cut[0], cut[1])
	faults.NewInjector(s.net, plan).Schedule()
	reconvAt, _, healed := s.convergeMeasured(tr, defaultConvergeIntervals)
	cell.Healed.Add(b2f(healed))
	if healed {
		// A cut that missed every live branch (the soft state already
		// rerouted during the probe retries) mutates nothing; report
		// zero repair time rather than the stale join timestamp.
		d := float64(reconvAt) - float64(tCut)
		if d < 0 {
			d = 0
		}
		cell.ReconvTime.Add(d)
	}
}

// FormatTable renders the convergence profile.
func (r *ConvergenceResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A11 convergence profile: %d receivers, %d runs per row, seed %d\n",
		r.Cfg.Receivers, r.Cfg.Runs, r.Cfg.Seed)
	b.WriteString("join: measured time to a quiescent tree after the receivers join, and the\n")
	b.WriteString("control cost (originations, link crossings, wire bytes) accumulated by then.\n")
	b.WriteString("reconv: time from a tree-branch link cut to re-quiescence (soft-state healing;\n")
	b.WriteString("the centrally built PIM baseline has no repair cascade, shown as -). All times\n")
	fmt.Fprintf(&b, "in simulation units; quiescent = no control in flight, no table mutation for %d intervals.\n\n",
		convergeSettleIntervals)
	fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7s\n",
		"topo", "costs", "protocol", "join-time", "ctrl-msgs", "ctrl-hops", "ctrl-bytes",
		"reconv", "healed", "capped")
	mean := func(a *metrics.Accumulator) string {
		if a.N() == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", a.Mean())
	}
	for _, c := range r.Cells {
		costs := "sym"
		if c.Asym {
			costs = "asym"
		}
		fmt.Fprintf(&b, "%-9s %-5s %-9s %10s %10s %10s %11s %10s %7s %7d\n",
			c.Topo, costs, c.Protocol,
			mean(c.JoinTime), mean(c.CtrlMsgs), mean(c.CtrlHops), mean(c.CtrlBytes),
			mean(c.ReconvTime), mean(c.Healed), c.Capped)
	}
	return b.String()
}
