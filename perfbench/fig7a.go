package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hbh/internal/experiment"
	"hbh/internal/metrics"
)

// fig7aRuns is the run count per point of every Figure 7a regeneration.
const fig7aRuns = 5

// fig7aSetups is how many set-ups the run times for setup_s.
const fig7aSetups = 11

// fig7aSeeds is how many figure seeds have a pinned table; the
// benchmark seed picks one of them.
const fig7aSeeds = 8

func fig7aSeed(seed int64) int64 {
	s := seed % fig7aSeeds
	if s < 0 {
		s += fig7aSeeds
	}
	return 1 + s
}

func fig7aGolden(root string, figSeed int64) string {
	return filepath.Join(root, "perfbench", "testdata",
		fmt.Sprintf("fig7a_runs%d_seed%d.txt", fig7aRuns, figSeed))
}

// fig7aSetup builds what the figure needs before its first Run: the
// pinned table, and every grid point's cost-randomised topology and
// routing. Figure7a rebuilds the scenarios itself, one per grid point.
func fig7aSetup(root string, figSeed int64) (string, error) {
	want, err := os.ReadFile(fig7aGolden(root, figSeed))
	if err != nil {
		return "", err
	}
	for si, size := range experiment.ISPSizes() {
		for run := 0; run < fig7aRuns; run++ {
			experiment.PrepareScenario(fig7aScenario(figSeed, si, size, run))
		}
	}
	// hbhsim prints a blank line after each table.
	return strings.TrimSuffix(string(want), "\n"), nil
}

// fig7aScenario is the scenario of one grid point, seeded as SweepBoth
// seeds it.
func fig7aScenario(figSeed int64, si, size, run int) experiment.RunConfig {
	return experiment.RunConfig{
		Topo: experiment.TopoISP, Receivers: size,
		Seed: figSeed + int64(si)*1_000_003 + int64(run)*7919,
	}
}

// fig7aDeliveries is the number of probe deliveries one regeneration
// makes: every receiver of every run of every protocol gets one probe.
// A run with a missing delivery is counted as missing one.
func fig7aDeliveries() int {
	n := 0
	for _, s := range experiment.ISPSizes() {
		n += s
	}
	return n * fig7aRuns * len(experiment.AllPaperProtocols())
}

// fig7aCopies sums the data-packet link traversals of the probes behind
// a figure: each point's mean tree cost times its run count.
func fig7aCopies(f *experiment.Figure) int {
	var sum float64
	for _, s := range f.Series {
		for _, acc := range s.Y {
			sum += acc.Mean() * float64(acc.N())
		}
	}
	return int(sum + 0.5)
}

func runFig7a(o opts, res *result) error {
	experiment.DefaultWorkers = 1
	figSeed := fig7aSeed(o.seed)
	var want string
	var setups []float64
	for i := 0; i < fig7aSetups; i++ {
		t0 := time.Now()
		w, err := fig7aSetup(o.root, figSeed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		want = w
	}
	res.setup = median(setups)

	if !o.trace {
		m := fig7aLoop(o.seconds, figSeed, want, res)
		res.e2e(m)
		res.notes = append(res.notes, fmt.Sprintf("fig7a_s %.6g s (median of %d regenerations)",
			quantile(m.opMs, 0.5)/1e3, m.ops))
		return nil
	}
	half := o.seconds / 2
	plain := fig7aLoop(half, figSeed, want, res)
	res.e2e(plain)
	tr := newTracer()
	traced := fig7aTracedLoop(half, figSeed, want, res, tr)
	aggs, _ := tr.totals()
	l := res.layers
	l["trace.overhead_frac"] = plain.opsPerSec/traced.opsPerSec - 1
	l["go.gc_cpu_frac"] = plain.gcFrac
	l["unicast.lookup_ns"] = meanNs(aggs, kReachable, kNextHop)
	l["unicast.dijkstra_ms"] = float64(aggs[kPrepare].total) / float64(max(aggs[kPrepare].n, 1)) / 1e6
	for p, k := range runKinds {
		l["experiment.run_ms."+string(p)] = float64(aggs[k].total) / float64(max(aggs[k].n, 1)) / 1e6
	}
	res.absent("eventsim, netsim, core and clock", "experiment.Run builds its own simulator, network and engines; Scenario.Routing is its only outside hook")
	res.absent("unicast.lookups_per_hop and go.allocs_per_hop", "hops are not visible from outside experiment.Run")
	res.absent("unicast.lazy_hit_frac", "Figure 7a routes over eager tables")
	res.absent("live and obs", "fig7a runs no live runtime and no observer")
	res.tr = tr
	return nil
}

// loopOut is what one timed phase measured.
type loopOut struct {
	ops        int
	opsPerSec  float64
	copies     int
	hops       int
	deliveries int
	expected   int
	wall       time.Duration
	opMs       []float64
	usage
}

// measure brackets a timed phase with CPU and runtime counters.
func measure(fn func() loopOut) loopOut {
	m, t0 := markUsage(), time.Now()
	out := fn()
	out.wall = time.Since(t0)
	out.usage = m.since()
	out.opsPerSec = float64(out.ops) / out.wall.Seconds()
	return out
}

// fig7aLoop regenerates Figure 7a through experiment.Figure7a until the
// time is up, checking every table against the pinned one.
func fig7aLoop(seconds float64, figSeed int64, want string, res *result) loopOut {
	return measure(func() loopOut {
		var out loopOut
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for out.ops == 0 || time.Now().Before(deadline) {
			t0 := time.Now()
			f := experiment.Figure7a(fig7aRuns, figSeed)
			out.opMs = append(out.opMs, float64(time.Since(t0))/1e6)
			out.ops++
			out.copies += fig7aCopies(f)
			out.expected += fig7aDeliveries()
			out.deliveries += fig7aDeliveries() - f.BadRuns
			res.attempted++
			if got := f.FormatTable(); got != want {
				res.fail("fig7a: table differs from the pinned table:\n%s", got)
			}
		}
		return out
	})
}

// fig7aTracedLoop composes the same figure from PrepareScenario and Run
// with a traced Scenario.Routing, in Figure7a's serial order, and
// checks that it renders the identical table.
func fig7aTracedLoop(seconds float64, figSeed int64, want string, res *result, tr *tracer) loopOut {
	c := tr.newCtx("fig7a")
	tr.on.Store(true)
	defer tr.on.Store(false)
	return measure(func() loopOut {
		var out loopOut
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for out.ops == 0 || time.Now().Before(deadline) {
			c.op = uint64(out.ops)
			c.begin(kOp)
			f := composeFig7a(figSeed, c)
			c.end()
			out.ops++
			out.copies += fig7aCopies(f)
			out.expected += fig7aDeliveries()
			out.deliveries += fig7aDeliveries() - f.BadRuns
			res.attempted++
			if got := f.FormatTable(); got != want {
				res.fail("fig7a traced: composed table differs from the pinned table:\n%s", got)
			}
		}
		return out
	})
}

// runKinds names the span of each protocol's Run.
var runKinds = map[experiment.Protocol]spanKind{
	experiment.HBH: kRunHBH, experiment.REUNITE: kRunREUNITE,
	experiment.PIMSM: kRunPIMSM, experiment.PIMSS: kRunPIMSS,
}

func composeFig7a(figSeed int64, c *tctx) *experiment.Figure {
	sizes, protos := experiment.ISPSizes(), experiment.AllPaperProtocols()
	f := &experiment.Figure{
		ID: "7a", Title: "Tree cost, ISP topology",
		XLabel: "Number of receivers", YLabel: string(experiment.MetricCost), Runs: fig7aRuns,
	}
	for _, p := range protos {
		f.Series = append(f.Series, metrics.NewSeries(string(p), sizes))
	}
	for si, size := range sizes {
		for run := 0; run < fig7aRuns; run++ {
			base := fig7aScenario(figSeed, si, size, run)
			c.begin(kPrepare)
			sc := experiment.PrepareScenario(base)
			c.end()
			sc.Routing = &tracedRouter{Router: sc.Routing, bound: c}
			for pi, p := range protos {
				rc := base
				rc.Protocol = p
				rc.Scenario = sc
				c.begin(runKinds[p])
				r := experiment.Run(rc)
				c.end()
				if r.Missing > 0 {
					f.BadRuns++
				}
				f.Series[pi].At(size).Add(float64(r.Cost))
			}
		}
	}
	return f
}

func meanNs(aggs [numKinds]agg, kinds ...spanKind) float64 {
	var n, t int64
	for _, k := range kinds {
		n += aggs[k].n
		t += aggs[k].self
	}
	if n == 0 {
		return 0
	}
	return float64(t) / float64(n)
}
