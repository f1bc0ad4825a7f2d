package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/topology"
	"hbh/internal/unicast"
	"hbh/internal/workload"
)

// The mc-data workload: converged HBH channels over one shared
// Barabási–Albert substrate and one unicast.Lazy router. Each operation
// is one channel-interval: the channel's source originates a burst of
// data packets and the channel's simulator runs one refresh interval,
// so data copies, not soft-state refresh, dominate the transmissions.
const (
	mcRouters        = 48
	mcHostsPerRouter = 4
	mcChannels       = 16
	mcBurst          = 32
	mcConverge       = 40 // refresh intervals before the timed phase, as in experiment.Run
	// mcDataShareFloor is the least share of link traversals that must
	// be data packets for the workload to measure the data plane.
	mcDataShareFloor = 0.8
	mcSetups         = 5
)

type mcSession struct {
	sim      *eventsim.Sim
	net      *netsim.Network
	src      *core.Source
	rcvs     []*core.Receiver
	interval eventsim.Time
}

type mcWorld struct {
	lazy     *unicast.Lazy
	sessions []*mcSession
}

// mcTrace is the traced variant's plumbing: one context (the simulator
// is single-threaded) and the forwarding-plane lookup counter.
type mcTrace struct {
	c   *tctx
	fwd atomic.Int64
}

// mcSubstrateSeed fixes the substrate, so that every benchmark seed
// measures the same graph; the seed varies the channels' members.
const mcSubstrateSeed = 9

func buildMC(seed int64, t *mcTrace) (*mcWorld, error) {
	rng := rand.New(rand.NewSource(mcSubstrateSeed))
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: mcRouters, M: 2}, rng)
	var hosts []topology.NodeID
	for _, r := range g.Routers() {
		for k := 0; k < mcHostsPerRouter; k++ {
			idx := len(hosts)
			h := g.AddNode(topology.Host, addr.ReceiverAddr(idx), fmt.Sprintf("h%d", idx))
			g.AddLink(h, r, 1, 1)
			hosts = append(hosts, h)
		}
	}
	g.RandomizeCosts(rng, 1, 10)
	g.Freeze()
	w := &mcWorld{lazy: unicast.NewLazy(g, unicast.LazyOptions{MaxSources: 128})}
	var router unicast.Router = w.lazy
	if t != nil {
		router = &tracedRouter{Router: w.lazy, fwd: &t.fwd,
			ctxOf: func(topology.NodeID) *tctx { return t.c }}
	}

	wl := workload.Generate(workload.Config{
		Channels: mcChannels, ZipfS: 1, MinReceivers: 2, MaxReceivers: 24, Seed: seed,
	})
	pcfg := core.DefaultConfig()
	for _, ch := range wl {
		crng := rand.New(rand.NewSource(seed ^ int64(ch.Index+1)*0x27d4eb2f165667c5))
		perm := crng.Perm(len(hosts))
		sim := eventsim.New()
		net := netsim.New(sim, g, router)
		node := func(id topology.NodeID) netsim.ProtoNode {
			if t == nil {
				return net.Node(id)
			}
			return wrapNode(net.Node(id), t.c, w.lazy)
		}
		for _, r := range g.Routers() {
			core.AttachRouter(node(r), pcfg)
		}
		s := &mcSession{sim: sim, net: net, interval: pcfg.TreeInterval}
		s.src = core.AttachSource(node(hosts[perm[0]]), addr.GroupAddr(ch.Index), pcfg)
		for m := 0; m < ch.Receivers; m++ {
			rcv := core.AttachReceiver(node(hosts[perm[m+1]]), s.src.Channel(), pcfg)
			sim.At(eventsim.Time(crng.Float64())*pcfg.JoinInterval, rcv.Join)
			s.rcvs = append(s.rcvs, rcv)
		}
		if err := sim.Run(sim.Now() + mcConverge*s.interval); err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, s)
	}
	// One probe per channel proves every tree complete before timing.
	for _, s := range w.sessions {
		seq := s.src.SendData(nil)
		if err := s.sim.Run(s.sim.Now() + s.interval); err != nil {
			return nil, err
		}
		for _, r := range s.rcvs {
			if r.DeliveryCount(seq) != 1 {
				return nil, fmt.Errorf("channel %v: member %v got %d copies of the set-up probe",
					s.src.Channel(), r.Addr(), r.DeliveryCount(seq))
			}
			r.ResetDeliveries()
		}
	}
	return w, nil
}

// mcCounts are the counters a timed phase reads from its networks.
type mcCounts struct {
	fired             uint64
	trans, dataCopies int
}

func (w *mcWorld) counts() mcCounts {
	var c mcCounts
	for _, s := range w.sessions {
		st := s.net.Stats()
		c.fired += s.sim.Fired()
		c.trans += st.Transmissions
		c.dataCopies += st.DataCopies
	}
	return c
}

// mcLoop runs channel-intervals round-robin until the time is up and
// checks that every member got every burst packet exactly once.
// perChannel accumulates deliveries per channel, for comparing runs.
func mcLoop(w *mcWorld, seconds float64, res *result, t *mcTrace, perChannel []int) (loopOut, mcCounts) {
	c0 := w.counts()
	out := measure(func() loopOut {
		var out loopOut
		got := make([]int, mcBurst)
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for out.ops == 0 || time.Now().Before(deadline) {
			ci := out.ops % len(w.sessions)
			s := w.sessions[ci]
			if t != nil {
				t.c.op = uint64(out.ops)
				t.c.pending = s.sim.Pending
				t.c.begin(kOp)
			}
			t0 := time.Now()
			first := s.src.SendData(nil)
			for b := 1; b < mcBurst; b++ {
				s.src.SendData(nil)
			}
			if t != nil {
				t.c.begin(kSimRun)
			}
			err := s.sim.Run(s.sim.Now() + s.interval)
			if t != nil {
				t.c.end()
				t.c.end()
			}
			out.opMs = append(out.opMs, float64(time.Since(t0))/1e6)
			out.ops++
			if err != nil {
				res.attempted++
				res.fail("mc-data: channel %d: %v", ci, err)
				continue
			}
			for _, r := range s.rcvs {
				clear(got)
				for _, d := range r.Deliveries {
					if k := d.Seq - first; k < mcBurst {
						got[k]++
					}
				}
				for k, n := range got {
					res.attempted++
					out.expected++
					if n > 0 {
						out.deliveries++
					}
					perChannel[ci] += n
					if n != 1 {
						res.fail("mc-data: channel-interval %d (channel %d): member %v got %d copies of packet %d",
							out.ops-1, ci, r.Addr(), n, first+uint32(k))
					}
				}
				r.ResetDeliveries()
			}
		}
		return out
	})
	c1 := w.counts()
	d := mcCounts{fired: c1.fired - c0.fired, trans: c1.trans - c0.trans, dataCopies: c1.dataCopies - c0.dataCopies}
	out.copies = d.dataCopies
	out.hops = d.trans
	res.attempted++
	if share := float64(d.dataCopies) / float64(max(d.trans, 1)); share < mcDataShareFloor {
		res.fail("mc-data: data share %.3f is below the floor %.2f", share, mcDataShareFloor)
	}
	return out, d
}

func runMCData(o opts, res *result) error {
	var w *mcWorld
	var setups []float64
	for i := 0; i < mcSetups; i++ {
		t0 := time.Now()
		var err error
		if w, err = buildMC(o.seed, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setup = median(setups)
	plainDeliv := make([]int, mcChannels)
	if !o.trace {
		m, d := mcLoop(w, o.seconds, res, nil, plainDeliv)
		res.e2e(m)
		res.notes = append(res.notes,
			fmt.Sprintf("sim_data_pkts_per_s %.6g 1/s (data share %.3f of %d transmissions)",
				float64(d.dataCopies)/m.wall.Seconds(),
				float64(d.dataCopies)/float64(max(d.trans, 1)), d.trans))
		return nil
	}

	half := o.seconds / 2
	plain, _ := mcLoop(w, half, res, nil, plainDeliv)
	res.e2e(plain)
	tr := newTracer()
	t := &mcTrace{c: tr.newCtx("mc-data")}
	tw, err := buildMC(o.seed, t)
	if err != nil {
		return err
	}
	l0 := tw.lazy.Stats()
	tr.on.Store(true)
	f0 := t.fwd.Load()
	tracedDeliv := make([]int, mcChannels)
	traced, d := mcLoop(tw, half, res, t, tracedDeliv)
	lookups := t.fwd.Load() - f0
	tr.on.Store(false)
	l1 := tw.lazy.Stats()
	// Tracing only observes: per channel, the deliveries per
	// channel-interval must match the untraced phase's.
	for ci := range plainDeliv {
		pOps, tOps := opsOf(plain.ops, ci), opsOf(traced.ops, ci)
		res.attempted++
		if pOps > 0 && tOps > 0 && plainDeliv[ci]/pOps != tracedDeliv[ci]/tOps {
			res.fail("mc-data: channel %d delivers %d per interval traced, %d untraced",
				ci, tracedDeliv[ci]/tOps, plainDeliv[ci]/pOps)
		}
	}

	aggs, pend := tr.totals()
	l := res.layers
	ops := float64(traced.ops)
	hops := float64(max(d.trans, 1))
	l["trace.overhead_frac"] = plain.opsPerSec/traced.opsPerSec - 1
	l["go.allocs_per_hop"] = plain.allocs / float64(max(plain.hops, 1))
	l["go.gc_cpu_frac"] = plain.gcFrac
	l["eventsim.events_per_op"] = float64(d.fired) / ops
	l["eventsim.pending_mean"] = pend
	l["eventsim.run_self_frac"] = float64(aggs[kSimRun].self) / float64(traced.wall)
	l["unicast.lookups_per_hop"] = float64(lookups) / hops
	l["unicast.lookup_ns"] = meanNs(aggs, kReachable, kNextHop)
	if q := l1.Hits + l1.Misses - l0.Hits - l0.Misses; q > 0 {
		l["unicast.lazy_hit_frac"] = float64(l1.Hits-l0.Hits) / float64(q)
	}
	l["netsim.data_share"] = float64(d.dataCopies) / hops
	l["netsim.hops_per_op"] = hops / ops
	coreLayers(l, aggs, ops)
	res.absent("unicast.dijkstra_ms", "unicast.Lazy runs its Dijkstra inside a lookup; its cost shows in unicast.lookup_ns")
	res.absent("experiment", "mc-data composes sessions itself and never calls experiment.Run")
	res.absent("live and obs", "mc-data runs no live runtime and no observer")
	res.tr = tr
	return nil
}

func opsOf(total, ci int) int {
	n := total / mcChannels
	if ci < total%mcChannels {
		n++
	}
	return n
}

// coreLayers fills the engine and clock layer metrics from span
// aggregates.
func coreLayers(l map[string]float64, aggs [numKinds]agg, ops float64) {
	for k, name := range map[spanKind]string{
		kHandleJoin: "join", kHandleTree: "tree", kHandleFusion: "fusion", kHandleData: "data",
	} {
		l["core.handled."+name] = float64(aggs[k].n) / ops
		l["core.handle_ns."+name] = meanNs(aggs, k)
	}
	l["clock.arms_per_op"] = float64(aggs[kAfter].n) / ops
	l["clock.after_ns"] = meanNs(aggs, kAfter)
}
