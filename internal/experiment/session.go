package experiment

import (
	"fmt"
	"math/rand"
	"slices"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/igmp"
	"hbh/internal/invariant"
	"hbh/internal/metrics"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/pim"
	"hbh/internal/reunite"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// session is one channel of one protocol under test: a private
// simulator and packet network over the run's graph and routing, the
// protocol attached through its driver, the change counter and the
// optional invariant checker. Every experiment wires its protocols
// through newSession; only the driver table knows the protocols apart.
type session struct {
	channel
	sim *eventsim.Sim
	net *netsim.Network
	// interval is the refresh interval the experiments step on;
	// joinEvery is the span initial joins are jittered over; settleOut
	// is long enough for soft state to dissolve after a leave.
	interval, joinEvery, settleOut eventsim.Time
	// changes counts forwarding-state mutations (entries added/removed/
	// marked, branching transitions) across all routers and the source
	// — the Figure 4 stability metric.
	changes int
	// checker, when non-nil, validates the protocol's invariant profile
	// continuously and at converged checkpoints.
	checker *invariant.Checker
	// attach adds one more channel over the session's routers.
	attach attachFunc
	// reset wipes a crashed router's protocol state (HBH only).
	reset func(topology.NodeID)
}

// channel is one attached source and its members.
type channel struct {
	id   addr.Channel
	send func() uint32
	// members are the probe views of the member hosts, joined or not;
	// rcvs are their join/leave handles, nil for the centrally built PIM
	// trees, which have no membership protocol.
	members []mtree.Member
	rcvs    []receiver
	// audit exposes the protocol's tables to the invariant checker (nil
	// for PIM); footprint counts them.
	audit     invariant.StateProvider
	footprint func() stateFootprint
}

// attachFunc attaches one channel: a source on src for group and one
// member per host, receiver i's join period skewed by skew (see
// skewedInterval); leaf subscribes HBH members through IGMP leaf
// aggregation instead of HBH receivers.
type attachFunc func(src topology.NodeID, group addr.Addr, hosts []topology.NodeID,
	skew float64, leaf bool) channel

// receiver is a member that joins and leaves by itself.
type receiver interface {
	mtree.Member
	Join()
	Leave()
	Joined() bool
}

// stateFootprint is a snapshot of a protocol's table usage.
type stateFootprint struct {
	// MFTRouters counts routers holding a data-plane table (branching
	// nodes). The recursive-unicast pitch is that this is much smaller
	// than the tree's router count.
	MFTRouters int
	// MFTEntries is the total number of data-plane rows across all
	// routers and the source.
	MFTEntries int
	// MCTRouters counts routers holding only control-plane state.
	MCTRouters int
}

// auditFootprint counts a recursive-unicast channel's tables from its
// audit snapshot.
func auditFootprint(a invariant.StateProvider) stateFootprint {
	var fp stateFootprint
	for _, st := range a.States() {
		if st.HasMFT {
			fp.MFTEntries += len(st.Entries)
			if !st.IsRoot {
				fp.MFTRouters++
			}
		}
		if st.HasMCT {
			fp.MCTRouters++
		}
	}
	return fp
}

// driver is one protocol's entry in the session builder: only what
// differs between protocols.
type driver struct {
	profile                        invariant.Config
	interval, joinEvery, settleOut eventsim.Time
	// routers attaches the protocol's engine to every capable router of
	// s.net and returns the attacher for channels over them, wiring
	// every table mutation to s.changed.
	routers func(s *session, capable []topology.NodeID) attachFunc
}

var drivers = map[Protocol]driver{
	HBH:         hbhDriver(true),
	HBHNoFusion: hbhDriver(false),
	REUNITE:     reuniteDriver(),
	PIMSM:       pimDriver(pim.SM),
	PIMSS:       pimDriver(pim.SS),
}

func hbhDriver(fusion bool) driver {
	cfg := core.DefaultConfig()
	cfg.EnableFusion = fusion
	d := driver{profile: invariant.ProfileHBH(),
		interval: cfg.TreeInterval, joinEvery: cfg.JoinInterval, settleOut: 3 * (cfg.T1 + cfg.T2)}
	if !fusion {
		d.profile = invariant.ProfileHBHNoFusion()
	}
	d.routers = func(s *session, capable []topology.NodeID) attachFunc {
		routers := make([]*core.Router, len(capable))
		for i, r := range capable {
			routers[i] = core.AttachRouter(s.net.Node(r), cfg)
			routers[i].SetObserver(s.changed)
		}
		s.reset = func(v topology.NodeID) { routers[slices.Index(capable, v)].Reset() }
		return func(src topology.NodeID, group addr.Addr, hosts []topology.NodeID,
			skew float64, leaf bool) channel {
			so := core.AttachSource(s.net.Node(src), group, cfg)
			so.SetObserver(s.changed)
			audit := core.NewAudit(so, routers)
			c := channel{id: so.Channel(), send: func() uint32 { return so.SendData(nil) },
				audit: audit, footprint: func() stateFootprint { return auditFootprint(audit) }}
			queried := make(map[topology.NodeID]bool)
			for i, h := range hosts {
				var r receiver
				if leaf {
					// IGMP leaf aggregation: the border router's leaf agent
					// collapses any number of local members into a single
					// channel subscription.
					if at := s.net.Topology().AttachedRouter(h); !queried[at] {
						q := igmp.AttachQuerier(s.net.Node(at), igmp.DefaultConfig())
						core.AttachLeafAgent(s.net.Node(at), q, routers[slices.Index(capable, at)], cfg)
						queried[at] = true
					}
					r = igmpMember{igmp.AttachHost(s.net.Node(h), igmp.DefaultConfig()), c.id}
				} else {
					rc := cfg
					rc.JoinInterval = skewedInterval(cfg.JoinInterval, skew, i)
					r = core.AttachReceiver(s.net.Node(h), c.id, rc)
				}
				c.rcvs = append(c.rcvs, r)
				c.members = append(c.members, r)
			}
			return c
		}
	}
	return d
}

// reuniteDriver wires REUNITE; its members always attach directly (the
// IGMP leaf agent is HBH's).
func reuniteDriver() driver {
	cfg := core.DefaultTiming()
	return driver{profile: invariant.ProfileREUNITE(),
		interval: cfg.TreeInterval, joinEvery: cfg.JoinInterval, settleOut: 3 * (cfg.T1 + cfg.T2),
		routers: func(s *session, capable []topology.NodeID) attachFunc {
			routers := make([]*reunite.Router, len(capable))
			for i, r := range capable {
				routers[i] = reunite.AttachRouter(s.net.Node(r), cfg)
				routers[i].SetObserver(s.changed)
			}
			return func(src topology.NodeID, group addr.Addr, hosts []topology.NodeID,
				skew float64, _ bool) channel {
				so := reunite.AttachSource(s.net.Node(src), group, cfg)
				so.SetObserver(s.changed)
				audit := reunite.NewAudit(so, routers)
				c := channel{id: so.Channel(), send: func() uint32 { return so.SendData(nil) },
					audit: audit, footprint: func() stateFootprint { return auditFootprint(audit) }}
				for i, h := range hosts {
					rc := cfg
					rc.JoinInterval = skewedInterval(cfg.JoinInterval, skew, i)
					r := core.AttachMember(s.net.Node(h), c.id, rc, packet.ProtoREUNITE)
					c.rcvs = append(c.rcvs, r)
					c.members = append(c.members, r)
				}
				return c
			}
		}}
}

// pimDriver installs a PIM tree centrally for the given members. PIM
// has no refresh cycle; it borrows HBH's interval so the experiments'
// windows stay comparable.
func pimDriver(mode pim.Mode) driver {
	d := driver{profile: invariant.ProfilePIM(), interval: core.DefaultConfig().TreeInterval}
	if mode == pim.SM {
		// The source->RP unicast leg may legitimately share links with
		// the shared tree: a second copy there is PIM-SM's documented
		// cost, not a bug.
		d.profile.LinkUnique = false
	}
	d.routers = func(s *session, _ []topology.NodeID) attachFunc {
		return func(src topology.NodeID, group addr.Addr, hosts []topology.NodeID,
			_ float64, _ bool) channel {
			tree := pim.Build(s.net, mode, src, group, hosts, topology.None)
			c := channel{id: tree.Channel(), send: func() uint32 { return tree.SendData(nil) },
				footprint: func() stateFootprint {
					// Every on-tree router holds one classical (S,G) entry.
					n := tree.StateRouters()
					return stateFootprint{MFTRouters: n, MFTEntries: n}
				}}
			for _, h := range hosts {
				c.members = append(c.members, tree.Member(h))
			}
			return c
		}
	}
	return d
}

// igmpMember is an IGMP host agent subscribed to one channel.
type igmpMember struct {
	*igmp.Host
	ch addr.Channel
}

func (m igmpMember) Join()        { m.Host.Join(m.ch) }
func (m igmpMember) Leave()       { m.Host.Leave(m.ch) }
func (m igmpMember) Joined() bool { return m.Host.Joined(m.ch) }

// sessionSpec is what one session is built from. The embedded
// RunConfig supplies the protocol, the deployment fraction, the timer
// skew and the observer; its Topo, Seed and Receivers label checker
// reports.
type sessionSpec struct {
	RunConfig
	g       *topology.Graph
	routing unicast.Router
	src     topology.NodeID
	hosts   []topology.NodeID
	// rng draws the capable-router set and the initial join offsets.
	rng *rand.Rand
	// group indexes the channel's group address.
	group int
	// joiners limits the initial joins to hosts[:joiners]; 0 joins all.
	joiners int
	// check attaches the invariant checker; leaf selects HBH's IGMP
	// leaf aggregation.
	check, leaf bool
}

// runSpec draws one run's scenario the way the paper's runs do: the
// link costs, then the receivers. The returned spec's rng continues
// the same stream for the protocol's own draws.
func runSpec(cfg RunConfig) sessionSpec {
	lo, hi := cfg.CostLo, cfg.CostHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sp := sessionSpec{RunConfig: cfg, rng: rng, check: checkingEnabled(cfg)}
	if cfg.Scenario != nil {
		sp.g, sp.routing = cfg.Scenario.Graph, cfg.Scenario.Routing
		// The scenario already carries the costs this seed draws;
		// consume the identical rng draws so receiver sampling and
		// join jitter below see the same stream as the uncached path.
		if cfg.UseAsymSpread {
			sp.g.SkipPerturbCosts(rng, lo, hi, cfg.AsymSpread)
		} else {
			sp.g.SkipRandomizeCosts(rng, lo, hi)
		}
	} else {
		sp.g = BaseGraph(cfg.Topo).Clone()
		if cfg.UseAsymSpread {
			sp.g.PerturbCosts(rng, lo, hi, cfg.AsymSpread)
		} else {
			sp.g.RandomizeCosts(rng, lo, hi)
		}
		sp.routing = unicast.New(sp.g)
	}
	sp.src = sourceHostOf(sp.g)
	sp.hosts = sampleReceivers(sp.g, rng, sp.src, cfg.Receivers)
	return sp
}

// newSession builds and wires one session and schedules its initial
// joins; the caller runs the clock.
func newSession(sp sessionSpec) *session {
	d, ok := drivers[sp.Protocol]
	if !ok {
		panic(fmt.Sprintf("experiment: unknown protocol %q", sp.Protocol))
	}
	s := &session{sim: eventsim.New(),
		interval: d.interval, joinEvery: d.joinEvery, settleOut: d.settleOut}
	s.net = netsim.New(s.sim, sp.g, sp.routing)
	if sp.Obs != nil {
		s.net.SetObserver(sp.Obs)
	}
	s.attach = d.routers(s, capableSet(sp.g, sp.rng, sp.MulticastFraction))
	s.channel = s.attach(sp.src, addr.GroupAddr(sp.group), sp.hosts, sp.TimerSkew, sp.leaf)
	if sp.check {
		s.checker = invariant.New(s.net, s.id, d.profile, s.audit)
		s.checker.SetMembers(memberAddrs(sp.g, sp.hosts))
		if s.audit != nil {
			invariant.InstallContinuous(s.sim, s.checker)
		}
		if sp.Obs != nil {
			// Violation reports cite the offending node's flight
			// recorder and the causal episode they were detected under.
			if rec := sp.Obs.Recorder(); rec != nil {
				s.checker.SetRecent(rec.Dump)
			}
			s.checker.SetEpisode(func() uint64 { return uint64(s.net.CausalContext().Episode) })
		}
	}
	n := len(s.rcvs)
	if sp.joiners > 0 {
		n = min(n, sp.joiners)
	}
	s.joinAll(s.rcvs[:n], sp.rng)
	return s
}

// joinAll joins each receiver at a uniformly jittered offset within
// one join period.
func (s *session) joinAll(rcvs []receiver, rng *rand.Rand) {
	for _, r := range rcvs {
		s.sim.At(eventsim.Time(rng.Float64())*s.joinEvery, r.Join)
	}
}

// changed records one forwarding-state mutation; it is the
// core.ChangeObserver of every source and router.
func (s *session) changed(addr.Addr, addr.Channel, core.ChangeKind, addr.Addr) {
	s.changes++
	if s.checker != nil {
		s.checker.MarkDirty()
	}
}

// current returns the probe views of the members subscribed right now,
// as their own agents report it; a PIM tree's members are all
// subscribed.
func (s *session) current() []mtree.Member {
	var out []mtree.Member
	for i, m := range s.members {
		if s.rcvs == nil || s.rcvs[i].Joined() {
			out = append(out, m)
		}
	}
	return out
}

// capableSet selects which routers run the multicast protocol, in
// router order.
func capableSet(g *topology.Graph, rng *rand.Rand, fraction float64) []topology.NodeID {
	routers := g.Routers()
	if fraction <= 0 || fraction >= 1 {
		return routers
	}
	pick := make([]bool, len(routers))
	for _, i := range rng.Perm(len(routers))[:int(fraction*float64(len(routers))+0.5)] {
		pick[i] = true
	}
	var out []topology.NodeID
	for i, r := range routers {
		if pick[i] {
			out = append(out, r)
		}
	}
	return out
}

// skewedInterval scales a refresh interval by receiver index i's
// deterministic skew factor: the factors cycle through -1, -1/2, 0,
// +1/2, +1, so any group of five receivers spans the whole
// [1-skew, 1+skew] band and no random draws are consumed.
func skewedInterval(base eventsim.Time, skew float64, i int) eventsim.Time {
	if skew <= 0 {
		return base
	}
	factor := float64((i%5)-2) / 2
	return base * eventsim.Time(1+skew*factor)
}

// Probe injects one data packet and measures the tree the current
// members are served by.
func (s *session) Probe() *mtree.Result {
	return mtree.Probe(s.net, s.send, s.current())
}

// ProbeSettled probes, and if any member misses the packet (the probe
// landed in a transient soft-state window — REUNITE in particular
// keeps reconfiguring under asymmetric routing), lets the protocol run
// a few more refresh intervals and retries, up to three times. The
// final probe is reported either way, so sustained starvation still
// shows up as Missing.
func (s *session) ProbeSettled() *mtree.Result {
	return s.probeUntil(func(r *mtree.Result) bool { return len(r.Missing) == 0 })
}

// probeUntil probes until ok accepts the result, letting the protocol
// run eight more refresh intervals before each of at most three
// retries, and returns the last probe.
func (s *session) probeUntil(ok func(*mtree.Result) bool) *mtree.Result {
	res := s.Probe()
	for attempt := 0; attempt < 3 && !ok(res); attempt++ {
		s.converge(8)
		res = s.Probe()
	}
	return res
}

// probeEvery originates a data probe every period until end, recording
// each send in a delivery matrix over the session's members; the map
// takes the probes' sequence numbers back to probe indices.
func (s *session) probeEvery(period, end eventsim.Time) (*metrics.DeliveryMatrix, map[uint32]int) {
	dm := metrics.NewDeliveryMatrix(len(s.members))
	seqs := make(map[uint32]int)
	ticker := clock.NewTicker(clock.Sim(s.sim), period, func() {
		seqs[s.send()] = dm.Sent(float64(s.sim.Now()))
	})
	s.sim.At(end, ticker.Stop)
	return dm, seqs
}

// delivered marks in dm every probe each member received, whenever it
// arrived.
func (s *session) delivered(dm *metrics.DeliveryMatrix, seqs map[uint32]int) {
	for i, m := range s.members {
		for seq, p := range seqs {
			if _, ok := m.DeliveryAt(seq); ok {
				dm.Delivered(i, p)
			}
		}
	}
}

// measure settles the session for the given number of refresh
// intervals (0: the default) and probes it. A static PIM tree is
// converged from the start and is probed at once.
func (s *session) measure(intervals int) *mtree.Result {
	if s.rcvs != nil {
		s.converge(intervals)
	}
	return s.ProbeSettled()
}

// converge runs the clock for the given number of refresh intervals
// (0: defaultConvergeIntervals).
func (s *session) converge(intervals int) {
	if intervals <= 0 {
		intervals = defaultConvergeIntervals
	}
	if err := s.sim.Run(s.sim.Now() + eventsim.Time(intervals)*s.interval); err != nil {
		panic(fmt.Sprintf("experiment: converge: %v", err))
	}
}

// quiesce runs the clock until a few refresh intervals pass without
// any forwarding-state change (at most 64 rounds): the fixed point the
// converged invariants are claims about.
func (s *session) quiesce() {
	last := -1
	for i := 0; i < 64 && s.changes != last; i++ {
		last = s.changes
		s.converge(4)
	}
}

// convergeSettleIntervals is the quiescence window convergeMeasured
// requires: no table mutation for this many refresh intervals, with no
// control message outstanding, before the channel counts as converged.
const convergeSettleIntervals = 3

// convergeMeasured is the detector-driven variant of converge: it steps
// the simulation interval by interval until tr reports the channel
// quiescent (or the maxIntervals hard cap — the old fixed budget — is
// exhausted), and returns the measured convergence time (the last table
// mutation before quiescence) plus how many intervals were consumed.
// Unlike the fixed-interval converge, it cannot under-wait a run whose
// cascade outlives the fixed budget, and it does not over-wait one that
// settles early.
//
// converged is the explicit non-converged marker: false means the hard
// cap ran out with the channel still churning, and the returned time is
// merely the last mutation seen, not a convergence time. Callers must
// branch on it rather than re-deriving the condition from used — a
// capped run whose final interval happened to look quiescent is still
// reported converged.
func (s *session) convergeMeasured(tr *obs.ConvergeTracker, maxIntervals int) (at eventsim.Time, used int, converged bool) {
	if maxIntervals <= 0 {
		maxIntervals = defaultConvergeIntervals
	}
	settle := eventsim.Time(convergeSettleIntervals) * s.interval
	for used < maxIntervals {
		s.converge(1)
		used++
		if used >= convergeSettleIntervals && tr.Quiescent(s.id, s.sim.Now(), settle) {
			converged = true
			break
		}
	}
	return tr.Channel(s.id).LastMutation, used, converged
}

// checkConverged runs the checkpoint invariants and aborts on any
// violation. No-op when the session runs unchecked.
//
// The measured probe is taken at the paper's fixed settling time so
// results stay comparable (and bit-identical with checking off), but on
// some seeds the relay-collapse cascade is still in flight there — a
// soft-state transient with extra copies, not a violation. The
// invariants the paper claims are properties of the protocol's fixed
// point, so for the dynamic protocols the checker first quiesces and
// validates a separate verification probe. A protocol that never stops
// mutating state gets checked mid-flight after the attempt cap and
// fails, as it should.
func (s *session) checkConverged(cfg RunConfig, res *mtree.Result) {
	if s.checker == nil {
		return
	}
	if s.rcvs != nil {
		s.quiesce()
		res = s.Probe()
	}
	s.checker.CheckConverged(res.Seq)
	s.checker.MustClean(fmt.Sprintf("%s on %s (seed=%d receivers=%d)",
		cfg.Protocol, cfg.Topo, cfg.Seed, cfg.Receivers))
}

// sampleFootprint samples a dynamic session's forwarding-state
// footprint into the observer's counter registry once per refresh
// interval, producing the virtual-time convergence curves the metrics
// export exposes (hbh_state_* series). No-op unless o carries a counter
// registry.
func (s *session) sampleFootprint(o *obs.Observer, protocol string) {
	if o == nil || o.Counters() == nil || s.rcvs == nil {
		return
	}
	c := o.Counters()
	mftRouters := c.NewSeries("hbh_state_mft_routers", "protocol", protocol)
	mftEntries := c.NewSeries("hbh_state_mft_entries", "protocol", protocol)
	mctRouters := c.NewSeries("hbh_state_mct_routers", "protocol", protocol)
	clock.NewTicker(clock.Sim(s.sim), s.interval, func() {
		fp := s.footprint()
		now := s.sim.Now()
		mftRouters.Sample(now, float64(fp.MFTRouters))
		mftEntries.Sample(now, float64(fp.MFTEntries))
		mctRouters.Sample(now, float64(fp.MCTRouters))
	})
}
