package live

import (
	"fmt"
	"sync"
	"time"

	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// Mode selects how the runtime executes.
type Mode int

const (
	// SimMode runs every node inside one shared discrete-event
	// simulator: single-threaded, virtual time, deterministic. The
	// transport still frames and unmarshals every hop, so the wire
	// path is exercised, but execution is bit-reproducible — this is
	// the mode the equivalence tests compare against netsim.
	SimMode Mode = iota
	// RealMode runs one goroutine per hosted node against the wall
	// clock: mailbox-serialised engines, concurrent transport
	// delivery, time.Timer-backed soft state.
	RealMode
)

// Config parameterises a runtime.
type Config struct {
	Graph   *topology.Graph
	Routing unicast.Router

	// Sim selects SimMode when non-nil: all nodes share this
	// simulator as their clock and event loop.
	Sim *eventsim.Sim

	// Unit is RealMode's wall duration of one virtual time unit
	// (default 1ms). Protocol constants are in units, so this knob
	// scales the whole control plane's real-time speed.
	Unit time.Duration

	// Hosted lists the nodes this runtime instantiates engines and
	// mailboxes for. nil hosts the whole graph (in-process cluster);
	// a daemon hosts one router plus its attached hosts.
	Hosted []topology.NodeID
}

// Stats is the forwarding plane's counter set, shared with netsim.
type Stats = netsim.Stats

// Runtime hosts live protocol engines over a transport: netsim's
// forwarding plane driven by the live wire. Construct with New, attach
// engines to rt.Node(id) (same Attach* calls as netsim), install a
// transport (or let Start default to in-process), then Start. In
// RealMode all post-Start engine access must go through Do or Quiesce.
type Runtime struct {
	*netsim.Plane
	mode  Mode
	sim   *eventsim.Sim
	unit  time.Duration
	start time.Time
	wall  *clock.Real // RealMode ambient clock (Now for stamping)

	mbox   []*mailbox // by NodeID; RealMode hosted nodes only
	trans  Transport
	hosted []topology.NodeID

	// worldMu is RealMode's stop-the-world barrier: every mailbox
	// dispatch runs under RLock, Quiesce takes the write lock.
	worldMu sync.RWMutex

	// emitMu is the plane's emission lock: it serialises the shared
	// observability surface (observer, taps, stats) across node
	// goroutines.
	emitMu sync.Mutex

	// faultMu guards the runtime fault overlay. The shared graph is
	// frozen and never mutated here — faults are a runtime concept so
	// concurrent toggles stay race-free.
	faultMu  sync.RWMutex
	nodeDown map[topology.NodeID]bool
	linkDown map[[2]topology.NodeID]bool

	started bool
	stopped bool
}

// New builds a runtime over a frozen graph and its routing tables.
func New(cfg Config) *Runtime {
	rt := &Runtime{
		sim:      cfg.Sim,
		unit:     cfg.Unit,
		nodeDown: make(map[topology.NodeID]bool),
		linkDown: make(map[[2]topology.NodeID]bool),
	}
	rt.Plane = netsim.NewPlane(cfg.Graph, cfg.Routing, (*wire)(rt), &rt.emitMu)
	if rt.sim != nil {
		rt.mode = SimMode
	} else {
		rt.mode = RealMode
		if rt.unit <= 0 {
			rt.unit = time.Millisecond
		}
		rt.start = time.Now()
		rt.wall = clock.NewRealAt(rt.start, rt.unit, nil)
		rt.mbox = make([]*mailbox, cfg.Graph.NumNodes())
	}
	hosted := cfg.Hosted
	if hosted == nil {
		for _, nd := range cfg.Graph.Nodes() {
			hosted = append(hosted, nd.ID)
		}
	}
	rt.hosted = hosted
	for _, id := range hosted {
		var clk clock.Clock
		if rt.mode == SimMode {
			clk = clock.Sim(rt.sim)
		} else {
			rt.mbox[id] = newMailbox()
			clk = clock.NewRealAt(rt.start, rt.unit, rt.mbox[id].enqueue)
		}
		rt.AddNode(id, clk, new(obs.Causal))
	}
	return rt
}

// Mode reports the execution mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Node returns the hosted node, panicking on a non-hosted ID.
func (rt *Runtime) Node(id topology.NodeID) *netsim.Node {
	n := rt.Plane.Node(id)
	if n == nil {
		panic(fmt.Sprintf("live: node %d not hosted by this runtime", id))
	}
	return n
}

// Hosted returns the hosted node IDs.
func (rt *Runtime) Hosted() []topology.NodeID { return rt.hosted }

// SetTransport installs the transport. Must happen before Start.
func (rt *Runtime) SetTransport(t Transport) {
	if rt.started {
		panic("live: SetTransport after Start")
	}
	rt.trans = t
}

// Transport returns the installed transport.
func (rt *Runtime) Transport() Transport { return rt.trans }

// SetObserver attaches the observability pipeline, rebinding its
// clock to the runtime's. Emission from node goroutines is
// serialised internally.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	if o != nil {
		o.SetNow(rt.Now)
		// Engine code (receiver spans, protocol annotations) emits into
		// the observer directly from node goroutines; sharing the
		// runtime's emission mutex serialises those paths with the
		// transport events and with telemetry scrapes.
		o.SetEmitLock(&rt.emitMu)
		if lt := o.Latency(); lt != nil {
			// The live runtime feeds delivery delays from frame
			// timestamps (cross-process capable); event pairing would
			// double-count them.
			lt.SetDirect(true)
		}
	}
	rt.Plane.SetObserver(o)
}

// Now returns the current time in virtual units (invariant.Network).
func (rt *Runtime) Now() eventsim.Time {
	if rt.mode == SimMode {
		return rt.sim.Now()
	}
	return rt.wall.Now()
}

// stampNow returns the frame-timestamp clock: wall nanoseconds in
// RealMode (comparable across daemons whose wall clocks are roughly
// synchronised), virtual microseconds in SimMode (exact within one
// simulation). Frames carry these stamps so the receiving process can
// compute delivery and hop delays without a shared virtual clock.
func (rt *Runtime) stampNow() int64 {
	if rt.mode == SimMode {
		return int64(rt.sim.Now() * 1e6)
	}
	return time.Now().UnixNano()
}

// stampDelta converts a stamp difference to histogram units: seconds
// in RealMode, virtual units in SimMode.
func (rt *Runtime) stampDelta(from int64) float64 {
	d := rt.stampNow() - from
	if rt.mode == SimMode {
		return float64(d) / 1e6
	}
	return float64(d) / 1e9
}

// ObsLocked runs fn under the emission lock: the consistency boundary
// for reading the observer's registries (counters, histograms,
// convergence state) while node goroutines emit concurrently. The
// daemon's telemetry endpoints scrape through it.
func (rt *Runtime) ObsLocked(fn func()) {
	rt.emitMu.Lock()
	defer rt.emitMu.Unlock()
	fn()
}

// SetNodeUp marks a hosted-or-remote node up or down in the runtime
// fault overlay (safe to call concurrently).
func (rt *Runtime) SetNodeUp(id topology.NodeID, up bool) {
	rt.faultMu.Lock()
	if up {
		delete(rt.nodeDown, id)
	} else {
		rt.nodeDown[id] = true
	}
	rt.faultMu.Unlock()
}

// SetLinkUp enables or disables the directed link pair (both
// directions) in the runtime fault overlay.
func (rt *Runtime) SetLinkUp(a, b topology.NodeID, up bool) {
	rt.faultMu.Lock()
	if up {
		delete(rt.linkDown, [2]topology.NodeID{a, b})
		delete(rt.linkDown, [2]topology.NodeID{b, a})
	} else {
		rt.linkDown[[2]topology.NodeID{a, b}] = true
		rt.linkDown[[2]topology.NodeID{b, a}] = true
	}
	rt.faultMu.Unlock()
}

// Start launches the runtime: defaults the transport to in-process
// delivery and, in RealMode, spawns the node goroutines.
func (rt *Runtime) Start() {
	if rt.started {
		panic("live: Start twice")
	}
	rt.started = true
	if rt.trans == nil {
		buffer := 0
		if rt.mode == RealMode {
			buffer = 1024
		}
		rt.trans = NewChanTransport(rt.HandleFrame, buffer)
	}
	if rt.mode == RealMode {
		for _, id := range rt.hosted {
			rt.mbox[id].start(rt)
		}
	}
}

// Stop shuts the runtime down: transport first (no new arrivals),
// then the node goroutines drain and exit.
func (rt *Runtime) Stop() {
	if !rt.started || rt.stopped {
		return
	}
	rt.stopped = true
	if rt.trans != nil {
		rt.trans.Close()
	}
	if rt.mode == RealMode {
		for _, id := range rt.hosted {
			rt.mbox[id].close()
		}
		for _, id := range rt.hosted {
			rt.mbox[id].wait()
		}
	}
}

// Do runs fn on node id's goroutine and waits for it. This is the
// only safe way to touch an engine after Start in RealMode (join a
// receiver, read a table). In SimMode fn runs inline. Calling Do from
// a node goroutine deadlocks — engines must not use it.
func (rt *Runtime) Do(id topology.NodeID, fn func()) {
	rt.Node(id) // panics on a node this runtime does not host
	if rt.mode == SimMode || !rt.started {
		fn()
		return
	}
	done := make(chan struct{})
	rt.mbox[id].enqueue(func() {
		fn()
		close(done)
	})
	<-done
}

// Quiesce stops the world — every node goroutine parked between
// dispatches — and runs fn. Structural invariant checks use it to see
// a consistent global cut. In SimMode fn just runs inline.
func (rt *Runtime) Quiesce(fn func()) {
	if rt.mode == SimMode || !rt.started {
		fn()
		return
	}
	rt.worldMu.Lock()
	defer rt.worldMu.Unlock()
	fn()
}

// HandleFrame ingests a frame addressed to hosted node to. Transports
// call it from their receive path; it charges the link cost as
// arrival delay on the destination's clock, exactly as netsim charges
// cost on the wire. The sender named in the frame comes off the
// network, so a frame from outside the topology or from a non-neighbour
// is rejected (and counted) before it can touch the plane; link state
// is not checked here — like netsim, a packet already in flight lands
// even if its link went down behind it.
func (rt *Runtime) HandleFrame(to topology.NodeID, frame []byte) {
	nd := rt.Plane.Node(to)
	if nd == nil {
		return // not hosted here; a misrouted or stale frame
	}
	g := rt.Topology()
	fm, msg, err := decodeFrame(frame)
	switch {
	case err != nil:
		rt.Count(func(s *Stats) { s.CodecDrops++ })
		return
	case int(fm.from) >= g.NumNodes():
		rt.Count(func(s *Stats) { s.RangeRejects++ })
		return
	case !g.HasLink(fm.from, to):
		rt.Count(func(s *Stats) { s.AdjRejects++ })
		return
	}
	env := &netsim.Envelope{Msg: msg, Hops: fm.ttl, Cause: fm.cause, OrigAt: fm.origAt}
	nd.Clock().After(eventsim.Time(g.Cost(fm.from, to)), func() {
		if lt := rt.latency(); lt != nil && fm.hopAt != 0 {
			rt.emitMu.Lock()
			lt.ObserveHop(rt.stampDelta(fm.hopAt))
			rt.emitMu.Unlock()
		}
		rt.land(nd, env)
	})
}

// latency returns the observer's latency tracker, or nil.
func (rt *Runtime) latency() *obs.Latency {
	if o := rt.Observer(); o != nil {
		return o.Latency()
	}
	return nil
}

// land runs an arrival through the plane. A data packet that
// terminates here samples the end-to-end delivery delay from its
// frame's origination stamp.
func (rt *Runtime) land(nd *netsim.Node, env *netsim.Envelope) {
	_, isData := env.Msg.(*packet.Data)
	if rt.Arrive(nd, env) && isData && env.OrigAt != 0 {
		if lt := rt.latency(); lt != nil {
			rt.emitMu.Lock()
			lt.ObserveDelivery(rt.stampDelta(env.OrigAt))
			rt.emitMu.Unlock()
		}
	}
}

// wire is the live runtime's half of the forwarding plane: every
// traversal is marshalled fresh (the live runtime always exercises the
// real wire codec), framed with the packet's hop budget, causal pair
// and timestamps, and handed to the Transport; it lands through
// HandleFrame on the receiver's clock. Faults come from the runtime
// overlay.
type wire Runtime

func (w *wire) NodeUp(id topology.NodeID) bool {
	w.faultMu.RLock()
	down := w.nodeDown[id]
	w.faultMu.RUnlock()
	return !down
}

func (w *wire) LinkUp(a, b topology.NodeID) bool {
	if !w.Topology().LinkEnabled(a, b) {
		return false
	}
	w.faultMu.RLock()
	down := w.linkDown[[2]topology.NodeID{a, b}]
	w.faultMu.RUnlock()
	return !down
}

func (w *wire) Envelope(msg packet.Message) *netsim.Envelope {
	return &netsim.Envelope{Msg: msg, OrigAt: (*Runtime)(w).stampNow()}
}

// Admit passes everything: the live wire has no loss stages of its
// own beyond what the real transport loses.
func (w *wire) Admit(*netsim.Node, topology.NodeID, *netsim.Envelope) bool { return true }

func (w *wire) Send(from, to topology.NodeID, env *netsim.Envelope) {
	rt := (*Runtime)(w)
	buf, err := packet.Marshal(env.Msg)
	if err != nil {
		panic(fmt.Sprintf("live: marshal on %d->%d: %v", from, to, err))
	}
	fm := frameMeta{from: from, ttl: env.Hops, cause: env.Cause, origAt: env.OrigAt, hopAt: rt.stampNow()}
	if rt.trans.Send(from, to, encodeFrame(fm, buf)) != nil {
		rt.Count(func(s *Stats) { s.SendErrors++ })
	}
}

// Loop re-processes a self-addressed packet in a fresh dispatch on the
// node's own clock, for causal order.
func (w *wire) Loop(nd *netsim.Node, env *netsim.Envelope) {
	nd.Clock().After(0, func() { (*Runtime)(w).land(nd, env) })
}

func (w *wire) Release(*netsim.Envelope) {}

// mailbox is an unbounded FIFO work queue with one consumer
// goroutine: a router's serialised execution context. Unbounded on
// purpose — node A's dispatch may synchronously enqueue onto node B
// and vice versa, so any bounded queue could deadlock the pair.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []func()
	closed bool
	done   chan struct{}
}

func newMailbox() *mailbox {
	m := &mailbox{done: make(chan struct{})}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) enqueue(fn func()) {
	m.mu.Lock()
	if !m.closed {
		m.q = append(m.q, fn)
	}
	m.mu.Unlock()
	m.cond.Signal()
}

func (m *mailbox) start(rt *Runtime) {
	go func() {
		defer close(m.done)
		for {
			m.mu.Lock()
			for len(m.q) == 0 && !m.closed {
				m.cond.Wait()
			}
			if len(m.q) == 0 && m.closed {
				m.mu.Unlock()
				return
			}
			fn := m.q[0]
			m.q = m.q[1:]
			m.mu.Unlock()

			rt.worldMu.RLock()
			fn()
			rt.worldMu.RUnlock()
		}
	}()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) wait() { <-m.done }
