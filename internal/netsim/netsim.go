// Package netsim is the hop-by-hop network simulator the protocols run
// on. It moves packets over the topology one link at a time: each link
// traversal takes the link's directed cost in virtual time units, and
// every arrival is offered to the resident protocol handlers of the
// node before default unicast forwarding kicks in.
//
// That per-hop interception is the defining mechanism of both HBH and
// REUNITE: join messages travelling toward the source are examined
// (and possibly intercepted) by every multicast-capable router on the
// unicast path, and tree messages install state in every router they
// traverse. Unicast-only routers are simulated simply by not
// registering a protocol handler on them — they forward by destination
// address like any packet, which is exactly the paper's transparency
// argument.
package netsim

import (
	"fmt"
	"math/rand"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// DefaultHopLimit bounds the number of links a packet may traverse,
// mirroring the IP TTL. Protocol bugs that would loop forever surface
// as HopLimitDrops in the stats instead of hanging the simulation.
const DefaultHopLimit = 64

// Network is the simulator's driver of the forwarding plane: a
// topology, its unicast routing tables and a discrete-event clock bound
// into a running packet network. Its wire rides pooled envelopes on the
// event queue, charging each link's directed cost as delay, with the
// loss model, the control-plane adversary and strict-wire mode applied
// per link.
type Network struct {
	*Plane
	sim       *eventsim.Sim
	clk       clock.Clock
	wireCheck bool
	loss      LossModel
	// adv is the installed control-plane adversary; nil (the default)
	// keeps the forwarding path byte-for-byte identical to a network
	// without one.
	adv *advState
	// nodeDown marks crashed nodes: they neither handle, forward nor
	// originate packets until brought back up (see SetNodeUp).
	nodeDown []bool
	// cur is the ambient causal context every node shares: set from the
	// in-flight envelope for the duration of each arrival (so everything
	// a handler does inherits the packet's episode), explicitly
	// installed by timer-driven emitters that act on behalf of recorded
	// state (the source's tree refresh), and zero otherwise. The
	// simulator is single-threaded, so one slot suffices.
	cur obs.Causal
	// freeEnv recycles envelopes so steady-state forwarding allocates
	// nothing: every terminal point of a packet's life (drop, consume,
	// deliver) returns its envelope here.
	freeEnv []*Envelope
}

// New builds a network over g with routing substrate r (computed from
// g — eager tables or the lazy per-source router, see unicast.New) and
// clock sim.
func New(sim *eventsim.Sim, g *topology.Graph, r unicast.Router) *Network {
	n := &Network{sim: sim, clk: clock.Sim(sim), nodeDown: make([]bool, g.NumNodes())}
	n.Plane = NewPlane(g, r, (*simWire)(n), nil)
	for _, nd := range g.Nodes() {
		n.AddNode(nd.ID, n.clk, &n.cur).net = n
	}
	return n
}

// Sim returns the event clock.
func (n *Network) Sim() *eventsim.Sim { return n.sim }

// Clock returns the simulator wrapped as an abstract clock.
func (n *Network) Clock() clock.Clock { return n.clk }

// Now returns the current virtual time.
func (n *Network) Now() eventsim.Time { return n.sim.Now() }

// SetRouting swaps in freshly computed routing tables mid-run, e.g.
// after a topology change recomputed them from scratch. The tables
// must belong to this network's graph. (Tables mutated in place via
// Routing().Recompute* need no swap — the network always consults the
// live object.)
func (n *Network) SetRouting(r unicast.Router) {
	if r.Graph() != n.topo {
		panic("netsim: SetRouting with tables computed for a different graph")
	}
	n.routing = r
}

// SetNodeUp marks a node as up (the default) or down. A down node is
// the fault model of a crashed router or host: packets arriving at it,
// transiting it, or originated by its resident agents are dropped and
// counted as NodeDownDrops. Protocol soft state held by agents on the
// node is untouched — wiping it on crash is the protocol layer's
// decision (e.g. core.Router.Reset), not the transport's.
func (n *Network) SetNodeUp(id topology.NodeID, up bool) {
	n.nodeDown[id] = !up
}

// NodeUp reports whether the node is up.
func (n *Network) NodeUp(id topology.NodeID) bool { return !n.nodeDown[id] }

// NodeByAddr returns the runtime node owning unicast address a.
func (n *Network) NodeByAddr(a addr.Addr) *Node {
	return n.nodes[n.topo.MustByAddr(a)]
}

// SetObserver installs (or, with nil, removes) the structured
// observability pipeline (see Plane.SetObserver), binding the
// network's clock: CLI code builds the observer before the simulation
// exists.
func (n *Network) SetObserver(o *obs.Observer) {
	if o != nil {
		o.SetNow(func() eventsim.Time { return n.sim.Now() })
	}
	n.Plane.SetObserver(o)
}

// SetWireCheck turns on strict-wire mode: every link transmission
// marshals the message to its binary wire format and decodes it again
// on arrival, exactly as a real network would. The simulator normally
// forwards the decoded message by reference hop to hop (zero-copy) and
// serializes only at capture boundaries; strict-wire mode proves the
// wire formats are complete (nothing the protocols rely on is lost in
// encoding) under live protocol traffic, so tests keep the codec
// honest without taxing every simulation run. A codec failure panics:
// it is always a format bug.
func (n *Network) SetWireCheck(on bool) { n.wireCheck = on }

// LossModel configures probabilistic per-link packet drops. Control
// and Data are independent per-traversal drop probabilities in [0, 1)
// for non-data and data packets respectively; RNG drives the draws and
// must be non-nil when either rate is positive.
type LossModel struct {
	Control float64
	Data    float64
	RNG     *rand.Rand
}

func (m LossModel) validate() {
	for _, p := range []float64{m.Control, m.Data} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("netsim: loss rate %v out of [0,1)", p))
		}
	}
	if (m.Control > 0 || m.Data > 0) && m.RNG == nil {
		panic("netsim: loss model needs an RNG")
	}
}

// SetLossModel installs (or, with the zero model, removes) the
// per-link loss model. Dropped control packets count as LossDrops,
// dropped data packets as DataLossDrops; the latter feed the
// delivery-ratio measurements of the failure experiments.
func (n *Network) SetLossModel(m LossModel) {
	m.validate()
	n.loss = m
}

// SetHopLimit overrides the per-packet hop budget.
func (n *Network) SetHopLimit(l int) {
	if l < 1 {
		panic("netsim: hop limit must be positive")
	}
	n.hopLimit = l
}

// Tracef emits a free-form annotation into the event stream (a no-op
// when observation is off). External layers use it so their notes
// interleave with the packet trace; the fault injector emits structured
// obs.KindFault events instead.
func (n *Network) Tracef(format string, args ...any) { n.obsv.Notef(format, args...) }

// CausalContext returns the ambient causal context every node of the
// network shares (see Node.CausalContext).
func (n *Network) CausalContext() obs.Causal { return n.cur }

// SetCausalContext installs c as the shared ambient causal context
// (see Node.SetCausalContext).
func (n *Network) SetCausalContext(c obs.Causal) { n.cur = c }

// RootEpisode roots a fresh causal episode in the shared context when
// none is active, returning the previous one (see Node.RootEpisode).
func (n *Network) RootEpisode() obs.Causal {
	prev := n.cur
	n.root(&n.cur)
	return prev
}

// StampCausal stamps ev from the shared ambient context and advances
// it (see Node.StampCausal).
func (n *Network) StampCausal(ev *obs.Event) { n.stamp(&n.cur, ev) }

// Fire delivers the in-flight transmission at its arrival node: the
// envelope doubles as the eventsim.Caller for its own next arrival, so
// a hop costs no closure or event allocation.
func (e *Envelope) Fire() { e.net.Arrive(e.net.nodes[e.to], e) }

// simWire is the simulator's wire. The decoded message travels by
// reference from hop to hop — nothing re-encodes it in transit
// (zero-copy forwarding); serialization happens only at capture taps
// and under the opt-in strict-wire mode (SetWireCheck). Envelopes
// recycle through Network.freeEnv, so steady-state forwarding
// allocates nothing at all.
type simWire Network

func (w *simWire) NodeUp(id topology.NodeID) bool { return !w.nodeDown[id] }

func (w *simWire) LinkUp(from, to topology.NodeID) bool { return w.topo.LinkEnabled(from, to) }

func (w *simWire) Envelope(msg packet.Message) *Envelope {
	if k := len(w.freeEnv); k > 0 {
		env := w.freeEnv[k-1]
		w.freeEnv = w.freeEnv[:k-1]
		env.Msg = msg
		return env
	}
	return &Envelope{Msg: msg, net: (*Network)(w)}
}

// Release returns an envelope whose packet's life ended. It is wiped
// so the freelist never pins packets; each envelope is referenced from
// exactly one place at a time, so every terminal branch releases
// exactly once.
func (w *simWire) Release(env *Envelope) {
	*env = Envelope{net: env.net}
	w.freeEnv = append(w.freeEnv, env)
}

// Loop processes a self-addressed packet in a fresh event, for causal
// order.
func (w *simWire) Loop(nd *Node, env *Envelope) {
	env.to = nd.id
	w.sim.AfterCall(0, env)
}

// Admit runs the simulator's per-link loss stages: the loss model,
// then the control-plane adversary's loss draws (data packets pass it
// untouched). A surviving packet crosses the strict wire when that
// mode is on.
func (w *simWire) Admit(from *Node, to topology.NodeID, env *Envelope) bool {
	_, isData := env.Msg.(*packet.Data)
	if w.loss.Control > 0 || w.loss.Data > 0 {
		switch {
		case !isData && w.loss.Control > 0 && w.loss.RNG.Float64() < w.loss.Control:
			w.dropEnv(&w.stats.LossDrops, obs.CauseLoss, from, to, env)
			return false
		case isData && w.loss.Data > 0 && w.loss.RNG.Float64() < w.loss.Data:
			w.dropEnv(&w.stats.DataLossDrops, obs.CauseLoss, from, to, env)
			return false
		}
	}
	if w.adv != nil && !isData && w.adv.lose() {
		w.dropEnv(&w.stats.AdvLossDrops, obs.CauseAdvLoss, from, to, env)
		return false
	}
	if w.wireCheck {
		buf, err := packet.Marshal(env.Msg)
		if err != nil {
			panic(fmt.Sprintf("netsim: wire-check marshal on %d->%d: %v", from.id, to, err))
		}
		decoded, err := packet.Unmarshal(buf)
		if err != nil {
			panic(fmt.Sprintf("netsim: wire-check unmarshal on %d->%d: %v", from.id, to, err))
		}
		env.Msg = decoded
	}
	return true
}

// Send schedules the arrival after the directed link cost plus any
// adversarial jitter, and lets the adversary inject its duplicate.
func (w *simWire) Send(from, to topology.NodeID, env *Envelope) {
	cost := eventsim.Time(w.topo.Cost(from, to))
	if cost == 0 {
		panic(fmt.Sprintf("netsim: transmit over missing link %d->%d", from, to))
	}
	delay := cost
	var dupJitter eventsim.Time
	dup := false
	if w.adv != nil {
		if _, isData := env.Msg.(*packet.Data); !isData {
			var jitter eventsim.Time
			jitter, dupJitter, dup = w.adv.perturb()
			delay += jitter
		}
	}
	if w.obsv != nil {
		if lt := w.obsv.Latency(); lt != nil {
			lt.ObserveHop(float64(delay))
		}
	}
	env.to = to
	if dup {
		(*Network)(w).duplicate(from, to, env, cost+dupJitter)
	}
	w.sim.AfterCall(delay, env)
}
