package netsim

import (
	"fmt"
	"sync"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// The forwarding plane: the per-hop decision ladder every packet walks,
// written once and driven by two wires. Origination checks the sender
// is up and the destination routable; each arrival runs node-down,
// then the resident handlers (first Consumed wins), then local
// delivery, then the unclaimed-multicast drop, then onward forwarding;
// each traversal runs route lookup, hop limit, link down, the wire's
// own loss stages, then stats/taps/obs emission and hand-off. The
// simulator's wire (Network) rides pooled envelopes on the event
// queue; the live runtime's wire (internal/live) frames every hop over
// a Transport and lands it on the receiver's clock.

// Verdict is a handler's decision about an arriving packet.
type Verdict uint8

const (
	// Continue lets the packet proceed: default unicast forwarding if
	// this node is not the destination, local delivery otherwise.
	Continue Verdict = iota
	// Consumed removes the packet; the handler has taken over (it may
	// have emitted regenerated copies itself).
	Consumed
)

// Handler is a protocol entity resident on a node. Handle is invoked
// for every packet arriving at the node, whether addressed to it or
// transiting through it.
type Handler interface {
	Handle(n ProtoNode, msg packet.Message) Verdict
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n ProtoNode, msg packet.Message) Verdict

// Handle implements Handler.
func (f HandlerFunc) Handle(n ProtoNode, msg packet.Message) Verdict { return f(n, msg) }

// DeliverFunc receives packets locally delivered at a node (packets
// whose unicast destination is this node and that no handler consumed).
type DeliverFunc func(n ProtoNode, msg packet.Message)

// Tap observes every link transmission. from and to are adjacent
// nodes; msg is the packet as transmitted. Taps must not mutate msg.
type Tap func(from, to topology.NodeID, msg packet.Message)

// DeliveryTap observes every packet that terminates at a node: either
// consumed by a protocol handler (consumed=true — the receiver-agent
// path both multicast protocols use) or locally delivered to the node's
// destination-address sink (consumed=false). Drops are not reported.
// Taps must not mutate msg. The invariant checker counts per-sequence
// data arrivals through this hook.
type DeliveryTap func(at topology.NodeID, msg packet.Message, consumed bool)

// Stats aggregates transport-level counters for one forwarding plane.
type Stats struct {
	Transmissions int // individual link traversals, all packet types
	DataCopies    int // link traversals by data packets (the paper's tree cost, per packet)
	Delivered     int // local deliveries
	DataDelivered int // local deliveries of data packets
	HopLimitDrops int // packets dropped for exceeding the hop limit
	NoRouteDrops  int // packets dropped for an unroutable destination
	Consumed      int // packets consumed by handlers
	DataConsumed  int // data packets consumed by handlers (receivers and branching nodes)
	LossDrops     int // control packets dropped by the loss model
	DataLossDrops int // data packets dropped by the loss model
	LinkDownDrops int // packets dropped at a disabled (failed) link
	NodeDownDrops int // packets dropped at or by a down node
	AdvLossDrops  int // control packets dropped by the adversary (burst or uniform)
	AdvDups       int // control packet copies injected by the adversary
	DataDrops     int // data packets dropped for any reason (subset of the drop counters)
	CodecDrops    int // received frames whose bytes failed to decode (live wire)
	RangeRejects  int // received frames naming a sender outside the topology (live wire)
	AdjRejects    int // received frames from a sender with no link to the receiver (live wire)
	SendErrors    int // frames the transport failed to send (live wire)
}

// DeliveryRatio returns the fraction of terminated data-packet copies
// that reached a protocol entity (handler consumption at a receiver or
// branching node, or local delivery) rather than being dropped. It is
// the transport-level delivery ratio the failure experiments report
// over a measurement window (snapshot Stats before and after, Delta,
// then DeliveryRatio); per-receiver application-level ratios come from
// metrics.DeliveryMatrix instead. With no data traffic it returns 1.
func (s Stats) DeliveryRatio() float64 {
	ok := s.DataDelivered + s.DataConsumed
	total := ok + s.DataDrops
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Delta returns the counter differences s - prev, for windowed
// measurements over a running network.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Transmissions: s.Transmissions - prev.Transmissions,
		DataCopies:    s.DataCopies - prev.DataCopies,
		Delivered:     s.Delivered - prev.Delivered,
		DataDelivered: s.DataDelivered - prev.DataDelivered,
		HopLimitDrops: s.HopLimitDrops - prev.HopLimitDrops,
		NoRouteDrops:  s.NoRouteDrops - prev.NoRouteDrops,
		Consumed:      s.Consumed - prev.Consumed,
		DataConsumed:  s.DataConsumed - prev.DataConsumed,
		LossDrops:     s.LossDrops - prev.LossDrops,
		DataLossDrops: s.DataLossDrops - prev.DataLossDrops,
		LinkDownDrops: s.LinkDownDrops - prev.LinkDownDrops,
		NodeDownDrops: s.NodeDownDrops - prev.NodeDownDrops,
		AdvLossDrops:  s.AdvLossDrops - prev.AdvLossDrops,
		AdvDups:       s.AdvDups - prev.AdvDups,
		DataDrops:     s.DataDrops - prev.DataDrops,
		CodecDrops:    s.CodecDrops - prev.CodecDrops,
		RangeRejects:  s.RangeRejects - prev.RangeRejects,
		AdjRejects:    s.AdjRejects - prev.AdjRejects,
		SendErrors:    s.SendErrors - prev.SendErrors,
	}
}

// Wire is a driver's half of the forwarding plane: its fault state,
// its envelopes, and what a link traversal physically is.
type Wire interface {
	// NodeUp and LinkUp read the driver's fault state.
	NodeUp(id topology.NodeID) bool
	LinkUp(from, to topology.NodeID) bool
	// Envelope returns a blank envelope carrying msg for a packet
	// originated now.
	Envelope(msg packet.Message) *Envelope
	// Admit runs the wire's own loss stages on a traversal the ladder
	// is about to commit; false means the wire dropped env (counted and
	// released).
	Admit(from *Node, to topology.NodeID, env *Envelope) bool
	// Send carries a committed traversal over the link from->to and
	// schedules its Arrive at to.
	Send(from, to topology.NodeID, env *Envelope)
	// Loop schedules a self-addressed packet's Arrive back at nd in a
	// fresh dispatch.
	Loop(nd *Node, env *Envelope)
	// Release ends env's life (dropped, consumed or delivered).
	Release(env *Envelope)
}

// Envelope carries a packet in flight together with its hop budget
// and causal pair. The decoded message travels by reference from hop
// to hop; how a hop is physically crossed — by reference on the
// event queue, or re-encoded into a frame — is the wire's business.
type Envelope struct {
	Msg packet.Message
	// Hops is the remaining hop budget, the plane's TTL. The paper's
	// messages have no TTL field, so it lives here (and in the live
	// frame header), never in the packet.
	Hops int
	// Cause is the packet's causal pair: the episode it belongs to and
	// the step of its most recent transport event (send or last hop).
	// In-band metadata only — the packet format is untouched.
	Cause obs.Causal
	// OrigAt is the live wire's origination stamp, which its frames
	// carry for the delivery-delay histogram; zero in the simulator.
	OrigAt int64

	net *Network        // simulator wire: the network the envelope fires in
	to  topology.NodeID // simulator wire: arrival node of the transmission
}

// Plane is the forwarding plane one driver runs: topology, routing,
// the hosted nodes, transport counters, taps and the observer.
type Plane struct {
	topo     *topology.Graph
	routing  unicast.Router
	wire     Wire
	hopLimit int
	nodes    []*Node // by NodeID; nil where the driver hosts no node
	// mu serialises the shared surface — stats, taps, the observer and
	// causal id allocation — across node goroutines. nil in the
	// single-threaded simulator, whose path takes no lock.
	mu      sync.Locker
	obsv    *obs.Observer
	taps    []Tap
	delTaps []DeliveryTap
	stats   Stats
}

// NewPlane builds a forwarding plane over g and its routing substrate
// r, driven by w. mu is the emission lock a concurrent driver shares
// with its observer; nil for a single-threaded one.
func NewPlane(g *topology.Graph, r unicast.Router, w Wire, mu sync.Locker) *Plane {
	if r.Graph() != g {
		panic("netsim: routing tables computed for a different graph")
	}
	return &Plane{topo: g, routing: r, wire: w, hopLimit: DefaultHopLimit,
		nodes: make([]*Node, g.NumNodes()), mu: mu}
}

// AddNode instantiates the node for id: its protocol entities time on
// clk and its ambient causal context lives in cur (the simulator
// shares one context network-wide; live nodes each own theirs).
func (p *Plane) AddNode(id topology.NodeID, clk clock.Clock, cur *obs.Causal) *Node {
	t := p.topo.Node(id)
	nd := &Node{p: p, id: id, addr: t.Addr, name: t.Name, clk: clk, cur: cur}
	p.nodes[id] = nd
	return nd
}

func (p *Plane) lock() {
	if p.mu != nil {
		p.mu.Lock()
	}
}

func (p *Plane) unlock() {
	if p.mu != nil {
		p.mu.Unlock()
	}
}

// Node returns the node for id, or nil when the driver hosts none.
func (p *Plane) Node(id topology.NodeID) *Node { return p.nodes[id] }

// Topology returns the underlying graph.
func (p *Plane) Topology() *topology.Graph { return p.topo }

// Routing returns the unicast routing substrate.
func (p *Plane) Routing() unicast.Router { return p.routing }

// NodeName returns the topology label of a node, for diagnostics.
func (p *Plane) NodeName(id topology.NodeID) string { return p.topo.Node(id).Name }

// Stats returns a snapshot of the transport counters.
func (p *Plane) Stats() Stats {
	p.lock()
	defer p.unlock()
	return p.stats
}

// ResetStats zeroes the transport counters. Experiments reset between
// the convergence phase and the measurement probe.
func (p *Plane) ResetStats() {
	p.lock()
	p.stats = Stats{}
	p.unlock()
}

// Count applies fn to the transport counters under the plane's lock:
// how a wire counts what it rejects before the ladder sees a packet.
func (p *Plane) Count(fn func(*Stats)) {
	p.lock()
	fn(&p.stats)
	p.unlock()
}

// AddTap registers a link observer.
func (p *Plane) AddTap(t Tap) {
	p.lock()
	p.taps = append(p.taps, t)
	p.unlock()
}

// AddDeliveryTap registers a packet-termination observer.
func (p *Plane) AddDeliveryTap(t DeliveryTap) {
	p.lock()
	p.delTaps = append(p.delTaps, t)
	p.unlock()
}

// SetObserver installs (or, with nil, removes) the structured
// observability pipeline. All transport events — sends, per-hop
// forwards, consumes, deliveries, and cause-attributed drops — flow
// into it; the protocol engines discover it through Observer() and add
// their control-plane events to the same stream.
func (p *Plane) SetObserver(o *obs.Observer) { p.obsv = o }

// Observer returns the installed pipeline (nil when observation is
// off). Protocol code must nil-check before building events.
func (p *Plane) Observer() *obs.Observer { return p.obsv }

// root roots a fresh causal episode in cur when observation is on and
// none is active (the spontaneous-action case: a timer fired, nothing
// arrived), reporting whether it did.
func (p *Plane) root(cur *obs.Causal) bool {
	if p.obsv == nil || cur.Episode != 0 {
		return false
	}
	p.lock()
	*cur = obs.Causal{Episode: p.obsv.NewEpisode()}
	p.unlock()
	return true
}

// stamp fills ev's causal fields from cur, allocating a fresh step and
// advancing cur to it.
func (p *Plane) stamp(cur *obs.Causal, ev *obs.Event) {
	if p.obsv == nil {
		return
	}
	p.lock()
	ev.Episode = cur.Episode
	ev.ParentStep = cur.Step
	ev.Step = p.obsv.NewStep()
	cur.Step = ev.Step
	p.unlock()
}

// emit builds and emits one transport event for msg at nd, parented at
// ctx's step, and returns the event's fresh step so the caller can
// chain a packet's causal pair to it. Callers hold the lock and have
// checked p.obsv != nil first — this keeps argument construction
// (interface boxing, channel/seq extraction) entirely off the disabled
// path, where it used to dominate whole-run CPU profiles.
func (p *Plane) emit(kind obs.Kind, cause obs.Cause, nd *Node, peer topology.NodeID, msg packet.Message, ctx obs.Causal) obs.StepID {
	ev := obs.Event{Kind: kind, Cause: cause, Msg: msg, Node: nd.addr, NodeName: nd.name,
		Channel: msg.Hdr().Channel, Episode: ctx.Episode, ParentStep: ctx.Step}
	if peer != topology.None {
		t := p.topo.Node(peer)
		ev.Peer, ev.PeerName = t.Addr, t.Name
	}
	if d, ok := msg.(*packet.Data); ok {
		ev.Seq = d.Seq
	}
	ev.Step = p.obsv.NewStep()
	p.obsv.EmitLocked(ev)
	return ev.Step
}

// drop counts one lost packet under ctr (and DataDrops for data) and
// reports it with cause, parented at ctx.
func (p *Plane) drop(ctr *int, cause obs.Cause, nd *Node, peer topology.NodeID, msg packet.Message, ctx obs.Causal) {
	p.lock()
	*ctr++
	if _, isData := msg.(*packet.Data); isData {
		p.stats.DataDrops++
	}
	if p.obsv != nil {
		p.emit(obs.KindDrop, cause, nd, peer, msg, ctx)
	}
	p.unlock()
}

// dropEnv is drop for an in-flight packet, parented at its own causal
// step; the envelope's life ends.
func (p *Plane) dropEnv(ctr *int, cause obs.Cause, nd *Node, peer topology.NodeID, env *Envelope) {
	p.drop(ctr, cause, nd, peer, env.Msg, env.Cause)
	p.wire.Release(env)
}

// sendStep emits a packet's origination event at nd (when observing)
// and returns its step, the parent of the packet's first hop.
func (p *Plane) sendStep(kind obs.Kind, nd *Node, peer topology.NodeID, msg packet.Message) obs.StepID {
	if p.obsv == nil {
		return 0
	}
	p.lock()
	defer p.unlock()
	return p.emit(kind, obs.CauseNone, nd, peer, msg, *nd.cur)
}

func (p *Plane) sendUnicast(nd *Node, msg packet.Message) {
	h := msg.Hdr()
	if !p.wire.NodeUp(nd.id) {
		// A crashed node originates nothing; its agents' timers may
		// still fire, but whatever they emit dies here.
		p.drop(&p.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, msg, *nd.cur)
		return
	}
	if !h.Dst.IsUnicast() {
		p.drop(&p.stats.NoRouteDrops, obs.CauseNonUnicast, nd, topology.None, msg, *nd.cur)
		return
	}
	step := p.sendStep(obs.KindSend, nd, topology.None, msg)
	dst, ok := p.topo.ByAddr(h.Dst)
	if !ok {
		p.drop(&p.stats.NoRouteDrops, obs.CauseNoRoute, nd, topology.None, msg, *nd.cur)
		return
	}
	env := p.arm(nd, msg, step)
	if dst == nd.id {
		p.wire.Loop(nd, env)
		return
	}
	p.forward(nd, env)
}

func (p *Plane) sendDirect(nd *Node, to topology.NodeID, msg packet.Message) {
	if !p.topo.HasLink(nd.id, to) {
		panic(fmt.Sprintf("netsim: SendDirect %s -> %s without a link", nd.name, p.NodeName(to)))
	}
	if !p.wire.NodeUp(nd.id) {
		p.drop(&p.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, msg, *nd.cur)
		return
	}
	step := p.sendStep(obs.KindSendDirect, nd, to, msg)
	p.transmit(nd, to, p.arm(nd, msg, step))
}

// arm takes a full-budget envelope for msg from the wire, its causal
// pair parented at the origination event step.
func (p *Plane) arm(nd *Node, msg packet.Message, step obs.StepID) *Envelope {
	env := p.wire.Envelope(msg)
	env.Hops = p.hopLimit
	env.Cause = obs.Causal{Episode: nd.cur.Episode, Step: step}
	return env
}

// forward routes env one hop closer to its destination address.
func (p *Plane) forward(nd *Node, env *Envelope) {
	dst, ok := p.topo.ByAddr(env.Msg.Hdr().Dst)
	if !ok || !p.routing.Reachable(nd.id, dst) {
		p.dropEnv(&p.stats.NoRouteDrops, obs.CauseNoRoute, nd, topology.None, env)
		return
	}
	p.transmit(nd, p.routing.NextHop(nd.id, dst), env)
}

// transmit commits env to the link nd->to, charging one unit of hop
// budget, and hands it to the wire.
func (p *Plane) transmit(nd *Node, to topology.NodeID, env *Envelope) {
	if env.Hops <= 0 {
		p.dropEnv(&p.stats.HopLimitDrops, obs.CauseHopLimit, nd, topology.None, env)
		return
	}
	env.Hops--
	if !p.wire.LinkUp(nd.id, to) {
		// The link is down (fault injection). Packets already routed
		// onto it die here, exactly like frames on a cut wire; the stale
		// routing that chose it is the unicast layer's problem until
		// Recompute converges it.
		p.dropEnv(&p.stats.LinkDownDrops, obs.CauseLinkDown, nd, to, env)
		return
	}
	if !p.wire.Admit(nd, to, env) {
		return
	}
	p.lock()
	p.stats.Transmissions++
	if _, isData := env.Msg.(*packet.Data); isData {
		p.stats.DataCopies++
	}
	for _, tap := range p.taps {
		tap(nd.id, to, env.Msg)
	}
	if p.obsv != nil {
		env.Cause.Step = p.emit(obs.KindForward, obs.CauseNone, nd, to, env.Msg, env.Cause)
	}
	p.unlock()
	p.wire.Send(nd.id, to, env)
}

// Arrive processes env at nd — handlers first, then local delivery or
// onward forwarding — with the packet's causal pair as nd's ambient
// context for everything the arrival triggers (handler emissions,
// regenerated messages). It reports whether a protocol entity took
// the packet (consumed or delivered it). Wires call it when a
// traversal lands.
func (p *Plane) Arrive(nd *Node, env *Envelope) bool {
	*nd.cur = env.Cause
	took := p.arrive(nd, env)
	*nd.cur = obs.Causal{}
	return took
}

func (p *Plane) arrive(nd *Node, env *Envelope) bool {
	msg := env.Msg
	if !p.wire.NodeUp(nd.id) {
		// A crashed node handles nothing: no interception, no
		// forwarding, no delivery.
		p.dropEnv(&p.stats.NodeDownDrops, obs.CauseNodeDown, nd, topology.None, env)
		return false
	}
	_, isData := msg.(*packet.Data)
	for _, h := range nd.handlers {
		if h.Handle(nd, msg) == Consumed {
			p.lock()
			p.stats.Consumed++
			if isData {
				p.stats.DataConsumed++
			}
			if p.obsv != nil {
				p.emit(obs.KindConsume, obs.CauseNone, nd, topology.None, msg, *nd.cur)
			}
			for _, t := range p.delTaps {
				t(nd.id, msg, true)
			}
			p.unlock()
			p.wire.Release(env)
			return true
		}
	}
	hdr := msg.Hdr()
	if hdr.Dst == nd.addr {
		p.lock()
		p.stats.Delivered++
		if isData {
			p.stats.DataDelivered++
		}
		if p.obsv != nil {
			p.emit(obs.KindDeliver, obs.CauseNone, nd, topology.None, msg, *nd.cur)
		}
		p.unlock()
		if nd.deliver != nil {
			nd.deliver(nd, msg)
		}
		p.lock()
		for _, t := range p.delTaps {
			t(nd.id, msg, false)
		}
		p.unlock()
		p.wire.Release(env)
		return true
	}
	if !hdr.Dst.IsUnicast() {
		// Undeliverable multicast destination: only handlers can
		// forward those, and none claimed it.
		p.drop(&p.stats.NoRouteDrops, obs.CauseUnclaimedMulticast, nd, topology.None, msg, *nd.cur)
		p.wire.Release(env)
		return false
	}
	p.forward(nd, env)
	return false
}

// Node is a vertex of the forwarding plane: the locus the protocol
// engines run at (it implements ProtoNode for both drivers), holding
// its resident handlers and local delivery sink. Under a concurrent
// driver every method that touches engine state must run on the
// node's own goroutine.
type Node struct {
	p        *Plane
	net      *Network // the simulator network, when that is the driver
	id       topology.NodeID
	addr     addr.Addr
	name     string
	clk      clock.Clock
	cur      *obs.Causal
	handlers []Handler
	deliver  DeliverFunc
}

// ID returns the node's topology ID.
func (nd *Node) ID() topology.NodeID { return nd.id }

// Addr returns the node's unicast address.
func (nd *Node) Addr() addr.Addr { return nd.addr }

// Name returns the node's topology label.
func (nd *Node) Name() string { return nd.name }

// Network returns the owning simulator network (nil on the live wire).
func (nd *Node) Network() *Network { return nd.net }

// Clock returns the node's timer clock (ProtoNode).
func (nd *Node) Clock() clock.Clock { return nd.clk }

// Topology returns the plane's graph (ProtoNode).
func (nd *Node) Topology() *topology.Graph { return nd.p.topo }

// Routing returns the plane's unicast substrate (ProtoNode).
func (nd *Node) Routing() unicast.Router { return nd.p.routing }

// Observer returns the attached observer, or nil (ProtoNode).
func (nd *Node) Observer() *obs.Observer { return nd.p.obsv }

// Observing reports whether an observability pipeline is attached.
// Engines check it before assembling event details that cost anything
// to build (formatted strings, slices).
func (nd *Node) Observing() bool { return nd.p.obsv != nil }

// AddHandler registers a protocol handler on the node. Handlers run in
// registration order; the first Consumed verdict wins.
func (nd *Node) AddHandler(h Handler) { nd.handlers = append(nd.handlers, h) }

// SetDeliver installs the local delivery sink.
func (nd *Node) SetDeliver(d DeliverFunc) { nd.deliver = d }

// EmitProto emits one protocol-level event at this node into the
// observability pipeline (a cheap no-op when observation is off). The
// engines use it for join interception, tree adoption, fusion, and
// table mutations; peer is the other endpoint when there is one, seq
// the data sequence number for replication events. The event is
// stamped with the ambient causal context and its (episode, step) pair
// is returned so engines can record table-entry provenance; the zero
// Causal is returned when observation is off.
func (nd *Node) EmitProto(kind obs.Kind, ch addr.Channel, peer addr.Addr, seq uint32, detail string) obs.Causal {
	p := nd.p
	o := p.obsv
	if o == nil {
		return obs.Causal{}
	}
	ev := obs.Event{
		Kind: kind, Node: nd.addr, NodeName: nd.name,
		Channel: ch, Peer: peer, Seq: seq, Detail: detail,
	}
	if peer != addr.Unspecified {
		if id, ok := p.topo.ByAddr(peer); ok {
			ev.PeerName = p.NodeName(id)
		}
	}
	p.lock()
	ev.Episode = nd.cur.Episode
	ev.ParentStep = nd.cur.Step
	ev.Step = o.NewStep()
	o.EmitLocked(ev)
	p.unlock()
	return obs.Causal{Episode: ev.Episode, Step: ev.Step}
}

// CausalContext returns the ambient causal context: the episode and
// step everything emitted right now will be attributed to. Zero
// outside packet arrivals and explicit installations.
func (nd *Node) CausalContext() obs.Causal { return *nd.cur }

// SetCausalContext installs c as the ambient causal context. Timer
// driven emitters that act on behalf of recorded state use it to
// attribute their emissions to the episode that installed the state
// (the source's periodic tree refresh attributes each tree to the join
// that installed or last refreshed its entry); callers must restore
// the previous context when done.
func (nd *Node) SetCausalContext(c obs.Causal) { *nd.cur = c }

// RootEpisode allocates a fresh causal episode and installs it as the
// ambient context when none is active (the spontaneous-action case:
// receiver join timers, soft-state expiries, fault injection). The
// previous context is returned for restoration; when an episode is
// already active, or observation is off, nothing changes.
func (nd *Node) RootEpisode() obs.Causal {
	prev := *nd.cur
	nd.p.root(nd.cur)
	return prev
}

// StampCausal fills ev's causal fields from the ambient context,
// allocating a fresh step and advancing the context to it, so whatever
// the caller emits next becomes this event's causal child. Agents that
// build events by hand (the receiver's join emission, the fault
// injector) use it; EmitProto stamps automatically. No-op when
// observation is off.
func (nd *Node) StampCausal(ev *obs.Event) { nd.p.stamp(nd.cur, ev) }

// SendUnicast originates msg at this node and forwards it hop by hop
// toward msg.Hdr().Dst using the unicast tables. The packet is
// processed by handlers at every intermediate node. Sending to oneself
// delivers locally after handler processing, with no link traversal.
func (nd *Node) SendUnicast(msg packet.Message) {
	rooted := nd.p.root(nd.cur)
	nd.p.sendUnicast(nd, msg)
	if rooted {
		*nd.cur = obs.Causal{}
	}
}

// SendDirect transmits msg over the single link to adjacent node to,
// regardless of msg's destination address. Protocol handlers use this
// to source-route copies over an explicitly constructed tree (PIM's
// native multicast forwarding, the leaf LAN hop).
func (nd *Node) SendDirect(to topology.NodeID, msg packet.Message) {
	rooted := nd.p.root(nd.cur)
	nd.p.sendDirect(nd, to, msg)
	if rooted {
		*nd.cur = obs.Causal{}
	}
}
