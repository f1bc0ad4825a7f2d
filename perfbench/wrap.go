package main

import (
	"sync/atomic"

	"hbh/internal/clock"
	"hbh/internal/live"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// The wrappers below observe the program through interfaces it already
// accepts. Each forwards every call unchanged and only brackets it with
// a span; none reaches into production code.

// tracedRouter wraps a unicast.Router. A router handed to a runtime
// (bound == nil) attributes each lookup to the context of the node it
// is made from, which is the goroutine that forwards; a router handed
// out through tracedNode.Routing is bound to that node's context.
type tracedRouter struct {
	unicast.Router
	ctxOf func(from topology.NodeID) *tctx
	bound *tctx
	// fwd counts Reachable and NextHop calls made by the forwarding
	// plane (the unbound router only).
	fwd *atomic.Int64
}

func (r *tracedRouter) ctx(from topology.NodeID) *tctx {
	if r.bound != nil {
		return r.bound
	}
	return r.ctxOf(from)
}

func (r *tracedRouter) count() {
	if r.bound == nil && r.fwd != nil {
		r.fwd.Add(1)
	}
}

func (r *tracedRouter) NextHop(from, to topology.NodeID) topology.NodeID {
	c := r.ctx(from)
	r.count()
	c.begin(kNextHop)
	v := r.Router.NextHop(from, to)
	c.end()
	return v
}

func (r *tracedRouter) Reachable(from, to topology.NodeID) bool {
	c := r.ctx(from)
	r.count()
	c.begin(kReachable)
	v := r.Router.Reachable(from, to)
	c.end()
	return v
}

func (r *tracedRouter) Dist(from, to topology.NodeID) int {
	c := r.ctx(from)
	c.begin(kDist)
	v := r.Router.Dist(from, to)
	c.end()
	return v
}

func (r *tracedRouter) Path(from, to topology.NodeID) []topology.NodeID {
	c := r.ctx(from)
	c.begin(kPath)
	v := r.Router.Path(from, to)
	c.end()
	return v
}

func (r *tracedRouter) PathLinks(from, to topology.NodeID) [][2]topology.NodeID {
	c := r.ctx(from)
	c.begin(kPath)
	v := r.Router.PathLinks(from, to)
	c.end()
	return v
}

// tracedNode wraps the node an engine is attached to: its handlers,
// its clock and the routing it sees run inside the node's context.
type tracedNode struct {
	netsim.ProtoNode
	c   *tctx
	clk clock.Clock
	rtr unicast.Router
}

// wrapNode wraps n; routing is the untraced router the node's engines
// query through Routing.
func wrapNode(n netsim.ProtoNode, c *tctx, routing unicast.Router) *tracedNode {
	return &tracedNode{
		ProtoNode: n,
		c:         c,
		clk:       tracedClock{Clock: n.Clock(), c: c},
		rtr:       &tracedRouter{Router: routing, bound: c},
	}
}

func (n *tracedNode) AddHandler(h netsim.Handler) {
	n.ProtoNode.AddHandler(tracedHandler{h: h, c: n.c})
}

func (n *tracedNode) Clock() clock.Clock { return n.clk }

func (n *tracedNode) Routing() unicast.Router { return n.rtr }

type tracedHandler struct {
	h netsim.Handler
	c *tctx
}

func (h tracedHandler) Handle(n netsim.ProtoNode, msg packet.Message) netsim.Verdict {
	k := kHandleOther
	switch m := msg.(type) {
	case *packet.Join:
		k = kHandleJoin
	case *packet.Tree:
		k = kHandleTree
	case *packet.Fusion:
		k = kHandleFusion
	case *packet.Data:
		k = kHandleData
		if h.c.opFromPacket {
			h.c.op = uint64(m.Seq)
		}
	}
	h.c.samplePending()
	h.c.begin(k)
	v := h.h.Handle(n, msg)
	h.c.end()
	return v
}

// tracedClock counts and times timer arms; each fired timer runs as a
// core.timer span in the context of the node that armed it.
type tracedClock struct {
	clock.Clock
	c *tctx
}

func (k tracedClock) After(delay clock.Time, fn func()) clock.Handle {
	c := k.c
	c.begin(kAfter)
	h := k.Clock.After(delay, func() {
		c.begin(kTimer)
		fn()
		c.end()
	})
	c.end()
	return h
}

// tracedTransport wraps a live.Transport: Send runs in the sending
// node's context; errors, frames and bytes are counted.
type tracedTransport struct {
	live.Transport
	ctxOf  func(from topology.NodeID) *tctx
	frames atomic.Int64
	bytes  atomic.Int64
	errs   atomic.Int64
}

func (t *tracedTransport) Send(from, to topology.NodeID, frame []byte) error {
	c := t.ctxOf(from)
	c.begin(kSend)
	err := t.Transport.Send(from, to, frame)
	c.end()
	if c.tr.on.Load() {
		t.frames.Add(1)
		t.bytes.Add(int64(len(frame)))
		if err != nil {
			t.errs.Add(1)
		}
	}
	return err
}

// tracedDeliver wraps the transport's DeliverFunc: each received frame
// is handed to the runtime inside the receive goroutine's context.
func tracedDeliver(d live.DeliverFunc, ctxOf func(to topology.NodeID) *tctx) live.DeliverFunc {
	return func(to topology.NodeID, frame []byte) {
		c := ctxOf(to)
		c.begin(kDeliver)
		d(to, frame)
		c.end()
	}
}
