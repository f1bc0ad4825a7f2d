package live

import (
	"fmt"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// ladderDriver is one driver of the shared forwarding plane, reduced to
// what the table below needs: the nodes, the fault knobs, a way to make
// the first traversal land with an exhausted hop budget, the event loop
// and the counters.
type ladderDriver struct {
	sim      *eventsim.Sim
	node     func(topology.NodeID) *netsim.Node
	nodeDown func(topology.NodeID)
	linkDown func(a, b topology.NodeID)
	lowTTL   func()
	stats    func() netsim.Stats
	stop     func()
}

// eventLog records every event as one line: kind, cause, endpoints,
// sequence number and the causal stamp.
type eventLog []string

func (l *eventLog) Emit(ev obs.Event) {
	*l = append(*l, fmt.Sprintf("%g %v/%v %s>%s seq=%d ep=%d step=%d<-%d",
		float64(ev.At), ev.Kind, ev.Cause, ev.NodeName, ev.PeerName, ev.Seq,
		ev.Episode, ev.Step, ev.ParentStep))
}

// ladderGraph is a three-router line R0-R1-R2 plus an isolated R3, so
// one graph has a routable, a transit and an unreachable destination.
func ladderGraph() *topology.Graph {
	g := topology.New()
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Router, addr.RouterAddr(i), fmt.Sprintf("R%d", i))
	}
	g.AddLink(0, 1, 1, 1)
	g.AddLink(1, 2, 2, 2)
	return g
}

func netsimLadder(log *eventLog) *ladderDriver {
	g := ladderGraph()
	sim := eventsim.New()
	net := netsim.New(sim, g, unicast.Compute(g))
	o := obs.New(nil)
	o.AddSink(log)
	net.SetObserver(o)
	return &ladderDriver{
		sim:      sim,
		node:     net.Node,
		nodeDown: func(id topology.NodeID) { net.SetNodeUp(id, false) },
		linkDown: func(a, b topology.NodeID) { g.SetLinkEnabled(a, b, false) },
		lowTTL:   func() { net.SetHopLimit(1) },
		stats:    net.Stats,
		stop:     func() {},
	}
}

// ttlTransport is the synchronous in-process transport with one extra
// knob: when ttl >= 0 it overwrites the hop budget of the next frame
// it carries (a low-TTL frame on the wire).
type ttlTransport struct {
	deliver DeliverFunc
	ttl     int
}

func (t *ttlTransport) Send(_, to topology.NodeID, frame []byte) error {
	if t.ttl >= 0 {
		frame[4] = byte(t.ttl)
		t.ttl = -1
	}
	t.deliver(to, frame)
	return nil
}

func (t *ttlTransport) Close() error { return nil }

func liveLadder(log *eventLog) *ladderDriver {
	g := ladderGraph()
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	tr := &ttlTransport{deliver: rt.HandleFrame, ttl: -1}
	rt.SetTransport(tr)
	o := obs.New(nil)
	o.AddSink(log)
	rt.SetObserver(o)
	rt.Start()
	return &ladderDriver{
		sim:      sim,
		node:     rt.Node,
		nodeDown: func(id topology.NodeID) { rt.SetNodeUp(id, false) },
		linkDown: func(a, b topology.NodeID) { rt.SetLinkUp(a, b, false) },
		lowTTL:   func() { tr.ttl = 0 },
		stats:    rt.Stats,
		stop:     rt.Stop,
	}
}

func ladderData(dst addr.Addr) *packet.Data {
	return &packet.Data{
		Header: packet.Header{
			Type:    packet.TypeData,
			Channel: addr.Channel{S: addr.RouterAddr(0), G: addr.GroupAddr(0)},
			Dst:     dst,
		},
		Seq:     7,
		Payload: []byte("ladder"),
	}
}

// TestLadderBothDrivers runs every rung of the forwarding plane's
// decision ladder — each drop cause, handler consumption and local
// delivery — once through netsim and once through the live runtime's
// SimMode wire, and requires identical transport counters and an
// identical event sequence (kinds, causes, endpoints, virtual times and
// causal stamps). The ladder exists once; a divergence here means a
// wire leaked into a decision.
func TestLadderBothDrivers(t *testing.T) {
	to := func(id int) addr.Addr { return addr.RouterAddr(id) }
	send := func(dst addr.Addr) func(*ladderDriver) {
		return func(d *ladderDriver) { d.node(0).SendUnicast(ladderData(dst)) }
	}
	cases := []struct {
		name  string
		setup func(*ladderDriver)
		act   func(*ladderDriver)
		rung  func(netsim.Stats) int // the counter this case must move
	}{
		{"deliver", nil, send(to(2)), func(s netsim.Stats) int { return s.DataDelivered }},
		{"deliver-self", nil, send(to(0)), func(s netsim.Stats) int { return s.DataDelivered }},
		{"consume", func(d *ladderDriver) {
			d.node(1).AddHandler(netsim.HandlerFunc(func(netsim.ProtoNode, packet.Message) netsim.Verdict {
				return netsim.Consumed
			}))
		}, send(to(2)), func(s netsim.Stats) int { return s.DataConsumed }},
		{"node-down-sender", func(d *ladderDriver) { d.nodeDown(0) }, send(to(2)),
			func(s netsim.Stats) int { return s.NodeDownDrops }},
		{"node-down-transit", func(d *ladderDriver) { d.nodeDown(1) }, send(to(2)),
			func(s netsim.Stats) int { return s.NodeDownDrops }},
		{"non-unicast", nil, send(addr.GroupAddr(3)), func(s netsim.Stats) int { return s.NoRouteDrops }},
		{"unknown-address", nil, send(to(99)), func(s netsim.Stats) int { return s.NoRouteDrops }},
		{"unreachable", nil, send(to(3)), func(s netsim.Stats) int { return s.NoRouteDrops }},
		{"unclaimed-multicast", nil, func(d *ladderDriver) {
			d.node(0).SendDirect(1, ladderData(addr.GroupAddr(3)))
		}, func(s netsim.Stats) int { return s.NoRouteDrops }},
		{"hop-limit", func(d *ladderDriver) { d.lowTTL() }, send(to(2)),
			func(s netsim.Stats) int { return s.HopLimitDrops }},
		{"link-down", func(d *ladderDriver) { d.linkDown(1, 2) }, send(to(2)),
			func(s netsim.Stats) int { return s.LinkDownDrops }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(mk func(*eventLog) *ladderDriver) (netsim.Stats, eventLog) {
				var log eventLog
				d := mk(&log)
				defer d.stop()
				for _, id := range []topology.NodeID{0, 2} {
					d.node(id).SetDeliver(func(netsim.ProtoNode, packet.Message) {})
				}
				if tc.setup != nil {
					tc.setup(d)
				}
				tc.act(d)
				if err := d.sim.RunAll(); err != nil {
					t.Fatal(err)
				}
				return d.stats(), log
			}
			simStats, simLog := run(netsimLadder)
			liveStats, liveLog := run(liveLadder)
			if got := tc.rung(simStats); got != 1 {
				t.Errorf("netsim moved the case's counter %d times, want 1: %+v", got, simStats)
			}
			if simStats != liveStats {
				t.Errorf("stats diverged:\nnetsim %+v\nlive   %+v", simStats, liveStats)
			}
			if fmt.Sprint(simLog) != fmt.Sprint(liveLog) {
				t.Errorf("event sequences diverged:\nnetsim %q\nlive   %q", simLog, liveLog)
			}
		})
	}
}
