package live

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// ispDataFrame frames a data packet bound for the ISP graph's last
// host as if node from had put it on the wire.
func ispDataFrame(t testing.TB, g *topology.Graph, from topology.NodeID) []byte {
	t.Helper()
	hosts := g.Hosts()
	wire, err := packet.Marshal(&packet.Data{
		Header: packet.Header{
			Type:    packet.TypeData,
			Channel: addr.Channel{S: g.Node(hosts[0]).Addr, G: addr.GroupAddr(0)},
			Dst:     g.Node(hosts[len(hosts)-1]).Addr,
		},
		Seq:     1,
		Payload: []byte("frame"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return encodeFrame(frameMeta{from: from, ttl: 64}, wire)
}

// nonNeighbor returns a node of g other than v with no link to v.
func nonNeighbor(g *topology.Graph, v topology.NodeID) topology.NodeID {
	for id := topology.NodeID(0); int(id) < g.NumNodes(); id++ {
		if id != v && !g.HasLink(id, v) {
			return id
		}
	}
	panic("live: every node neighbours v")
}

// TestHandleFrameRejectsForeignSender pins a remote crash: the sender
// ID in a frame comes off the network, and a well-formed data frame
// naming a sender outside the topology used to index the graph
// unchecked and panic (index out of range) in the receive path, so any
// UDP peer could kill a daemon. That frame, and one from a node with no
// link to the receiver, must be counted and dropped before anything is
// scheduled.
func TestHandleFrameRejectsForeignSender(t *testing.T) {
	g := topology.ISP()
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: unicast.Compute(g), Sim: sim})
	rt.Start()
	defer rt.Stop()
	const to = 1
	for _, from := range []topology.NodeID{99999, nonNeighbor(g, to)} {
		rt.HandleFrame(to, ispDataFrame(t, g, from))
	}
	if n := sim.Pending(); n != 0 {
		t.Fatalf("rejected frames scheduled %d arrivals", n)
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st == (Stats{}) {
		t.Fatal("rejected frames went uncounted")
	}
	if st.Transmissions+st.Delivered+st.Consumed+st.NoRouteDrops != 0 {
		t.Fatalf("a rejected frame reached the forwarding plane: %+v", st)
	}
}
