package reunite

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/mtree"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// TestDataAlwaysAddressedToReceivers pins down the defining wire-level
// difference between REUNITE and HBH (paper §3): REUNITE data packets
// are always addressed to RECEIVERS (the dst receiver or a grafted
// member), never to routers — "in REUNITE data is addressed to
// MFT<S>.dst", whereas HBH addresses data to the next branching
// ROUTER.
func TestDataAlwaysAddressedToReceivers(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)
	src := AttachSource(h.net.Node(hostOf(g, 0)), addr.GroupAddr(0), h.cfg)
	r2 := core.AttachMember(h.net.Node(hostOf(g, 2)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r4 := core.AttachMember(h.net.Node(hostOf(g, 4)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	bad := 0
	h.net.AddTap(func(from, to topology.NodeID, msg packet.Message) {
		if d, ok := msg.(*packet.Data); ok {
			if id, found := g.ByAddr(d.Dst); !found || g.Node(id).Kind != topology.Host {
				bad++
			}
		}
	})
	res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) },
		[]mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete: %v", res)
	}
	if bad != 0 {
		t.Errorf("%d data transmissions addressed to non-hosts (REUNITE must address receivers)", bad)
	}
}
