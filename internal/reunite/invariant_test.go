package reunite

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/mtree"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// TestCheckerAsymmetric runs the REUNITE invariant profile over the
// Figure 2 pathology: the tree is pinned to a non-shortest path — that
// is measured, not flagged — but it must still be structurally sound
// and loop-free.
func TestCheckerAsymmetric(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	chk := h.watch(src)
	r1 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(3))), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	chk.SetMembers([]addr.Addr{r1.Addr(), r2.Addr()})
	chk.CheckConverged(res.Seq)
	if !chk.Clean() {
		t.Fatalf("checker found violations on the pinned REUNITE tree:\n%s", chk.Report())
	}
}

// TestCheckerDupGraph runs the profile over the Figure 3 duplication
// topology: REUNITE puts two copies on the A->B trunk, which the
// profile deliberately permits, but the per-node replication guard must
// keep the reconstructed delivery tree loop-free.
func TestCheckerDupGraph(t *testing.T) {
	g := dupGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	chk := h.watch(src)
	r1 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(3))), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	chk.SetMembers([]addr.Addr{r1.Addr(), r2.Addr()})
	chk.CheckConverged(res.Seq)
	if !chk.Clean() {
		t.Fatalf("checker found violations on the Fig. 3 tree:\n%s", chk.Report())
	}
}

// TestQuiescentAfterAllLeave is REUNITE's soft-state leak audit: once
// both receivers go silent and the timers run out, no router may hold
// channel state — MCT, MFT, or the dedup window maybeDrop used to leave
// behind.
func TestQuiescentAfterAllLeave(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)
	srcHost := hostOf(g, 0)

	src := AttachSource(h.net.Node(srcHost), addr.GroupAddr(0), h.cfg)
	chk := h.watch(src)
	r2 := core.AttachMember(h.net.Node(hostOf(g, 2)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r4 := core.AttachMember(h.net.Node(hostOf(g, 4)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	h.sim.At(10, r2.Join)
	h.sim.At(130, r4.Join)
	h.converge(t)

	// Data through the branching router populates its dedup window.
	res := h.probe(t, src, []mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete delivery before teardown: %v", res)
	}

	r2.Leave()
	r4.Leave()
	if err := h.sim.Run(h.sim.Now() + 6*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}

	chk.CheckQuiescent()
	if !chk.Clean() {
		t.Fatalf("soft state leaked after all receivers left:\n%s", chk.Report())
	}
}

// TestRejoinReplay is the REUNITE half of the dedup-window regression:
// a branching router that replicated a sequence number, saw the channel
// torn down, and later branches again for the rebuilt tree must
// replicate that sequence number anew. Before the maybeDrop fix the
// stale window silently starved every non-dst member of the replay.
func TestRejoinReplay(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)
	srcHost := hostOf(g, 0)

	src := AttachSource(h.net.Node(srcHost), addr.GroupAddr(0), h.cfg)
	ch := src.Channel()
	h.watch(src)
	r2 := core.AttachMember(h.net.Node(hostOf(g, 2)), ch, h.cfg, packet.ProtoREUNITE)
	r4 := core.AttachMember(h.net.Node(hostOf(g, 4)), ch, h.cfg, packet.ProtoREUNITE)
	h.sim.At(10, r2.Join)
	h.sim.At(130, r4.Join)
	h.converge(t)

	// Seq 0 is replicated at the branching router R2, entering its
	// window.
	first := h.probe(t, src, []mtree.Member{r2, r4})
	if !first.Complete() {
		t.Fatalf("incomplete delivery before teardown: %v", first)
	}
	branching := h.routerAt(2)
	if branching.MFTFor(ch) == nil {
		t.Fatalf("expected R2 to be the branching router")
	}

	// Full teardown by silence, then the same receivers rebuild the
	// same tree.
	r2.Leave()
	r4.Leave()
	if err := h.sim.Run(h.sim.Now() + 6*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}
	r2.Join()
	h.sim.At(h.sim.Now()+120, r4.Join)
	h.converge(t)
	if branching.MFTFor(ch) == nil {
		t.Fatalf("expected R2 to branch again after rejoin")
	}

	// Replay sequence number 0 — a source restart resets its counter,
	// so old sequence numbers legitimately reappear on the wire. The
	// copy is addressed to the tree's dst, exactly as SendData would.
	r2.ResetDeliveries()
	r4.ResetDeliveries()
	dst := branching.MFTFor(ch).Dst()
	if dst == nil {
		t.Fatalf("branching router has no dst")
	}
	replay := &packet.Data{
		Header: packet.Header{
			Proto:   packet.ProtoNone,
			Type:    packet.TypeData,
			Channel: ch,
			Src:     ch.S,
			Dst:     dst.Node,
		},
		Seq:     0,
		Payload: []byte("replay"),
	}
	h.net.NodeByAddr(ch.S).SendUnicast(replay)
	if err := h.sim.Run(h.sim.Now() + 50); err != nil {
		t.Fatal(err)
	}
	if got := r2.DeliveryCount(0); got != 1 {
		t.Errorf("r2 replay deliveries = %d, want 1", got)
	}
	if got := r4.DeliveryCount(0); got != 1 {
		t.Errorf("r4 replay deliveries = %d, want 1 (stale dedup window starved the replica?)", got)
	}
}
