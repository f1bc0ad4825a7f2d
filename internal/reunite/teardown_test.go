package reunite

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/mtree"
	"hbh/internal/packet"
	"hbh/internal/topology"
)

// TestFig2Timeline walks the paper's Figure 2(a)-(d) reconfiguration
// step by step, asserting the intermediate table states:
//
//	(a) r2 joins at C (dst=r1) and is pinned to the detour
//	(b) r1 leaves -> S's r1 entry goes stale -> marked trees make C's
//	    table stale and dissolve MCT state for r1
//	(c) r2's joins escalate past the stale table and reach S
//	(d) the old state dies; r2 is served directly on the shortest path
func TestFig2Timeline(t *testing.T) {
	sc := topology.Fig2Scenario()
	g := sc.Graph
	h := newHarness(t, g)
	src := AttachSource(h.net.Node(sc.Source), addr.GroupAddr(0), h.cfg)
	r1 := core.AttachMember(h.net.Node(sc.R1), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(sc.R2), src.Channel(), h.cfg, packet.ProtoREUNITE)

	routerC := h.routerAt(2) // router C

	// Phase (a): r1 then r2 join; C becomes branching with dst=r1.
	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	if err := h.sim.Run(600); err != nil {
		t.Fatal(err)
	}
	mft := routerC.MFTFor(src.Channel())
	if mft == nil {
		t.Fatal("(a) C did not become a branching node")
	}
	if dst := mft.Dst(); dst == nil || dst.Node != r1.Addr() {
		t.Fatalf("(a) C's dst = %v, want r1", mft.Dst())
	}
	if mft.Get(r2.Addr()) == nil {
		t.Fatal("(a) r2 not grafted at C")
	}
	if mft.TableStale {
		t.Fatal("(a) C's table prematurely stale")
	}

	// Phase (b): r1 leaves. After T1 the source's r1 entry is stale
	// and marked trees flow; C's table must go stale.
	r1.Leave()
	leaveAt := h.sim.Now()
	if err := h.sim.Run(leaveAt + h.cfg.T1 + 2*h.cfg.TreeInterval); err != nil {
		t.Fatal(err)
	}
	if mft := routerC.MFTFor(src.Channel()); mft != nil && !mft.TableStale {
		t.Error("(b) C's table not stale after marked trees")
	}

	// Phase (c)/(d): r2 re-joins at S and old state dies. Eventually
	// r2 is served on the shortest path S->A->D->r2 (delay 3, not 5).
	if err := h.sim.Run(h.sim.Now() + 6*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}
	if src.MFT().Get(r2.Addr()) == nil {
		t.Error("(c) r2 did not re-join at the source")
	}
	res := mtree.Probe(h.net, func() uint32 { return src.SendData(nil) }, []mtree.Member{r2})
	if len(res.Missing) > 0 {
		t.Fatalf("(d) r2 lost: %v", res)
	}
	if got := res.Delays[r2.Addr()]; got != 3 {
		t.Errorf("(d) r2 delay = %v, want shortest-path 3", got)
	}
}

// TestMCTSingleEntrySemantics: a second receiver's tree transiting a
// node with a live MCT must NOT install state (the Figure 3 blindness)
// while a stale MCT is replaced.
func TestMCTSingleEntrySemantics(t *testing.T) {
	sc := topology.Fig3Scenario()
	g := sc.Graph
	h := newHarness(t, g)
	src := AttachSource(h.net.Node(sc.Source), addr.GroupAddr(0), h.cfg)
	r1 := core.AttachMember(h.net.Node(sc.R1), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(sc.R2), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	if err := h.sim.Run(800); err != nil {
		t.Fatal(err)
	}

	// B (router 1) carries both receivers' tree flows but must hold
	// only the first one in its MCT.
	b := h.routerAt(1)
	if mft := b.MFTFor(src.Channel()); mft != nil {
		t.Fatalf("B branched (MFT %v); joins never cross B in this scenario", mft)
	}
	mct := b.MCTFor(src.Channel())
	if mct == nil {
		t.Fatal("B has no MCT")
	}
	if mct.Node != r1.Addr() {
		t.Errorf("B's MCT = %v, want r1 (the first tree target)", mct.Node)
	}
}
