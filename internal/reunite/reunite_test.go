package reunite

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/invariant"
	"hbh/internal/mtree"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

type harness struct {
	sim      *eventsim.Sim
	g        *topology.Graph
	routing  *unicast.Routing
	net      *netsim.Network
	cfg      core.Timing
	routers  map[topology.NodeID]*Router
	checkers []*invariant.Checker
}

func newHarness(t *testing.T, g *topology.Graph) *harness {
	t.Helper()
	h := &harness{
		sim: eventsim.New(), g: g, cfg: core.DefaultTiming(),
		routers: make(map[topology.NodeID]*Router),
	}
	h.routing = unicast.Compute(g)
	h.net = netsim.New(h.sim, g, h.routing)
	for _, r := range g.Routers() {
		h.routers[r] = AttachRouter(h.net.Node(r), h.cfg)
	}
	t.Cleanup(func() {
		for _, c := range h.checkers {
			if !c.Clean() {
				t.Errorf("%s", c.Report())
			}
		}
	})
	return h
}

// watch puts src's channel under the invariant checker (the REUNITE
// profile: structural, loop-freedom and leak invariants — tree-shape
// guarantees are what the protocol lacks by design). Violations fail
// the test at cleanup.
func (h *harness) watch(src *Source) *invariant.Checker {
	routers := make([]*Router, 0, len(h.routers))
	for _, id := range h.g.Routers() {
		routers = append(routers, h.routers[id])
	}
	chk := invariant.New(h.net, src.Channel(), invariant.ProfileREUNITE(), NewAudit(src, routers))
	h.checkers = append(h.checkers, chk)
	obs := func(addr.Addr, addr.Channel, core.ChangeKind, addr.Addr) {
		for _, c := range h.checkers {
			c.MarkDirty()
		}
	}
	src.SetObserver(obs)
	for _, r := range routers {
		r.SetObserver(obs)
	}
	invariant.InstallContinuous(h.sim, h.checkers...)
	return chk
}

// routerAt returns the Router attached to the given node.
func (h *harness) routerAt(id topology.NodeID) *Router { return h.routers[id] }

func (h *harness) converge(t *testing.T) {
	t.Helper()
	if err := h.sim.Run(h.sim.Now() + 40*h.cfg.TreeInterval); err != nil {
		t.Fatalf("converge: %v", err)
	}
}

func (h *harness) probe(t *testing.T, src *Source, members []mtree.Member) *mtree.Result {
	t.Helper()
	return mtree.Probe(h.net, func() uint32 { return src.SendData([]byte("probe")) }, members)
}

func hostOf(g *topology.Graph, r int) topology.NodeID {
	for _, hID := range g.Hosts() {
		if g.AttachedRouter(hID) == topology.NodeID(r) {
			return hID
		}
	}
	panic("no host")
}

// asymGraph is the Figure 2 pathology topology: r2's join path to S
// crosses C, which lies on r1's tree branch, while the forward
// shortest path S->r2 goes A->D. See topology.Fig2Scenario.
func asymGraph() *topology.Graph {
	return topology.Fig2Scenario().Graph
}

// dupGraph is the Figure 3 pathology topology: the trees to r1 and r2
// share the trunk A-B, but r2's join path (D->E->A) bypasses B, so
// REUNITE never detects B as a branching node and puts two copies of
// every data packet on A->B. See topology.Fig3Scenario.
func dupGraph() *topology.Graph {
	return topology.Fig3Scenario().Graph
}

// TestReversePathPinning reproduces Figure 2(a): r2's join is
// intercepted at C on r1's branch, so r2 receives data over the longer
// C-D path instead of the shortest A-D path.
func TestReversePathPinning(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r1Host := g.MustByAddr(addr.ReceiverAddr(2))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := core.AttachMember(h.net.Node(r1Host), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(r2Host), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	// r1 is on its shortest path (it joined at S).
	if got, want := res.Delays[r1.Addr()], eventsim.Time(h.routing.Dist(sHost, r1Host)); got != want {
		t.Errorf("r1 delay = %v, want %v", got, want)
	}
	// r2 is pinned to the reverse-path detour through C: delay 5, not
	// the shortest-path 3. This asymmetry penalty is exactly what HBH
	// avoids (see the core package's TestAsymmetricShortestPath).
	if got := res.Delays[r2.Addr()]; got != 5 {
		t.Errorf("r2 delay = %v, want 5 (the detour via C)\n%s", got, res.FormatTree(g))
	}
	if sp := eventsim.Time(h.routing.Dist(sHost, r2Host)); sp != 3 {
		t.Fatalf("topology broken: shortest S->r2 = %v, want 3", sp)
	}
}

// TestDepartureRouteChange walks Figure 2(b)-(d): after r1 leaves,
// marked tree messages dissolve the stale state, r2 re-joins at S, and
// r2's route CHANGES to the shortest path — the instability the paper
// criticises (HBH keeps remaining members' routes unchanged).
func TestDepartureRouteChange(t *testing.T) {
	g := asymGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))
	r2Host := g.MustByAddr(addr.ReceiverAddr(3))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(r2Host), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	before := h.probe(t, src, []mtree.Member{r1, r2})
	if got := before.Delays[r2.Addr()]; got != 5 {
		t.Fatalf("pre-departure r2 delay = %v, want 5", got)
	}

	r1.Leave()
	if err := h.sim.Run(h.sim.Now() + 4*(h.cfg.T1+h.cfg.T2)); err != nil {
		t.Fatal(err)
	}

	after := h.probe(t, src, []mtree.Member{r2})
	if len(after.Missing) != 0 {
		t.Fatalf("r2 lost after r1's departure: %v", after)
	}
	want := eventsim.Time(h.routing.Dist(sHost, r2Host))
	if got := after.Delays[r2.Addr()]; got != want {
		t.Errorf("post-departure r2 delay = %v, want shortest-path %v (route should have changed)\n%s",
			got, want, after.FormatTree(g))
	}
}

// TestLinkDuplication reproduces Figure 3: the A->B trunk carries two
// copies of every data packet because REUNITE cannot place a branching
// node at B.
func TestLinkDuplication(t *testing.T) {
	g := dupGraph()
	h := newHarness(t, g)
	sHost := g.MustByAddr(addr.ReceiverAddr(0))

	src := AttachSource(h.net.Node(sHost), addr.GroupAddr(0), h.cfg)
	r1 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(2))), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r2 := core.AttachMember(h.net.Node(g.MustByAddr(addr.ReceiverAddr(3))), src.Channel(), h.cfg, packet.ProtoREUNITE)

	h.sim.At(10, r1.Join)
	h.sim.At(130, r2.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r1, r2})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	ab := mtree.Link{From: 0, To: 1} // A -> B
	if got := res.LinkCopies[ab]; got != 2 {
		t.Errorf("copies on A->B = %d, want 2 (the Fig. 3 duplication)\n%s", got, res.FormatTree(g))
	}
	if res.Cost != 7 {
		t.Errorf("tree cost = %d, want 7\n%s", res.Cost, res.FormatTree(g))
	}
}

// TestBasicLine checks plain delivery on a symmetric chain.
func TestBasicLine(t *testing.T) {
	g := topology.Line(5, true)
	h := newHarness(t, g)
	srcHost := hostOf(g, 0)
	src := AttachSource(h.net.Node(srcHost), addr.GroupAddr(0), h.cfg)
	r2 := core.AttachMember(h.net.Node(hostOf(g, 2)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	r4 := core.AttachMember(h.net.Node(hostOf(g, 4)), src.Channel(), h.cfg, packet.ProtoREUNITE)
	h.sim.At(10, r2.Join)
	h.sim.At(25, r4.Join)
	h.converge(t)

	res := h.probe(t, src, []mtree.Member{r2, r4})
	if !res.Complete() {
		t.Fatalf("incomplete delivery: %v", res)
	}
	if got, want := res.Delays[r2.Addr()], eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 2))); got != want {
		t.Errorf("r2 delay = %v, want %v", got, want)
	}
	if got, want := res.Delays[r4.Addr()], eventsim.Time(h.routing.Dist(srcHost, hostOf(g, 4))); got != want {
		t.Errorf("r4 delay = %v, want %v", got, want)
	}
	// Symmetric chain: R2 is the branching node, one copy per link.
	if res.Cost != 7 {
		t.Errorf("cost = %d, want 7\n%s", res.Cost, res.FormatTree(g))
	}
	if res.MaxLinkCopies() != 1 {
		t.Errorf("unexpected duplication on symmetric chain:\n%s", res.FormatTree(g))
	}
}

// TestConfigValidate checks that REUNITE's routers, sources and
// receivers accept the shared default timing and refuse to attach
// under nonsensical timing.
func TestConfigValidate(t *testing.T) {
	attach := func(cfg core.Timing) (err any) {
		defer func() { err = recover() }()
		g := topology.Line(2, true)
		net := netsim.New(eventsim.New(), g, unicast.Compute(g))
		AttachRouter(net.Node(g.Routers()[0]), cfg)
		src := AttachSource(net.Node(hostOf(g, 0)), addr.GroupAddr(0), cfg)
		core.AttachMember(net.Node(hostOf(g, 1)), src.Channel(), cfg, packet.ProtoREUNITE)
		return nil
	}
	if err := attach(core.DefaultTiming()); err != nil {
		t.Errorf("default timing refused: %v", err)
	}
	bad := []core.Timing{
		{JoinInterval: 0, TreeInterval: 1, T1: 10, T2: 10},
		{JoinInterval: 1, TreeInterval: 1, T1: 1, T2: 10},
		{JoinInterval: 1, TreeInterval: 1, T1: 10, T2: 0},
	}
	for i, c := range bad {
		if attach(c) == nil {
			t.Errorf("bad timing %d accepted", i)
		}
	}
}
