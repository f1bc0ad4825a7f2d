package live

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/reunite"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// These tests pin the central claim of the live runtime: executed
// under the simulated clock and the in-process transport, the
// unmodified protocol engines produce byte-identical protocol tables
// and delivery sets to the netsim path, even though every packet now
// crosses the real wire codec and the transport framing. The dumps
// are additionally pinned as goldens alongside results/quick/ so a
// semantic drift in either execution path fails loudly.

var equivGroup = addr.GroupAddr(0)

// equivScript is the deterministic driver both paths execute: join
// times, data send times and the settle horizon, all in virtual units.
type equivScript struct {
	joins   map[topology.NodeID]eventsim.Time // receiver host -> join time
	sends   []eventsim.Time
	horizon eventsim.Time
}

// dumpHBH renders the final protocol state of an HBH run.
func dumpHBH(g *topology.Graph, routers map[topology.NodeID]*core.Router,
	src *core.Source, receivers map[topology.NodeID]*core.Receiver, ch addr.Channel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "channel %v\n", ch)
	fmt.Fprintf(&b, "source mft=%s\n", src.MFT().String())
	for _, id := range g.Routers() {
		r := routers[id]
		mft, mct := "-", "-"
		if t := r.MFTFor(ch); t != nil && t.Len() > 0 {
			var e []string
			for _, en := range t.Entries() {
				s := en.Node.String()
				if en.Marked {
					s += "(m)"
				}
				if en.ServedBy != addr.Unspecified {
					s += "<-" + en.ServedBy.String()
				}
				e = append(e, s)
			}
			mft = "[" + strings.Join(e, " ") + "]"
		}
		if c := r.MCTFor(ch); c != nil {
			mct = c.Node.String()
		}
		fmt.Fprintf(&b, "router %s mft=%s mct=%s\n", g.Node(id).Name, mft, mct)
	}
	for _, id := range hostOrder(g, receivers) {
		r := receivers[id]
		var ds []string
		for _, d := range r.Deliveries {
			ds = append(ds, fmt.Sprintf("%d@%g", d.Seq, float64(d.At)))
		}
		fmt.Fprintf(&b, "receiver %s dups=%d deliveries=[%s]\n",
			g.Node(id).Name, r.DupCount, strings.Join(ds, " "))
	}
	return b.String()
}

func hostOrder(g *topology.Graph, m map[topology.NodeID]*core.Receiver) []topology.NodeID {
	var ids []topology.NodeID
	for _, h := range g.Hosts() {
		if _, ok := m[h]; ok {
			ids = append(ids, h)
		}
	}
	return ids
}

// runHBHNetsim executes the script on the reference netsim path.
func runHBHNetsim(t *testing.T, build func() (*topology.Graph, topology.NodeID), script equivScript) string {
	t.Helper()
	g, srcHost := build()
	routing := unicast.Compute(g)
	sim := eventsim.New()
	net := netsim.New(sim, g, routing)
	cfg := core.DefaultConfig()
	routers := make(map[topology.NodeID]*core.Router)
	for _, r := range g.Routers() {
		routers[r] = core.AttachRouter(net.Node(r), cfg)
	}
	src := core.AttachSource(net.Node(srcHost), equivGroup, cfg)
	receivers := make(map[topology.NodeID]*core.Receiver)
	for h, at := range script.joins {
		rcv := core.AttachReceiver(net.Node(h), src.Channel(), cfg)
		receivers[h] = rcv
		sim.At(at, rcv.Join)
	}
	for _, at := range script.sends {
		sim.At(at, func() { src.SendData([]byte("equiv")) })
	}
	if err := sim.Run(script.horizon); err != nil {
		t.Fatalf("netsim path: %v", err)
	}
	return dumpHBH(g, routers, src, receivers, src.Channel())
}

// runHBHLive executes the same script on the live runtime under the
// simulated clock + in-process synchronous transport.
func runHBHLive(t *testing.T, build func() (*topology.Graph, topology.NodeID), script equivScript) string {
	t.Helper()
	g, srcHost := build()
	routing := unicast.Compute(g)
	sim := eventsim.New()
	rt := New(Config{Graph: g, Routing: routing, Sim: sim})
	cfg := core.DefaultConfig()
	routers := make(map[topology.NodeID]*core.Router)
	for _, r := range g.Routers() {
		routers[r] = core.AttachRouter(rt.Node(r), cfg)
	}
	src := core.AttachSource(rt.Node(srcHost), equivGroup, cfg)
	receivers := make(map[topology.NodeID]*core.Receiver)
	for h, at := range script.joins {
		rcv := core.AttachReceiver(rt.Node(h), src.Channel(), cfg)
		receivers[h] = rcv
		sim.At(at, rcv.Join)
	}
	for _, at := range script.sends {
		sim.At(at, func() { src.SendData([]byte("equiv")) })
	}
	rt.Start()
	defer rt.Stop()
	if err := sim.Run(script.horizon); err != nil {
		t.Fatalf("live path: %v", err)
	}
	return dumpHBH(g, routers, src, receivers, src.Channel())
}

// goldenCompare pins got against results/quick/<name>, regenerating
// under HBH_UPDATE_GOLDEN=1 (matching the cmd e2e suites).
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "results", "quick", name)
	if os.Getenv("HBH_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (run with HBH_UPDATE_GOLDEN=1): %v", name, err)
	}
	if string(want) != got {
		t.Errorf("golden %s drifted:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

func fig3Build() (*topology.Graph, topology.NodeID, topology.NodeID, topology.NodeID) {
	sc := topology.Fig3Scenario()
	return sc.Graph, sc.Source, sc.R1, sc.R2
}

func TestEquivalenceHBHFig3(t *testing.T) {
	var r1, r2 topology.NodeID
	build := func() (*topology.Graph, topology.NodeID) {
		g, s, a, b := fig3Build()
		r1, r2 = a, b
		return g, s
	}
	// Resolve receiver IDs once for the script (same on both builds —
	// the scenario constructor is deterministic).
	build()
	script := equivScript{
		joins:   map[topology.NodeID]eventsim.Time{r1: 10, r2: 130},
		sends:   []eventsim.Time{450, 460, 470},
		horizon: 600,
	}
	ref := runHBHNetsim(t, build, script)
	live := runHBHLive(t, build, script)
	if ref != live {
		t.Fatalf("live execution diverged from netsim:\n--- netsim ---\n%s--- live ---\n%s", ref, live)
	}
	goldenCompare(t, "live_equivalence_fig3_hbh.txt", live)
}

func TestEquivalenceHBHISP(t *testing.T) {
	build := func() (*topology.Graph, topology.NodeID) {
		g := topology.ISP()
		hosts := g.Hosts()
		return g, hosts[0]
	}
	g := topology.ISP()
	hosts := g.Hosts()
	script := equivScript{
		joins: map[topology.NodeID]eventsim.Time{
			hosts[3]:  10,
			hosts[7]:  40,
			hosts[11]: 70,
			hosts[5]:  250, // joins after the first fusion cycle
		},
		sends:   []eventsim.Time{500, 510, 520},
		horizon: 700,
	}
	ref := runHBHNetsim(t, build, script)
	live := runHBHLive(t, build, script)
	if ref != live {
		t.Fatalf("live execution diverged from netsim:\n--- netsim ---\n%s--- live ---\n%s", ref, live)
	}
	goldenCompare(t, "live_equivalence_isp_hbh.txt", live)
}

// TestEquivalenceREUNITEFig3 repeats the exercise for the second
// protocol: the runtime is engine-agnostic, so equivalence must hold
// for REUNITE's interception semantics too.
func TestEquivalenceREUNITEFig3(t *testing.T) {
	type world struct {
		g         *topology.Graph
		routers   map[topology.NodeID]*reunite.Router
		src       *reunite.Source
		receivers map[topology.NodeID]*core.Receiver
	}
	run := func(liveMode bool) string {
		sc := topology.Fig3Scenario()
		g := sc.Graph
		routing := unicast.Compute(g)
		sim := eventsim.New()
		var node func(topology.NodeID) netsim.ProtoNode
		var rt *Runtime
		if liveMode {
			rt = New(Config{Graph: g, Routing: routing, Sim: sim})
			node = func(id topology.NodeID) netsim.ProtoNode { return rt.Node(id) }
		} else {
			net := netsim.New(sim, g, routing)
			node = func(id topology.NodeID) netsim.ProtoNode { return net.Node(id) }
		}
		w := world{g: g, routers: make(map[topology.NodeID]*reunite.Router),
			receivers: make(map[topology.NodeID]*core.Receiver)}
		cfg := core.DefaultTiming()
		for _, r := range g.Routers() {
			w.routers[r] = reunite.AttachRouter(node(r), cfg)
		}
		w.src = reunite.AttachSource(node(sc.Source), equivGroup, cfg)
		for h, at := range map[topology.NodeID]eventsim.Time{sc.R1: 10, sc.R2: 130} {
			rcv := core.AttachMember(node(h), w.src.Channel(), cfg, packet.ProtoREUNITE)
			w.receivers[h] = rcv
			sim.At(at, rcv.Join)
		}
		for _, at := range []eventsim.Time{450, 460, 470} {
			sim.At(at, func() { w.src.SendData([]byte("equiv")) })
		}
		if liveMode {
			rt.Start()
			defer rt.Stop()
		}
		if err := sim.Run(600); err != nil {
			t.Fatalf("run: %v", err)
		}
		var b strings.Builder
		for _, id := range g.Routers() {
			mft := "-"
			if tb := w.routers[id].MFTFor(w.src.Channel()); tb != nil {
				mft = tb.String()
			}
			fmt.Fprintf(&b, "router %s mft=%s\n", g.Node(id).Name, mft)
		}
		for _, h := range []topology.NodeID{sc.R1, sc.R2} {
			rcv := w.receivers[h]
			var ds []string
			for seq := uint32(1); seq <= 3; seq++ {
				if at, ok := rcv.DeliveryAt(seq); ok {
					ds = append(ds, fmt.Sprintf("%d@%g(x%d)", seq, float64(at), rcv.DeliveryCount(seq)))
				}
			}
			fmt.Fprintf(&b, "receiver %s deliveries=[%s]\n", g.Node(h).Name, strings.Join(ds, " "))
		}
		return b.String()
	}
	ref := run(false)
	live := run(true)
	if ref != live {
		t.Fatalf("live REUNITE diverged from netsim:\n--- netsim ---\n%s--- live ---\n%s", ref, live)
	}
	goldenCompare(t, "live_equivalence_fig3_reunite.txt", live)
}
