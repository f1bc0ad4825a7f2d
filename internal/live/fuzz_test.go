package live

import (
	"testing"

	"hbh/internal/eventsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// FuzzFrame feeds arbitrary bytes to HandleFrame on a SimMode runtime
// over the ISP graph, with counters and latency histograms attached so
// the stamp fields are exercised too. The oracle: nothing panics, and
// every frame either is counted exactly once — under the cause an
// independent decode predicts (codec, sender out of range, sender not
// adjacent) — with nothing scheduled, or schedules exactly one arrival
// whose packet then ends on exactly one terminal rung of the ladder,
// with no frame the plane re-encodes on the way rejected downstream.
func FuzzFrame(f *testing.F) {
	g := topology.ISP()
	routing := unicast.Compute(g)
	const to = 1
	valid := ispDataFrame(f, g, g.Neighbors(to)[0].To)
	f.Add(valid)
	f.Add(ispDataFrame(f, g, 99999)) // once panicked: sender index out of range
	f.Add(ispDataFrame(f, g, nonNeighbor(g, to)))
	spent := append([]byte(nil), valid...)
	spent[4] = 0 // no hop budget left
	f.Add(spent)
	f.Add(valid[:frameOverhead-1])
	f.Fuzz(func(t *testing.T, frame []byte) {
		sim := eventsim.New()
		rt := New(Config{Graph: g, Routing: routing, Sim: sim})
		o := obs.New(nil)
		o.EnableLatency()
		rt.SetObserver(o)
		rt.Start()
		defer rt.Stop()

		var want Stats
		fm, _, err := decodeFrame(frame)
		switch {
		case err != nil:
			want.CodecDrops = 1
		case int(fm.from) >= g.NumNodes():
			want.RangeRejects = 1
		case !g.HasLink(fm.from, to):
			want.AdjRejects = 1
		}
		rt.HandleFrame(to, frame)
		st, pending := rt.Stats(), sim.Pending()
		if want != (Stats{}) {
			if st != want || pending != 0 {
				t.Fatalf("rejected frame: stats %+v with %d arrivals scheduled, want %+v and none", st, pending, want)
			}
			return
		}
		if st != (Stats{}) || pending != 1 {
			t.Fatalf("accepted frame: stats %+v with %d arrivals scheduled, want none and one", st, pending)
		}
		if err := sim.RunAll(); err != nil {
			t.Fatal(err)
		}
		st = rt.Stats()
		if n := st.CodecDrops + st.RangeRejects + st.AdjRejects + st.SendErrors; n != 0 {
			t.Fatalf("a frame the plane re-encoded was rejected downstream: %+v", st)
		}
		ends := st.Consumed + st.Delivered + st.HopLimitDrops + st.NoRouteDrops + st.LinkDownDrops + st.NodeDownDrops
		if ends != 1 {
			t.Fatalf("accepted frame ended %d times, want once: %+v", ends, st)
		}
	})
}
