package experiment

import "testing"

// TestDepartureRecovery: the stability experiment's `disrupted` column
// counts remaining members that miss a probe sent right after the
// departure settling window. This test pins down that the disruption
// is TRANSIENT: with retry probes every few intervals, every remaining
// member is served again shortly after, for both protocols.
func TestDepartureRecovery(t *testing.T) {
	for _, p := range []Protocol{HBH, REUNITE} {
		recovered, total := 0, 0
		for run := 0; run < 15; run++ {
			seed := int64(100 + run*7919)
			sp := runSpec(RunConfig{Topo: TopoISP, Protocol: p, Receivers: 8, Seed: seed})
			s := newSession(sp)
			s.converge(defaultConvergeIntervals)
			s.rcvs[sp.rng.Intn(len(s.rcvs))].Leave()
			if err := s.sim.Run(s.sim.Now() + s.settleOut); err != nil {
				t.Fatal(err)
			}
			// Retry-probe the remaining members until served.
			total++
			for attempt := 0; attempt < 5; attempt++ {
				res := s.Probe()
				if len(res.Missing) == 0 {
					recovered++
					break
				}
				if err := s.sim.Run(s.sim.Now() + 8*s.interval); err != nil {
					t.Fatal(err)
				}
			}
		}
		if recovered != total {
			t.Errorf("%s: only %d/%d departures recovered full delivery", p, recovered, total)
		}
	}
}
