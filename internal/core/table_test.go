package core

import (
	"strings"
	"testing"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/eventsim"
)

func newTimer(sim *eventsim.Sim) *clock.SoftTimer {
	return clock.NewSoftTimer(clock.Sim(sim), 100, 100, nil, nil)
}

func TestMFTOrderAndIndex(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	addrs := []addr.Addr{10, 30, 20, 40}
	for _, a := range addrs {
		mft.Add(a, newTimer(sim))
	}
	if mft.Len() != 4 {
		t.Fatalf("Len = %d", mft.Len())
	}
	// Iteration must follow insertion order (determinism).
	for i, e := range mft.Entries() {
		if e.Node != addrs[i] {
			t.Fatalf("entry %d = %v, want %v", i, e.Node, addrs[i])
		}
	}
	nodes := mft.Nodes()
	for i, a := range addrs {
		if nodes[i] != a {
			t.Fatalf("Nodes()[%d] = %v, want %v", i, nodes[i], a)
		}
	}
	if mft.Get(20) == nil || mft.Get(99) != nil {
		t.Error("Get broken")
	}
}

func TestMFTRemove(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	for _, a := range []addr.Addr{1, 2, 3} {
		mft.Add(a, newTimer(sim))
	}
	if !mft.Remove(2) {
		t.Fatal("Remove existing returned false")
	}
	if mft.Remove(2) {
		t.Fatal("Remove absent returned true")
	}
	if mft.Len() != 2 || mft.Get(2) != nil {
		t.Error("entry not removed")
	}
	// Order of survivors preserved.
	es := mft.Entries()
	if es[0].Node != 1 || es[1].Node != 3 {
		t.Errorf("order after remove: %v, %v", es[0].Node, es[1].Node)
	}
}

func TestMFTDuplicatePanics(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	mft.Add(1, newTimer(sim))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	mft.Add(1, newTimer(sim))
}

func TestMFTDestroyCancelsTimers(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	fired := false
	timer := clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { fired = true })
	mft.Add(1, timer)
	mft.Destroy()
	if mft.Len() != 0 {
		t.Error("table not emptied")
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("timer fired after Destroy")
	}
}

func TestMFTString(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	e := mft.Add(addr.MustParse("10.1.0.1"), newTimer(sim))
	e.Marked = true
	s := mft.String()
	if !strings.Contains(s, "10.1.0.1") || !strings.Contains(s, "(m)") {
		t.Errorf("String = %q", s)
	}
	// Stale marker.
	mft2 := NewMFT()
	e2 := mft2.Add(addr.MustParse("10.1.0.2"), newTimer(sim))
	e2.Timer.ForceStale()
	if !strings.Contains(mft2.String(), "*") {
		t.Errorf("String = %q, missing stale marker", mft2.String())
	}
}

// TestConfigValidate checks the shared Timing.Validate that both HBH's
// Config and REUNITE's routers, sources and receivers run.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Timing{
		{JoinInterval: 0, TreeInterval: 100, T1: 350, T2: 350},
		{JoinInterval: 100, TreeInterval: 0, T1: 350, T2: 350},
		{JoinInterval: 100, TreeInterval: 100, T1: 50, T2: 350}, // T1 < interval
		{JoinInterval: 100, TreeInterval: 100, T1: 350, T2: 0},
		{JoinInterval: 0, TreeInterval: 1, T1: 10, T2: 10},
		{JoinInterval: 1, TreeInterval: 1, T1: 1, T2: 10}, // T1 == interval
		{JoinInterval: 1, TreeInterval: 1, T1: 10, T2: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad timing %d accepted", i)
		}
		if err := (Config{Timing: c}).Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
