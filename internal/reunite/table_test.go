package reunite

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

func TestMFTDstIsFirstEntry(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	if mft.Dst() != nil {
		t.Error("empty table has a dst")
	}
	mft.Add(10, newTimer(sim))
	mft.Add(20, newTimer(sim))
	mft.Add(30, newTimer(sim))
	if mft.Dst().Node != 10 {
		t.Errorf("dst = %v, want 10 (first joiner)", mft.Dst().Node)
	}
	// Removing dst promotes the next-oldest entry.
	mft.Remove(10)
	if mft.Dst().Node != 20 {
		t.Errorf("dst after removal = %v, want 20", mft.Dst().Node)
	}
	if mft.Len() != 2 {
		t.Errorf("Len = %d", mft.Len())
	}
}

func TestMFTIndex(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	mft.Add(1, newTimer(sim))
	if mft.Get(1) == nil || mft.Get(2) != nil {
		t.Error("Get broken")
	}
	if mft.Remove(2) {
		t.Error("Remove absent returned true")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	mft.Add(1, newTimer(sim))
}

func TestMFTDestroy(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	expired := false
	mft.Add(1, clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { expired = true }))
	mft.Liveness = clock.NewSoftTimer(clock.Sim(sim), 10, 10, nil, func() { expired = true })
	mft.Destroy()
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if expired {
		t.Error("timers fired after Destroy")
	}
	if mft.Len() != 0 {
		t.Error("table not emptied")
	}
}

func TestMFTString(t *testing.T) {
	sim := eventsim.New()
	mft := NewMFT()
	mft.Add(addr.MustParse("10.1.0.1"), newTimer(sim))
	mft.Add(addr.MustParse("10.1.0.2"), newTimer(sim))
	mft.TableStale = true
	s := mft.String()
	if !strings.HasPrefix(s, "![dst=10.1.0.1") {
		t.Errorf("String = %q", s)
	}
}
