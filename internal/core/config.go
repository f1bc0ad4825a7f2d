package core

import (
	"fmt"

	"hbh/internal/eventsim"
)

// Timing carries the soft-state timing constants HBH and REUNITE
// share. All durations are in simulator time units; one unit equals
// one unit of link cost, and link costs are drawn from [1,10], so
// end-to-end delays are tens of units. The defaults keep every refresh
// interval comfortably above the network diameter and every timeout
// above three refresh intervals, the usual soft-state sizing.
type Timing struct {
	// JoinInterval is the period of receiver (and branching-router)
	// join refreshes.
	JoinInterval eventsim.Time
	// TreeInterval is the period of the source's tree emission.
	TreeInterval eventsim.Time
	// T1 is the staleness timeout of table entries: an entry not
	// refreshed for T1 goes stale.
	T1 eventsim.Time
	// T2 is the destruction timeout: a stale entry not refreshed for a
	// further T2 is deleted.
	T2 eventsim.Time
}

// DefaultTiming returns the timing used by all experiments, for both
// protocols: join/tree period 100, T1 = 3.5 periods, T2 = 3.5 periods.
func DefaultTiming() Timing {
	return Timing{JoinInterval: 100, TreeInterval: 100, T1: 350, T2: 350}
}

// Validate reports a descriptive error for nonsensical timing.
func (t Timing) Validate() error {
	if t.JoinInterval <= 0 || t.TreeInterval <= 0 {
		return fmt.Errorf("core: non-positive refresh interval %v/%v", t.JoinInterval, t.TreeInterval)
	}
	if t.T1 <= t.JoinInterval || t.T1 <= t.TreeInterval {
		return fmt.Errorf("core: T1 %v must exceed the refresh intervals", t.T1)
	}
	if t.T2 <= 0 {
		return fmt.Errorf("core: non-positive T2 %v", t.T2)
	}
	return nil
}

// Config is HBH's configuration: the shared timing plus HBH's feature
// switches.
type Config struct {
	Timing
	// EnableFusion enables the fusion repair mechanism. Disabling it is
	// the A1 ablation: HBH degrades to per-receiver unicast delivery
	// from the source table, exposing the duplicate copies fusion
	// removes.
	EnableFusion bool
	// CollapseRelays lets a router whose MFT shrinks to a single fresh
	// entry revert to non-branching (MCT) state, the "one more change"
	// the paper accepts after departures that un-branch a node.
	CollapseRelays bool
}

// DefaultConfig returns DefaultTiming with both HBH switches on.
func DefaultConfig() Config {
	return Config{Timing: DefaultTiming(), EnableFusion: true, CollapseRelays: true}
}
