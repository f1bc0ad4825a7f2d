package reunite

import (
	"strings"

	"hbh/internal/clock"
	"hbh/internal/core"
)

// MFT is a REUNITE Multicast Forwarding Table: core's entry list with
// REUNITE's dst-first semantics. Entry zero is the dst receiver: the
// first member that joined in this node's subtree, the address
// upstream data and tree messages carry. Iteration follows insertion
// order (join order), which both matches the protocol's "first
// receiver" semantics and keeps simulations deterministic. Removing dst
// promotes the next-oldest entry implicitly.
type MFT struct {
	core.MFT
	// TableStale is set when a marked tree for dst passes: the node
	// stops intercepting joins so orphaned members can re-join at the
	// source, but keeps forwarding data until the entries die.
	TableStale bool
	// Liveness is the whole-table timer, refreshed by tree messages
	// addressed to dst; its expiry destroys the table ("as R3 stops
	// receiving tree messages, its MFT is destroyed").
	Liveness *clock.SoftTimer
}

// NewMFT returns an empty table.
func NewMFT() *MFT { return &MFT{MFT: *core.NewMFT()} }

// Dst returns the dst entry (entry zero), or nil on an empty table.
func (t *MFT) Dst() *core.Entry {
	if t.Len() == 0 {
		return nil
	}
	return t.Entries()[0]
}

// Destroy cancels all timers, the liveness timer included, and empties
// the table.
func (t *MFT) Destroy() {
	t.MFT.Destroy()
	if t.Liveness != nil {
		t.Liveness.Cancel()
	}
}

// String renders the table for traces: "[dst=r1* r4]" with * marking
// stale entries and a leading ! marking a stale table.
func (t *MFT) String() string {
	var b strings.Builder
	if t.TableStale {
		b.WriteByte('!')
	}
	b.WriteByte('[')
	for i, e := range t.Entries() {
		if i > 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString("dst=")
		}
		b.WriteString(e.Node.String())
		if e.Stale() {
			b.WriteByte('*')
		}
	}
	b.WriteByte(']')
	return b.String()
}
