package reunite

import (
	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
)

// Source is the REUNITE channel root. On top of core's shared Origin
// (the top-level table, whose dst is the first receiver that joined
// the group, and one data copy per entry) it admits the joins that
// reach it and emits periodic tree refreshes, marked for a stale entry.
type Source struct {
	*core.Origin
}

// AttachSource creates the channel <n.Addr(), group> rooted at host n.
func AttachSource(n netsim.ProtoNode, group addr.Addr, t core.Timing) *Source {
	s := &Source{}
	s.Origin = core.NewOrigin(n, group, t, s.emitTrees)
	n.AddHandler(s)
	return s
}

// Handle implements netsim.Handler for joins that reached the source.
func (s *Source) Handle(n netsim.ProtoNode, msg packet.Message) netsim.Verdict {
	j, ok := msg.(*packet.Join)
	if !ok || j.Proto != packet.ProtoREUNITE || j.Channel != s.Channel() {
		return netsim.Continue
	}
	if e := s.MFT().Get(j.R); e != nil {
		e.Timer.Refresh()
		e.Cause = s.Node().EmitProto(obs.KindJoinAdmit, j.Channel, j.R, 0, "refresh")
		return netsim.Consumed
	}
	s.Node().EmitProto(obs.KindJoinAdmit, j.Channel, j.R, 0, "install")
	s.AddEntry(j.R)
	return netsim.Consumed
}

// emitTrees sends the periodic refresh: tree(S, dst) — marked when dst
// is stale, announcing the upcoming teardown — plus one tree per
// additional entry.
func (s *Source) emitTrees() {
	n, ch := s.Node(), s.Channel()
	for _, e := range s.MFT().Entries() {
		marked := e.Stale()
		var flags uint8
		if marked {
			flags = packet.FlagMarked
		}
		// Attribute the refresh to the join episode that installed or
		// last refreshed this entry (see core.Entry.Cause).
		n.SetCausalContext(e.Cause)
		if n.Observing() {
			detail := "source refresh"
			if marked {
				detail = "source refresh [marked]"
			}
			n.SetCausalContext(n.EmitProto(obs.KindTreeSend, ch, e.Node, 0, detail))
		}
		t := &packet.Tree{
			Header: packet.Header{
				Proto:   packet.ProtoREUNITE,
				Type:    packet.TypeTree,
				Flags:   flags,
				Channel: ch,
				Src:     n.Addr(),
				Dst:     e.Node,
			},
			R: e.Node,
		}
		n.SendUnicast(t)
	}
	n.SetCausalContext(obs.Causal{})
}
