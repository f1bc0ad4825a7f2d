package core

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/clock"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
)

// Origin is the half of a channel source HBH and REUNITE share: the
// channel, the top-level MFT, the tree-emission ticker, the change
// observer, member installation and data origination. Each protocol's
// Source embeds it and adds its own join handling and tree emission.
type Origin struct {
	node     netsim.ProtoNode
	clk      clock.Clock
	ch       addr.Channel
	t        Timing
	mft      *MFT
	ticker   *clock.Ticker
	observer ChangeObserver
	nextSeq  uint32
}

// NewOrigin creates the channel <n.Addr(), group> rooted at host n and
// starts the ticker that calls emitTrees every TreeInterval.
func NewOrigin(n netsim.ProtoNode, group addr.Addr, t Timing, emitTrees func()) *Origin {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	ch, err := addr.NewChannel(n.Addr(), group)
	if err != nil {
		panic(err)
	}
	o := &Origin{node: n, clk: n.Clock(), ch: ch, t: t, mft: NewMFT()}
	o.ticker = clock.NewTicker(o.clk, t.TreeInterval, emitTrees)
	return o
}

// Channel returns the channel this source roots.
func (o *Origin) Channel() addr.Channel { return o.ch }

// Node returns the source host.
func (o *Origin) Node() netsim.ProtoNode { return o.node }

// MFT exposes the source table for tests and audits.
func (o *Origin) MFT() *MFT { return o.mft }

// SetObserver installs the state-change observer (nil clears it).
func (o *Origin) SetObserver(ob ChangeObserver) { o.observer = ob }

func (o *Origin) observe(kind ChangeKind, node addr.Addr) {
	if o.observer != nil {
		o.observer(o.node.Addr(), o.ch, kind, node)
	}
}

// Stop halts the periodic tree emission (end of the session).
func (o *Origin) Stop() { o.ticker.Stop() }

// AddEntry installs node in the source table with a (t1, t2) timer
// whose expiry removes the entry again.
func (o *Origin) AddEntry(node addr.Addr) *Entry {
	timer := clock.NewSoftTimer(o.clk, o.t.T1, o.t.T2, nil, func() {
		if o.mft.Get(node) != nil {
			// Expiry is a spontaneous action (the member went silent):
			// it roots its own causal episode.
			prev := o.node.RootEpisode()
			o.mft.Remove(node)
			o.observe(ChangeMFTRemove, node)
			o.node.EmitProto(obs.KindTableRemove, o.ch, node, 0, "mft")
			// A departed relay's members get data directly again
			// (REUNITE never marks, so there this finds nothing).
			unmarkServedBy(o.mft, node)
			o.node.SetCausalContext(prev)
		}
	})
	e := o.mft.Add(node, timer)
	o.observe(ChangeMFTAdd, node)
	e.Cause = o.node.EmitProto(obs.KindTableAdd, o.ch, node, 0, "mft")
	return e
}

// SendData originates one multicast payload over the recursive unicast
// tree: one copy per unmarked entry. It returns the sequence number
// used, so measurement code can correlate deliveries.
func (o *Origin) SendData(payload []byte) uint32 {
	seq := o.nextSeq
	o.nextSeq++
	// One causal episode per originated packet: every replica cascade
	// downstream attributes to this origination.
	prev := o.node.RootEpisode()
	for _, e := range o.mft.Entries() {
		if e.Marked {
			continue
		}
		o.node.EmitProto(obs.KindReplicate, o.ch, e.Node, seq, "source copy")
		d := &packet.Data{
			Header: packet.Header{
				Proto:   packet.ProtoNone,
				Type:    packet.TypeData,
				Channel: o.ch,
				Src:     o.node.Addr(),
				Dst:     e.Node,
			},
			Seq:     seq,
			Payload: append([]byte(nil), payload...),
		}
		o.node.SendUnicast(d)
	}
	o.node.SetCausalContext(prev)
	return seq
}

// Source is the HBH channel root: the host agent at S. On top of the
// shared Origin it accepts joins that reached it, processes fusions,
// and emits one tree per fresh entry.
type Source struct {
	*Origin
}

// AttachSource creates the channel <n.Addr(), group> rooted at host n
// and starts the tree-emission ticker.
func AttachSource(n netsim.ProtoNode, group addr.Addr, cfg Config) *Source {
	s := &Source{}
	s.Origin = NewOrigin(n, group, cfg.Timing, s.emitTrees)
	n.AddHandler(s)
	return s
}

// Handle implements netsim.Handler for packets arriving at the source
// host: joins and fusions addressed to S.
func (s *Source) Handle(n netsim.ProtoNode, msg packet.Message) netsim.Verdict {
	switch m := msg.(type) {
	case *packet.Join:
		if m.Proto != packet.ProtoHBH || m.Channel != s.ch {
			return netsim.Continue
		}
		s.onJoin(m)
		return netsim.Consumed
	case *packet.Fusion:
		if m.Proto != packet.ProtoHBH || m.Channel != s.ch {
			return netsim.Continue
		}
		s.onFusion(m)
		return netsim.Consumed
	default:
		return netsim.Continue
	}
}

// onJoin admits or refreshes a member. Any join that made it all the
// way to S (first joins always do) installs the receiver here; the
// fusion mechanism later migrates it to the right branching node.
func (s *Source) onJoin(j *packet.Join) {
	if e := s.mft.Get(j.R); e != nil {
		e.Timer.Refresh()
		// Same refresh-time mark re-validation as branching routers
		// (Router.revalidateMark): a relay can stop confirming the
		// handover (it un-branched or crashed), or a cost change can
		// strand the member behind a relay off the forward path.
		if markLapsed(e, s.clk.Now(), s.t.T1) {
			e.Marked = false
			e.ServedBy = addr.Unspecified
			s.node.EmitProto(obs.KindMarkLift, s.ch, j.R, 0, "relay stopped confirming the handover")
		} else if e.Marked && !onForwardPath(s.node, s.node.ID(), e.ServedBy, j.R) {
			e.Marked = false
			e.ServedBy = addr.Unspecified
			s.node.EmitProto(obs.KindMarkLift, s.ch, j.R, 0, "relay off the forward path")
		}
		e.Cause = s.node.EmitProto(obs.KindJoinAdmit, s.ch, j.R, 0, "refresh")
		return
	}
	s.node.EmitProto(obs.KindJoinAdmit, s.ch, j.R, 0, "install")
	s.AddEntry(j.R)
}

func (s *Source) onFusion(f *packet.Fusion) {
	if f.Bp == s.node.Addr() {
		return
	}
	var matched []*Entry
	for _, target := range f.Rs {
		e := s.mft.Get(target)
		if e == nil || e.Node == f.Bp {
			continue
		}
		// Same routing-verified acceptance as branching routers: the
		// candidate must actually sit on our forward path to the
		// member it offers to serve.
		if !onForwardPath(s.node, s.node.ID(), f.Bp, target) {
			continue
		}
		matched = append(matched, e)
	}
	if len(matched) == 0 {
		// The fusion reached the root without naming any member we can
		// verifiably hand over — but it can still retract members the
		// relay stopped listing (see retractFusion).
		retractFusion(s.mft, f.Bp, f.Rs, func(node addr.Addr) {
			s.node.EmitProto(obs.KindMarkLift, s.ch, node, 0, "fusion no longer lists member")
		})
		return
	}
	if s.node.Observing() && fusionChanges(s.mft, f.Bp, f.Rs, matched) {
		s.node.EmitProto(obs.KindFusionAccept, s.ch, f.Bp, 0,
			fmt.Sprintf("%d of %d targets handed to relay", len(matched), len(f.Rs)))
	}
	applyFusion(s.mft, f.Bp, f.Rs, matched, s.clk.Now(),
		func(node addr.Addr) *Entry {
			e := s.AddEntry(node)
			e.Timer.ForceStale()
			return e
		},
		func(node addr.Addr) { s.observe(ChangeMFTMark, node) },
		func(node addr.Addr) {
			s.node.EmitProto(obs.KindMarkLift, s.ch, node, 0, "fusion no longer lists member")
		})
}

// emitTrees is the periodic downstream refresh: one tree(S, X) per
// non-stale entry X.
func (s *Source) emitTrees() {
	for _, e := range s.mft.Entries() {
		if e.Stale() {
			continue
		}
		// Attribute the refresh (and the tree message it sends) to the
		// join episode that installed or last refreshed this entry.
		s.node.SetCausalContext(e.Cause)
		s.node.SetCausalContext(s.node.EmitProto(obs.KindTreeSend, s.ch, e.Node, 0, "source refresh"))
		t := &packet.Tree{
			Header: packet.Header{
				Proto:   packet.ProtoHBH,
				Type:    packet.TypeTree,
				Channel: s.ch,
				Src:     s.node.Addr(),
				Dst:     e.Node,
			},
			R: e.Node,
		}
		s.node.SendUnicast(t)
	}
	s.node.SetCausalContext(obs.Causal{})
}
