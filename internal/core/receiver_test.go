package core

import (
	"testing"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// TestReceiverBothProtocols drives the shared member agent on its own,
// once per protocol byte, over a bare unicast line with no protocol
// routers: the source host's delivery sink records every join, and
// trees and data are injected by hand.
func TestReceiverBothProtocols(t *testing.T) {
	for _, proto := range []packet.Protocol{packet.ProtoHBH, packet.ProtoREUNITE} {
		other := packet.ProtoREUNITE
		if proto == packet.ProtoREUNITE {
			other = packet.ProtoHBH
		}
		t.Run(proto.String(), func(t *testing.T) {
			g := topology.Line(2, true)
			sim := eventsim.New()
			net := netsim.New(sim, g, unicast.Compute(g))
			sHost, rHost := net.Node(g.Hosts()[0]), net.Node(g.Hosts()[1])
			ch, err := addr.NewChannel(sHost.Addr(), addr.GroupAddr(0))
			if err != nil {
				t.Fatal(err)
			}

			type arrival struct {
				at  eventsim.Time
				msg *packet.Join
			}
			var joins []arrival
			sHost.SetDeliver(func(_ netsim.ProtoNode, m packet.Message) {
				if j, ok := m.(*packet.Join); ok {
					joins = append(joins, arrival{sim.Now(), j})
				}
			})
			passed := 0 // messages the receiver left unconsumed
			rHost.SetDeliver(func(netsim.ProtoNode, packet.Message) { passed++ })

			tm := DefaultTiming()
			r := AttachMember(rHost, ch, tm, proto)
			var onData []uint32
			r.OnData = func(d Delivery) { onData = append(onData, d.Seq) }

			sim.At(10, r.Join)
			leaveAt := 10 + 3*tm.JoinInterval + tm.JoinInterval/2
			sim.At(leaveAt, r.Leave)
			if err := sim.Run(leaveAt + 5*tm.JoinInterval); err != nil {
				t.Fatal(err)
			}

			// One join at Join, then one per JoinInterval until Leave.
			if len(joins) != 4 {
				t.Fatalf("%d joins reached the source, want 4", len(joins))
			}
			for i, a := range joins {
				if a.msg.Proto != proto || a.msg.R != r.Addr() || a.msg.Channel != ch {
					t.Errorf("join %d = %+v", i, a.msg)
				}
				if first := proto == packet.ProtoHBH && i == 0; a.msg.First() != first {
					t.Errorf("join %d: FlagFirst = %v, want %v", i, a.msg.First(), first)
				}
				if i > 0 && a.at-joins[i-1].at != tm.JoinInterval {
					t.Errorf("join %d arrived %v after the previous, want %v",
						i, a.at-joins[i-1].at, tm.JoinInterval)
				}
			}
			if r.Joined() {
				t.Error("Joined after Leave")
			}

			send := func(m packet.Message) {
				sHost.SendUnicast(m)
				if err := sim.Run(sim.Now() + 50); err != nil {
					t.Fatal(err)
				}
			}
			hdr := func(p packet.Protocol, typ packet.Type) packet.Header {
				return packet.Header{Proto: p, Type: typ, Channel: ch, Src: sHost.Addr(), Dst: r.Addr()}
			}
			send(&packet.Tree{Header: hdr(proto, packet.TypeTree), R: r.Addr()})
			send(&packet.Tree{Header: hdr(other, packet.TypeTree), R: r.Addr()})
			if r.TreeMsgs != 1 || passed != 1 {
				t.Errorf("TreeMsgs = %d, unconsumed = %d; want the own tree consumed and the other passed on",
					r.TreeMsgs, passed)
			}

			for _, seq := range []uint32{7, 7, 8} {
				send(&packet.Data{Header: hdr(packet.ProtoNone, packet.TypeData), Seq: seq})
			}
			if len(r.Deliveries) != 3 || r.DupCount != 1 || r.DeliveryCount(7) != 2 {
				t.Errorf("deliveries %v, DupCount %d; want 3 arrivals with seq 7 duplicated once",
					r.Deliveries, r.DupCount)
			}
			if len(onData) != 3 || onData[0] != 7 || onData[2] != 8 {
				t.Errorf("OnData saw %v, want [7 7 8]", onData)
			}
			if passed != 1 {
				t.Errorf("data not consumed: %d unconsumed messages", passed)
			}
		})
	}
}
