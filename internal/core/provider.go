package core

import (
	"fmt"

	"hbh/internal/addr"
	"hbh/internal/invariant"
)

// Tables is the read side of one router's per-channel state, as the
// channel audit inspects it. HBH's and REUNITE's routers implement it.
type Tables interface {
	Addr() addr.Addr
	// ChannelTables returns ch's control entry and forwarding table;
	// held reports whether the router keeps a per-channel record at all.
	ChannelTables(ch addr.Channel) (mct *MCT, mft *MFT, held bool)
	// Window returns the router's data dedup window.
	Window() DataWindow
}

// ChannelAudit is the protocol-neutral part of one channel's
// invariant.StateProvider: Root, States and Residuals read the source
// table and every router's tables directly — no parallel bookkeeping
// that could itself drift from the truth. Each protocol's audit embeds
// it and adds the DeliveryTree walk of its own data plane.
type ChannelAudit struct {
	src     *Origin
	routers []Tables
}

// NewChannelAudit builds the shared audit of src's channel over the
// given routers (normally every router attached to the topology).
func NewChannelAudit[R Tables](src *Origin, routers []R) ChannelAudit {
	ts := make([]Tables, len(routers))
	for i, r := range routers {
		ts[i] = r
	}
	return ChannelAudit{src: src, routers: ts}
}

// Root implements invariant.StateProvider.
func (a *ChannelAudit) Root() addr.Addr { return a.src.node.Addr() }

// States implements invariant.StateProvider: a snapshot of the source
// MFT and of each router's per-channel tables.
func (a *ChannelAudit) States() []invariant.NodeState {
	out := []invariant.NodeState{{
		Node:    a.src.node.Addr(),
		IsRoot:  true,
		HasMFT:  true,
		Entries: entryStates(a.src.mft),
	}}
	for _, r := range a.routers {
		mct, mft, held := r.ChannelTables(a.src.ch)
		if !held {
			continue
		}
		ns := invariant.NodeState{Node: r.Addr()}
		if mct != nil {
			ns.HasMCT = true
			ns.MCTNode = mct.Node
		}
		if mft != nil {
			ns.HasMFT = true
			ns.Entries = entryStates(mft)
		}
		out = append(out, ns)
	}
	return out
}

func entryStates(t *MFT) []invariant.EntryState {
	out := make([]invariant.EntryState, 0, t.Len())
	for _, e := range t.Entries() {
		out = append(out, invariant.EntryState{
			Node: e.Node, Marked: e.Marked, Stale: e.Stale(), ServedBy: e.ServedBy,
		})
	}
	return out
}

// Residuals implements invariant.StateProvider: after every receiver
// leaves (and the soft timers run out) or a router crash wiped its
// tables, nothing channel-scoped may survive — no MCT/MFT state, no
// rate-limit stamps (they live inside the per-channel record), and no
// dedup window.
func (a *ChannelAudit) Residuals() []invariant.Residual {
	ch := a.src.ch
	var out []invariant.Residual
	if n := a.src.mft.Len(); n > 0 {
		out = append(out, invariant.Residual{
			Node:   a.src.node.Addr(),
			Detail: fmt.Sprintf("source MFT still holds %d entries", n),
		})
	}
	for _, r := range a.routers {
		if mct, mft, held := r.ChannelTables(ch); held {
			out = append(out, invariant.Residual{
				Node: r.Addr(),
				Detail: fmt.Sprintf("per-channel state survives teardown (mct=%v mft=%v)",
					mct != nil, mft != nil),
			})
		}
		if w := r.Window()[ch]; w != nil {
			out = append(out, invariant.Residual{
				Node:   r.Addr(),
				Detail: fmt.Sprintf("dedup window still holds %d sequence numbers", len(w)),
			})
		}
	}
	return out
}

// Audit exposes one HBH channel's live protocol state to the invariant
// checker: the shared ChannelAudit plus HBH's delivery-tree walk.
type Audit struct {
	ChannelAudit
}

// NewAudit builds the provider for src's channel over the given
// routers (normally every Router attached to the topology).
func NewAudit(src *Source, routers []*Router) *Audit {
	return &Audit{NewChannelAudit(src.Origin, routers)}
}

var _ invariant.StateProvider = (*Audit)(nil)

// DeliveryTree implements invariant.StateProvider: it replays the
// recursive-unicast data path over the live tables. The walk mirrors
// onData exactly — marked entries are skipped, no copy goes back to
// the node it came from (split horizon), and a branching node
// replicates only the first copy that reaches it (the dedup window
// swallows the rest). Cycles the dedup window would mask at runtime
// are still reported: a chain that re-enters its own ancestry is a
// structural loop regardless of suppression.
func (a *Audit) DeliveryTree() *invariant.Tree {
	ch := a.src.ch
	mfts := make(map[addr.Addr]*MFT, len(a.routers))
	for _, r := range a.routers {
		if _, t, _ := r.ChannelTables(ch); t != nil {
			mfts[r.Addr()] = t
		}
	}
	root := a.src.node.Addr()
	tree := invariant.NewTree(root)
	visited := make(map[addr.Addr]bool)
	ancestry := map[addr.Addr]bool{root: true}

	var walk func(parent, at addr.Addr, chain []addr.Addr)
	walk = func(parent, at addr.Addr, chain []addr.Addr) {
		if ancestry[at] {
			tree.AddLoop(append(chain, at))
			return
		}
		t := mfts[at]
		if t == nil {
			// Not a branching node: the copy terminates here (a member
			// host, or a router whose stale upstream entry feeds a
			// dead branch).
			tree.AddChain(at, chain)
			return
		}
		if visited[at] {
			return // duplicate copy: consumed by the dedup window
		}
		visited[at] = true
		tree.AddChain(at, chain)
		ancestry[at] = true
		for _, e := range t.Entries() {
			if e.Marked || e.Node == parent {
				continue
			}
			walk(at, e.Node, append(chain, at))
		}
		delete(ancestry, at)
	}
	for _, e := range a.src.mft.Entries() {
		if e.Marked {
			continue
		}
		walk(root, e.Node, []addr.Addr{root})
	}
	return tree
}
