package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the wrappers record. Every span of
// a kind is aggregated into count, total and self time (duration minus
// the part its child spans cover).
type spanKind uint8

const (
	kOp spanKind = iota // one benchmark operation (the root span)
	kSimRun
	kPrepare
	kRunHBH
	kRunREUNITE
	kRunPIMSM
	kRunPIMSS
	kReachable
	kNextHop
	kDist
	kPath
	kHandleJoin
	kHandleTree
	kHandleFusion
	kHandleData
	kHandleOther
	kTimer
	kAfter
	kSend
	kDeliver
	kDo
	numKinds
)

var kindNames = [numKinds]string{
	kOp:           "bench.op",
	kSimRun:       "eventsim.Run",
	kPrepare:      "experiment.PrepareScenario",
	kRunHBH:       "experiment.Run.HBH",
	kRunREUNITE:   "experiment.Run.REUNITE",
	kRunPIMSM:     "experiment.Run.PIM-SM",
	kRunPIMSS:     "experiment.Run.PIM-SS",
	kReachable:    "unicast.Reachable",
	kNextHop:      "unicast.NextHop",
	kDist:         "unicast.Dist",
	kPath:         "unicast.Path",
	kHandleJoin:   "core.handle.join",
	kHandleTree:   "core.handle.tree",
	kHandleFusion: "core.handle.fusion",
	kHandleData:   "core.handle.data",
	kHandleOther:  "core.handle.other",
	kTimer:        "core.timer",
	kAfter:        "clock.After",
	kSend:         "live.Transport.Send",
	kDeliver:      "live.DeliverFunc",
	kDo:           "live.Runtime.Do",
}

// maxSpans caps the spans kept for the trace file across all contexts;
// aggregation continues past the cap.
const maxSpans = 200_000

// tracer owns the execution contexts of one traced run. Spans are only
// aggregated while the tracer is on, so set-up traffic stays out of
// the per-layer numbers.
type tracer struct {
	base     time.Time
	on       atomic.Bool
	recorded atomic.Int64
	ctxs     []*tctx
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newCtx makes a span stack for one goroutine (or, in the simulator,
// for the one goroutine that drives every node).
func (t *tracer) newCtx(name string) *tctx {
	c := &tctx{tr: t, name: name}
	t.ctxs = append(t.ctxs, c)
	return c
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// agg is the per-kind aggregate of one context.
type agg struct {
	n, total, self int64
}

type frame struct {
	kind  spanKind
	on    bool
	rec   int32
	start int64
	child int64
}

// spanRec is one recorded span: name, start, end, parent span (index
// in the same context, -1 for a root) and the operation id it belongs
// to (a Run, a channel-interval, or a data packet's sequence number).
type spanRec struct {
	kind       spanKind
	parent     int32
	op         uint64
	start, end int64
}

// tctx is one context's span stack. It is used by one goroutine at a
// time: the goroutine that runs the simulator, or a live node's mailbox
// goroutine.
type tctx struct {
	tr    *tracer
	name  string
	op    uint64
	stack []frame
	aggs  [numKinds]agg
	spans []spanRec
	// pending, when set, samples the event-queue depth at each handler
	// entry (simulator contexts only).
	pending        func() int
	pendSum, pendN int64
	// opFromPacket makes each data packet's sequence number the
	// operation id of the spans it causes (live contexts).
	opFromPacket bool
}

func (c *tctx) begin(k spanKind) {
	f := frame{kind: k, on: c.tr.on.Load(), rec: -1}
	if f.on && c.tr.recorded.Load() < maxSpans {
		c.tr.recorded.Add(1)
		parent := int32(-1)
		for i := len(c.stack) - 1; i >= 0; i-- {
			if c.stack[i].rec >= 0 {
				parent = c.stack[i].rec
				break
			}
		}
		f.rec = int32(len(c.spans))
		c.spans = append(c.spans, spanRec{kind: k, parent: parent, op: c.op})
	}
	f.start = c.tr.now()
	c.stack = append(c.stack, f)
}

func (c *tctx) end() {
	end := c.tr.now()
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	dur := end - f.start
	if len(c.stack) > 0 {
		c.stack[len(c.stack)-1].child += dur
	}
	if !f.on {
		return
	}
	a := &c.aggs[f.kind]
	a.n++
	a.total += dur
	a.self += dur - f.child
	if f.rec >= 0 {
		c.spans[f.rec].start = f.start
		c.spans[f.rec].end = end
	}
}

func (c *tctx) samplePending() {
	if c.pending != nil && c.tr.on.Load() {
		c.pendSum += int64(c.pending())
		c.pendN++
	}
}

// totals folds every context's aggregates. Call only once every
// goroutine that used a context has stopped.
func (t *tracer) totals() (out [numKinds]agg, pendMean float64) {
	var ps, pn int64
	for _, c := range t.ctxs {
		for k := range c.aggs {
			out[k].n += c.aggs[k].n
			out[k].total += c.aggs[k].total
			out[k].self += c.aggs[k].self
		}
		ps += c.pendSum
		pn += c.pendN
	}
	if pn > 0 {
		pendMean = float64(ps) / float64(pn)
	}
	return out, pendMean
}

// write dumps the recorded spans as tab-separated lines: context,
// span index, parent index, operation id, name, start and end in
// nanoseconds since the tracer was made.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "ctx\tspan\tparent\top\tname\tstart_ns\tend_ns")
	for _, c := range t.ctxs {
		for i, s := range c.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\n",
				c.name, i, s.parent, s.op, kindNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders self time per layer (span name prefix up to the
// first dot) as a share of all recorded self time.
func selfTable(aggs [numKinds]agg) string {
	layers := map[string]int64{}
	var order []string
	var all int64
	for k, a := range aggs {
		if a.n == 0 {
			continue
		}
		name := kindNames[k]
		layer := name
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				layer = name[:i]
				break
			}
		}
		if _, ok := layers[layer]; !ok {
			order = append(order, layer)
		}
		layers[layer] += a.self
		all += a.self
	}
	var s string
	for _, l := range order {
		s += fmt.Sprintf("self %-12s %10.3f ms  %5.1f%%\n", l,
			float64(layers[l])/1e6, 100*float64(layers[l])/float64(max(all, 1)))
	}
	return s
}
