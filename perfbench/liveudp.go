package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/live"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// The live-udp workload: the whole ISP topology in one process, one
// goroutine and one loopback UDP socket per node (live.New in RealMode
// over live.NewUDPTransport), with hbhd's telemetry observer set
// attached and the invariant monitor off. An open-loop generator
// originates data at a fixed rate while a seeded subset of receivers
// joins and leaves; Counters.Export is scraped periodically. Traffic
// crosses the loopback interface, not a real link.
const (
	liveUnit     = time.Millisecond // wall time of one virtual unit
	liveRate     = 200              // originations per second, open loop
	liveStable   = 10               // receivers joined for the whole run
	liveChurners = 4                // receivers that join and leave
	// Churn runs in slots: in each, one churner (seeded) joins at a
	// seeded offset and leaves liveDwell later, so every seed keeps a
	// churner joined for the same share of the run.
	liveChurnSlot = 5 * time.Second
	liveDwell     = time.Second
	liveScrape    = 100 * time.Millisecond
	liveSetups    = 3
	// liveConverge is how many refresh intervals the tree settles after
	// the first joins before probing, as experiment.Run's default.
	liveConverge = 40
	// liveSettle is how long after a churn event the tree may still be
	// reshaping: two soft-state lifetimes (T1+T2), in units. A departed
	// member's entries expire T1+T2 after it leaves, and while the tree
	// reshapes then, stable members were seen to lose up to 140 ms of
	// packets and to get duplicates. Packets due inside such a window
	// count toward delivered_frac but are not checked for exactness.
	liveSettle = 1400
)

// rcvLog is one receiver's record of the timed phase, written only on
// the receiver's goroutine until the runtime stops.
type rcvLog struct {
	id     topology.NodeID
	rcv    *core.Receiver
	pathNs int64 // emulated path delay from the source
	seq0   uint32
	n      []int32
	at     []int64 // wall ns of the first copy
}

type liveWorld struct {
	rt       *live.Runtime
	src      *core.Source
	srcHost  topology.NodeID
	stable   []*rcvLog
	churn    []*core.Receiver
	churnIDs []topology.NodeID
	counters *obs.Counters
	maxPath  time.Duration

	// traced variant only
	tr  *tracer
	tt  *tracedTransport
	fwd atomic.Int64
	gen *tctx
}

// liveScenarioSeed fixes the link costs, the source and the receiver
// sets, so that every benchmark seed measures the same trees; the seed
// drives the churn schedule.
const liveScenarioSeed = 7

func buildLive(traced bool) (*liveWorld, error) {
	rng := rand.New(rand.NewSource(liveScenarioSeed))
	g := topology.ISP()
	g.RandomizeCosts(rng, 1, 10)
	g.Freeze()
	routing := unicast.Compute(g)
	w := &liveWorld{}

	var router unicast.Router = routing
	nodeCtx := make([]*tctx, g.NumNodes())
	rxCtx := make([]*tctx, g.NumNodes())
	if traced {
		w.tr = newTracer()
		for id := range nodeCtx {
			nodeCtx[id] = w.tr.newCtx(fmt.Sprintf("node%d", id))
			nodeCtx[id].opFromPacket = true
			rxCtx[id] = w.tr.newCtx(fmt.Sprintf("rx%d", id))
		}
		w.gen = w.tr.newCtx("generator")
		router = &tracedRouter{Router: routing, fwd: &w.fwd,
			ctxOf: func(from topology.NodeID) *tctx { return nodeCtx[from] }}
	}
	rt := live.New(live.Config{Graph: g, Routing: router, Unit: liveUnit})
	w.rt = rt
	node := func(id topology.NodeID) netsim.ProtoNode {
		if !traced {
			return rt.Node(id)
		}
		return wrapNode(rt.Node(id), nodeCtx[id], routing)
	}

	hosts := g.Hosts()
	perm := rng.Perm(len(hosts))
	w.srcHost = hosts[perm[0]]
	pcfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(node(r), pcfg)
	}
	w.src = core.AttachSource(node(w.srcHost), addr.GroupAddr(0), pcfg)
	for i, pi := range perm[1 : 1+liveStable+liveChurners] {
		id := hosts[pi]
		rcv := core.AttachReceiver(node(id), w.src.Channel(), pcfg)
		if d := time.Duration(routing.Dist(w.srcHost, id)) * liveUnit; d > w.maxPath {
			w.maxPath = d
		}
		if i < liveStable {
			lg := &rcvLog{id: id, rcv: rcv, pathNs: int64(routing.Dist(w.srcHost, id)) * int64(liveUnit)}
			rcv.OnData = lg.record
			w.stable = append(w.stable, lg)
		} else {
			w.churn = append(w.churn, rcv)
			w.churnIDs = append(w.churnIDs, id)
		}
	}

	// hbhd's -telemetry observer set.
	o := obs.New(nil)
	w.counters = o.EnableCounters()
	o.EnableLatency()
	o.EnableConvergence()
	o.EnableRecorder(256)
	o.SeedCausal(1 << 40)
	rt.SetObserver(o)

	book := make(map[topology.NodeID]string, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		book[topology.NodeID(id)] = "127.0.0.1:0"
	}
	deliver := live.DeliverFunc(rt.HandleFrame)
	if traced {
		deliver = tracedDeliver(deliver, func(to topology.NodeID) *tctx { return rxCtx[to] })
	}
	udp, err := live.NewUDPTransport(rt.Hosted(), book, deliver)
	if err != nil {
		return nil, err
	}
	if traced {
		w.tt = &tracedTransport{Transport: udp, ctxOf: func(from topology.NodeID) *tctx { return nodeCtx[from] }}
		rt.SetTransport(w.tt)
	} else {
		rt.SetTransport(udp)
	}
	rt.Start()

	for _, lg := range w.stable {
		rt.Do(lg.id, lg.rcv.Join)
	}
	time.Sleep(liveConverge * time.Duration(pcfg.TreeInterval) * liveUnit)
	if err := w.converge(); err != nil {
		rt.Stop()
		return nil, err
	}
	return w, nil
}

func (lg *rcvLog) record(d core.Delivery) {
	k := int(d.Seq - lg.seq0)
	if k < 0 || k >= len(lg.n) {
		return
	}
	lg.n[k]++
	if lg.at[k] == 0 {
		lg.at[k] = time.Now().UnixNano()
	}
}

// converge probes until three probes in a row reach every joined
// receiver exactly once.
func (w *liveWorld) converge() error {
	good := 0
	for attempt := 0; attempt < 200 && good < 3; attempt++ {
		var seq uint32
		w.rt.Do(w.srcHost, func() { seq = w.src.SendData(nil) })
		time.Sleep(w.maxPath + 15*time.Millisecond)
		ok := true
		check := func(id topology.NodeID, r *core.Receiver) {
			w.rt.Do(id, func() {
				if r.Joined() && r.DeliveryCount(seq) != 1 {
					ok = false
				}
			})
		}
		for _, lg := range w.stable {
			check(lg.id, lg.rcv)
		}
		for i, r := range w.churn {
			check(w.churnIDs[i], r)
		}
		if ok {
			good++
		} else {
			good = 0
		}
	}
	if good < 3 {
		return fmt.Errorf("live: tree did not converge")
	}
	return nil
}

// livePhase is what one timed phase of the live workload measured.
type livePhase struct {
	sent int
	wall time.Duration
	usage
	delivered         int
	excessMs          []float64
	lagMs, doUs       []float64
	scrapeMs          []float64
	exportBytes       int
	series            int
	trans, dataCopies int
	codecDrops        int
	unchecked         int
	checked, exact    int
	// transport wrapper counts (traced variant)
	frames, frameBytes, sendErrs int64
	fwdLookups                   int64
	churnEvents                  int
}

// runPhase drives the open-loop generator, the churn schedule and the
// scraper for the given time, drains, stops the runtime and checks that
// every stable receiver got every packet exactly once.
func (w *liveWorld) runPhase(seconds float64, seed int64, res *result) livePhase {
	var p livePhase
	n := int(seconds * liveRate)
	if n < 1 {
		n = 1
	}
	var seq0 uint32
	w.rt.Do(w.srcHost, func() { seq0 = w.src.SendData(nil) + 1 })
	time.Sleep(w.maxPath + 15*time.Millisecond)
	for _, lg := range w.stable {
		lg := lg
		w.rt.Do(lg.id, func() {
			lg.seq0 = seq0
			lg.n = make([]int32, n)
			lg.at = make([]int64, n)
		})
	}
	st0, f0 := w.rt.Stats(), w.fwd.Load()
	mark := markUsage()
	period := time.Second / liveRate
	t0 := time.Now().Add(10 * time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	var events []int64 // wall ns of churn events, read after wg.Wait
	wg.Add(2)
	go func() { // churn: seeded joins and leaves of the churning receivers
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
		toggle := func(i int) {
			events = append(events, time.Now().UnixNano())
			r := w.churn[i]
			w.rt.Do(w.churnIDs[i], func() {
				if r.Joined() {
					r.Leave()
				} else {
					r.Join()
				}
			})
		}
		for slot := t0; ; slot = slot.Add(liveChurnSlot) {
			i := rng.Intn(len(w.churn))
			join := slot.Add(time.Duration(rng.Int63n(int64(liveChurnSlot / 10))))
			for _, at := range []time.Time{join, join.Add(liveDwell)} {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(at)):
				}
				toggle(i)
			}
		}
	}()
	go func() { // scraper
		defer wg.Done()
		var buf bytes.Buffer
		tick := time.NewTicker(liveScrape)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			var d time.Duration
			w.rt.ObsLocked(func() {
				buf.Reset()
				s := time.Now()
				w.counters.Export(&buf) // a bytes.Buffer never fails a write
				d = time.Since(s)
			})
			p.scrapeMs = append(p.scrapeMs, float64(d)/1e6)
			p.exportBytes = buf.Len()
			p.series = 0
			for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
				if len(line) > 0 && line[0] != '#' {
					p.series++
				}
			}
		}
	}()

	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lagMs = append(p.lagMs, float64(time.Since(due))/1e6)
		d0 := time.Now()
		if w.gen != nil {
			w.gen.begin(kDo)
		}
		var seq uint32
		w.rt.Do(w.srcHost, func() { seq = w.src.SendData(nil) })
		if w.gen != nil {
			w.gen.end()
		}
		p.doUs = append(p.doUs, float64(time.Since(d0))/1e3)
		if seq != seq0+uint32(k) {
			res.fail("live-udp: origination %d got sequence number %d, want %d", k, seq, seq0+uint32(k))
		}
	}
	p.sent = n
	time.Sleep(w.maxPath + 100*time.Millisecond) // drain in-flight copies
	p.wall = time.Since(t0)
	close(stop)
	wg.Wait()
	st1 := w.rt.Stats()
	p.fwdLookups = w.fwd.Load() - f0
	if w.tt != nil { // before Stop: closing the transport fails late sends
		p.frames, p.frameBytes, p.sendErrs = w.tt.frames.Load(), w.tt.bytes.Load(), w.tt.errs.Load()
	}
	p.usage = mark.since()
	p.trans = st1.Transmissions - st0.Transmissions
	p.dataCopies = st1.DataCopies - st0.DataCopies
	p.codecDrops = st1.CodecDrops - st0.CodecDrops
	w.rt.Stop()

	settling := func(due int64) bool {
		for _, e := range events {
			if due >= e-int64(w.maxPath) && due < e+int64(liveSettle*liveUnit) {
				return true
			}
		}
		return false
	}
	for _, lg := range w.stable {
		for k := 0; k < n; k++ {
			due := t0.Add(time.Duration(k) * period).UnixNano()
			c := lg.n[k]
			if c > 0 {
				p.delivered++
				p.excessMs = append(p.excessMs, float64(lg.at[k]-due-lg.pathNs)/1e6)
			}
			if settling(due) {
				p.unchecked++
				continue
			}
			res.attempted++
			p.checked++
			if c == 1 {
				p.exact++
			} else {
				res.fail("live-udp: receiver %d got %d copies of packet %d", lg.id, c, lg.seq0+uint32(k))
			}
		}
	}
	p.churnEvents = len(events)
	return p
}

func runLiveUDP(o opts, res *result) error {
	var w *liveWorld
	var setups []float64
	setupsN := liveSetups
	if o.trace {
		setupsN = 1
	}
	for i := 0; i < setupsN; i++ {
		if w != nil {
			w.rt.Stop()
		}
		t0 := time.Now()
		var err error
		if w, err = buildLive(false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setup = median(setups)

	if !o.trace {
		p := w.runPhase(o.seconds, o.seed, res)
		want := p.sent * liveStable
		res.e2eM["delivered_frac"] = float64(p.delivered) / float64(want)
		res.layers["bench.data_pkts_per_s"] = float64(p.dataCopies) / p.wall.Seconds()
		res.e2eM["cpu_us_per_delivery"] = float64(p.cpu.Microseconds()) / float64(max(p.delivered, 1))
		res.notes = append(res.notes,
			fmt.Sprintf("live_delivered_frac %.6g (%d of %d; %d due within %d ms of one of %d churn events left unchecked)",
				res.e2eM["delivered_frac"], p.delivered, want, p.unchecked, liveSettle*liveUnit/time.Millisecond, p.churnEvents),
			fmt.Sprintf("live_excess_p50_ms %.6g  live_excess_p99_ms %.6g (%d samples)",
				quantile(p.excessMs, 0.5), quantile(p.excessMs, 0.99), len(p.excessMs)),
			fmt.Sprintf("live_gen_lag_p99_ms %.6g", quantile(p.lagMs, 0.99)),
			fmt.Sprintf("live_cpu_us_per_delivery %.6g  data_pkts_per_s %.6g", res.e2eM["cpu_us_per_delivery"], res.layers["bench.data_pkts_per_s"]),
			fmt.Sprintf("live_scrape_p50_ms %.6g (%d scrapes)", quantile(p.scrapeMs, 0.5), len(p.scrapeMs)))
		return nil
	}

	half := o.seconds / 2
	plain := w.runPhase(half, o.seed, res)
	tw, err := buildLive(true)
	if err != nil {
		return err
	}
	tw.tr.on.Store(true)
	traced := tw.runPhase(half, o.seed, res)
	tw.tr.on.Store(false)
	// Tracing only observes: both halves must deliver every checked
	// packet exactly once to every stable receiver.
	res.attempted++
	if plain.exact != plain.checked || traced.exact != traced.checked {
		res.fail("live-udp: exact deliveries %d of %d traced, %d of %d untraced",
			traced.exact, traced.checked, plain.exact, plain.checked)
	}

	aggs, _ := tw.tr.totals()
	l := res.layers
	ops := float64(traced.sent)
	cpuPer := func(p livePhase) float64 { return float64(p.cpu) / float64(max(p.delivered, 1)) }
	l["trace.overhead_frac"] = cpuPer(traced)/cpuPer(plain) - 1
	l["go.allocs_per_hop"] = plain.allocs / float64(max(plain.trans, 1))
	l["go.gc_cpu_frac"] = plain.gcFrac
	l["bench.data_pkts_per_s"] = float64(plain.dataCopies) / plain.wall.Seconds()
	l["unicast.lookups_per_hop"] = float64(traced.fwdLookups) / float64(max(traced.trans, 1))
	l["unicast.lookup_ns"] = meanNs(aggs, kReachable, kNextHop)
	coreLayers(l, aggs, ops)
	l["live.send_ns"] = meanNs(aggs, kSend)
	l["live.sends_per_delivery"] = float64(traced.frames) / float64(max(traced.delivered, 1))
	l["live.frame_bytes_mean"] = float64(traced.frameBytes) / float64(max(traced.frames, 1))
	l["live.send_errors"] = float64(traced.sendErrs)
	l["live.handleframe_ns"] = meanNs(aggs, kDeliver)
	l["live.do_wait_us_p50"] = quantile(plain.doUs, 0.5)
	l["live.do_wait_us_p99"] = quantile(plain.doUs, 0.99)
	l["live.codec_drops"] = float64(traced.codecDrops)
	l["live.gen_lag_p99_ms"] = quantile(plain.lagMs, 0.99)
	l["live.excess_p50_ms"] = quantile(plain.excessMs, 0.5)
	l["live.excess_p99_ms"] = quantile(plain.excessMs, 0.99)
	l["obs.export_bytes"] = float64(plain.exportBytes)
	l["obs.series"] = float64(plain.series)
	l["obs.export_ms_p50"] = quantile(plain.scrapeMs, 0.5)
	res.absent("eventsim", "live-udp runs on clock.Real and never touches eventsim")
	res.absent("unicast.lazy_hit_frac and unicast.dijkstra_ms", "the live runtime routes over eager unicast.Compute tables built in set-up")
	res.absent("netsim", "the live runtime forwards with its own plane")
	res.absent("experiment", "live-udp never calls experiment.Run")
	res.absent("bench.op_p50_ms and bench.op_p99_ms", "live-udp is open loop; its latency is live.excess_p50_ms and live.excess_p99_ms")
	res.notes = append(res.notes, "live.do_wait_us, live.gen_lag, live.excess and obs.* come from the untraced half: the benchmark times them itself")
	res.tr = tw.tr
	return nil
}
