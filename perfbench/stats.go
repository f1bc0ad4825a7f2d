package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process's resource use over a timed phase.
type usage struct {
	cpu    time.Duration // user plus system CPU time
	allocs float64       // heap objects allocated
	gcFrac float64       // share of the Go runtime's CPU time spent in GC
}

// usageMark is a reading of the counters usage is computed from.
type usageMark struct {
	cpu           time.Duration
	allocs        uint64
	gcCPU, allCPU float64 // seconds
}

func markUsage() usageMark {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	m := usageMark{cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		m.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = s[2].Value.Float64()
	}
	return m
}

// since returns the use between m and now.
func (m usageMark) since() usage {
	n := markUsage()
	u := usage{cpu: n.cpu - m.cpu, allocs: float64(n.allocs - m.allocs)}
	if d := n.allCPU - m.allCPU; d > 0 {
		u.gcFrac = (n.gcCPU - m.gcCPU) / d
	}
	return u
}

// heapWatch tracks the peak heap in use (live and not yet collected
// objects) over the whole run, set-up included.
type heapWatch struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// peakMB stops the watcher and returns the peak in MiB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}
