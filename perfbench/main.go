// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall time, checks the program's outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output, one JSON object. See README.md.
//
//	perfbench -workload mc-data -seed 3 -seconds 10 -trace 0 -root ..
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// result collects one run's checks and metrics.
type result struct {
	attempted, failed int64
	failures          []string
	setup             float64
	heapMB            float64
	e2eM              map[string]float64
	layers            map[string]float64
	notes             []string
	tr                *tracer
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// absent records why per-layer metrics read 0 on this workload.
func (r *result) absent(what, why string) {
	r.notes = append(r.notes, fmt.Sprintf("absent on this workload: %s (%s)", what, why))
}

// e2e fills the simulator workloads' end-to-end metrics from their
// timed phase.
func (r *result) e2e(m loopOut) {
	r.layers["bench.op_p50_ms"] = quantile(m.opMs, 0.5)
	r.layers["bench.op_p99_ms"] = quantile(m.opMs, 0.99)
	r.layers["bench.data_pkts_per_s"] = float64(m.copies) / m.wall.Seconds()
	r.e2eM["cpu_us_per_delivery"] = float64(m.cpu.Microseconds()) / float64(max(m.deliveries, 1))
	r.e2eM["delivered_frac"] = float64(m.deliveries) / float64(max(m.expected, 1))
	r.notes = append(r.notes, fmt.Sprintf("ops %d in %.3f s; wall ms per op p50 %.6g p99 %.6g",
		m.ops, m.wall.Seconds(), r.layers["bench.op_p50_ms"], r.layers["bench.op_p99_ms"]))
}

// metricSpec is one metric as BENCHMARK.json declares it; the file is
// the one list of the metrics a run prints.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpecs(root string) (e2e, layers []metricSpec, err error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var f struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return f.EndToEnd, f.PerLayer, nil
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload: fig7a, mc-data or live-udp")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	traceF := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the repository checkout")
	flag.Parse()
	o.trace = *traceF == 1
	if o.seconds <= 0 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	e2eSpecs, layerSpecs, err := loadSpecs(o.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	run := map[string]func(opts, *result) error{
		"fig7a":    runFig7a,
		"mc-data":  runMCData,
		"live-udp": runLiveUDP,
	}[o.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (fig7a, mc-data, live-udp)\n", o.workload)
		os.Exit(2)
	}

	res := &result{e2eM: map[string]float64{}, layers: map[string]float64{}}
	hw := startHeapWatch()
	err = run(o, res)
	res.heapMB = hw.peakMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printEnv(o)
	for _, f := range res.failures {
		fmt.Printf("FAILED CHECK: %s\n", f)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out := map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	ms := map[string]any{}
	if o.trace {
		if res.tr != nil {
			aggs, _ := res.tr.totals()
			fmt.Print(selfTable(aggs))
			path := filepath.Join(o.root, ".bench_build", "trace",
				fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
			if err := res.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("spans written to %s\n", path)
		}
		err = printMetrics("layer", res.layers, layerSpecs, ms)
	} else {
		res.e2eM["setup_s"] = res.setup
		res.e2eM["heap_peak_mb"] = res.heapMB
		res.e2eM["ok_frac"] = 1 - float64(res.failed)/float64(max(res.attempted, 1))
		err = printMetrics("e2e", res.e2eM, e2eSpecs, ms)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics prints one line per declared metric and adds it to the
// result object. A metric the workload cannot measure reads 0; a
// measured metric BENCHMARK.json does not declare is a bug.
func printMetrics(kind string, vals map[string]float64, specs []metricSpec, out map[string]any) error {
	for _, m := range specs {
		fmt.Printf("%s %-28s %14.6g %s\n", kind, m.Name, vals[m.Name], m.Unit)
		out[m.Name] = map[string]any{"value": vals[m.Name], "unit": m.Unit}
	}
	for name := range vals {
		if out[name] == nil {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// printEnv records what the numbers were measured on.
func printEnv(o opts) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"source_sha": envOr("PERFBENCH_SOURCE_SHA", "unknown"),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(env) // a map of strings and ints always marshals
	fmt.Printf("env %s\n", b)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
