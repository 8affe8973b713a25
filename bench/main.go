// Command bench is the repository's benchmark: four closed-loop workloads
// over the simulator and the live stack, driven through the layers' public
// functions only. See README.md in this directory and BENCHMARK.json at the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
}

// sizes are the workload constants. The smoke sizes exist for the tests:
// same code paths, a second per workload.
type sizes struct {
	topoScale      float64 // sim-route: topology.Spec.Scaled factor
	overlayN       int     // sim-route: overlay members
	routePairs     int     // sim-route: pairs per pass
	worldHosts     int     // sim-scale: SizedWide target
	worldQueries   int     // sim-scale: searches of each kind per world
	recordsPerNode int     // live-query
}

func (c config) sizes() sizes {
	if c.smoke {
		return sizes{topoScale: 0.2, overlayN: 256, routePairs: 512, worldHosts: 2000, worldQueries: 30, recordsPerNode: 500}
	}
	return sizes{topoScale: 1.0, overlayN: 4096, routePairs: 8192, worldHosts: 100_000, worldQueries: 100, recordsPerNode: 20_000}
}

// workloadDef fixes a workload's run shape.
type workloadDef struct {
	name     string
	why      string
	procs    int // GOMAXPROCS for the whole run, capped at the CPUs there are
	setups   int // complete set-ups per run; setup_s is their median
	sliceOps int // completed ops per slice
	smokeOps int // sliceOps under -smoke
	prepare  func(config) (func(round int, tr *tracer) (instance, error), error)
}

// smokeSetups is the number of set-ups under -smoke.
const smokeSetups = 2

var workloads = []workloadDef{
	{
		name: "sim-route", procs: 1, setups: 15, sliceOps: 8192, smokeOps: 512,
		why:     "eCAN routing through soft-state neighbour selection (Figures 10-16 inner loop): the soft-state read path does the work",
		prepare: prepareSimRoute,
	},
	{
		name: "sim-scale", procs: 2, setups: 3, sliceOps: 1, smokeOps: 1,
		why:     "10^5-host world builds (topology, landmark index, CAN joins, ERS): the build path, no soft-state and no eCAN tables",
		prepare: prepareSimScale,
	},
	{
		name: "live-query", procs: 1, setups: 20, sliceOps: 250, smokeOps: 250,
		why:     "loopback fleet, 20k records per node, query-only clients: the wire record store does the work, codec and transport almost none",
		prepare: prepareLiveQuery,
	},
	{
		name: "live-cycle", procs: 1, setups: 50, sliceOps: 5000, smokeOps: 500,
		why:     "loopback fleet, tiny stores, publish and find-nearest end to end: codec, transport and dispatch do the work, the store none",
		prepare: prepareLiveCycle,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// minSlices is the fewest slices a measured phase may have.
const minSlices = 10

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and writes the report to w.
func run(cfg config, w io.Writer) (result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sliceOps, setups := def.sliceOps, def.setups
	if cfg.smoke {
		sliceOps, setups = def.smokeOps, smokeSetups
	}
	procs := min(def.procs, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	printFingerprint(w, cfg, procs)
	calibBefore := calibrate(cfg.smoke)

	build, err := def.prepare(cfg)
	if err != nil {
		return result{}, err
	}
	var trs []*tracer
	var setupTr *tracer
	if cfg.trace {
		trs = newTracers(2) // no workload has more than two clients
		setupTr = trs[0]
	}
	inst, setupS, err := setUp(setups, func(round int) (instance, error) { return build(round, setupTr) })
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	values := map[string]float64{}
	attempted, failed := inst.verify(values)
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var ph phase
	if !cfg.trace {
		ph = measure(inst, sliceOps, minSlices, d, nil)
	} else {
		// A third of the time untraced, the rest traced: their throughput
		// ratio is what the spans cost.
		plain := measure(inst, sliceOps, 3, d/3, nil)
		ph = measure(inst, sliceOps, minSlices, d-d/3, trs)
		attempted += int64(len(plain.samples))
		failed += plain.failed
		if t := ph.throughput(); t > 0 {
			values["trace.overhead_ratio"] = plain.throughput() / t
		}
		if err := inst.probe(trs[0], values); err != nil {
			return result{}, fmt.Errorf("probe: %w", err)
		}
		inst.derive(ph, layerView(mergeLayers(trs)), values)
	}
	attempted += int64(len(ph.samples))
	failed += ph.failed
	calibAfter := calibrate(cfg.smoke)

	p50, p90, p99 := ph.latencies(sliceOps)
	units := float64(max(ph.units, 1))
	values["setup_s"] = setupS
	values["throughput_ops_s"] = ph.throughput()
	values["latency_p50_ms"] = p50
	values["latency_p90_ms"] = p90
	values["cpu_us_per_op"] = ph.cpuUs / units
	values["peak_rss_mb"] = peakRSSMB()
	values["fail_ratio"] = float64(failed) / float64(max(attempted, 1))
	values["proc.allocs_per_op"] = ph.allocs / units
	values["proc.alloc_bytes_per_op"] = ph.allocB / units
	values["proc.gc_cycles"] = ph.gcCycles
	values["proc.gc_pause_ms"] = ph.gcPauseMs
	values["client.latency_p99_ms"] = p99
	values["client.slice_iqr_ratio"] = ph.sliceIQRRatio()
	values["host.calib_ms"] = (calibBefore + calibAfter) / 2

	fmt.Fprintf(w, "# %s seed=%d: %d slices of %d ops, %d ops measured in %.1f s, %d of %d checked ops failed\n",
		def.name, cfg.seed, len(ph.slices), sliceOps, len(ph.samples),
		float64(ph.samples[len(ph.samples)-1].end)/1e9, failed, attempted)
	if drift := (calibAfter - calibBefore) / calibBefore; drift > 0.10 || drift < -0.10 {
		fmt.Fprintf(w, "# WARNING: host.calib_ms drifted %.0f%% across the run (%.2f -> %.2f ms): the host changed speed\n",
			drift*100, calibBefore, calibAfter)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := writeSpanFile(cfg.traceOut, def.name, cfg.seed, trs); err != nil {
			return result{}, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(w, "# spans written to %s\n", cfg.traceOut)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		fmt.Fprintf(w, "metric %-28s %16.6f %s\n", m.name, values[m.name], m.unit)
	}
	return res, nil
}

// printFingerprint says what ran where, so two reports can be compared.
func printFingerprint(w io.Writer, cfg config, procs int) {
	fmt.Fprintf(w, "# host: cpu=%q nproc=%d gomaxprocs=%d %s load1=%s\n",
		cpuModel(), runtime.NumCPU(), procs, runtime.Version(), loadAvg1())
	fmt.Fprintf(w, "# run: workload=%s seed=%d seconds=%g trace=%t smoke=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func loadAvg1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

func main() {
	var (
		cfg    config
		trace  int
		agree  bool
		runs   int
		fs     = flag.NewFlagSet("bench", flag.ContinueOnError)
		names  []string
		stdout = os.Stdout
	)
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed (2 is the held-out seed for validating claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics and write the span file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "shrunken sizes, for tests")
	fs.BoolVar(&agree, "agree", false, "run two interleaved sets of runs of every workload and check that they agree")
	fs.IntVar(&runs, "runs", 5, "runs per set under -agree")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace != 0
	if cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/trace-" + cfg.workload + ".json"
	}
	if agree {
		if err := runAgree(cfg, runs, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: agree:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: verification failed")
		os.Exit(1)
	}
}
