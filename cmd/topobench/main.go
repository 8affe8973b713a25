// Command topobench regenerates the paper's tables and figures.
//
// Usage:
//
//	topobench -list
//	topobench -run fig14                 # one experiment, quick scale
//	topobench -run all -scale full       # the whole evaluation, paper scale
//	topobench -run all -scale full -j 8  # fan experiments out over 8 workers
//	topobench -run fig16 -csv out/       # also write CSV series
//
// Quick scale shrinks the topologies and overlays ~10x so the full suite
// finishes in seconds; full scale reproduces the paper's ~10k-host
// topologies and 4096-member overlays.
//
// Experiments fan out across the worker pool of internal/experiment/engine
// and further split into sweep-point units inside; the cell values, table
// order, and telemetry lines are byte-identical at every -j because every
// random stream derives from the unit's identity, never the worker's.
// Performance is measured by the bench/ harness, never on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"gsso/internal/experiment"
	"gsso/internal/experiment/engine"
	"gsso/internal/netsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		runID      = fs.String("run", "", "experiment id to run, or 'all'")
		scale      = fs.String("scale", "quick", "quick or full")
		seed       = fs.Uint64("seed", 1, "root random seed")
		csvDir     = fs.String("csv", "", "directory to also write per-table CSV files")
		plot       = fs.Bool("plot", false, "also render numeric tables as ASCII charts")
		jobs       = fs.Int("j", 0, "worker-pool width (0 = GOMAXPROCS)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); err == nil {
				err = werr
			}
		}()
	}
	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-11s %-16s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}
	if *runID == "" {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -run <id|all> or -list")
	}

	engine.SetWorkers(*jobs)

	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.Quick(*seed)
	case "full":
		sc = experiment.Full(*seed)
	default:
		return fmt.Errorf("unknown scale %q (quick|full)", *scale)
	}
	if err := sc.Validate(); err != nil {
		return err
	}

	var todo []experiment.Experiment
	if *runID == "all" {
		todo = experiment.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			todo = append(todo, e)
		}
	}

	// Fan experiments out as top-level units. Results are stitched back in
	// registry order below, so stdout is identical at every pool width; the
	// run-labeled simulator totals keep each experiment's meters separate
	// from its concurrent neighbors'.
	type outcome struct {
		tables []*experiment.Table
		tel    telemetry
	}
	results, err := engine.Map(len(todo), func(i int) (outcome, error) {
		e := todo[i]
		probes0, msgs0 := netsim.RunTotals(e.ID)
		tables, err := e.Run(sc)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return outcome{tables: tables, tel: telemetryDelta(e.ID, probes0, msgs0)}, nil
	})
	if err != nil {
		return err
	}

	for _, res := range results {
		for _, t := range res.tables {
			if err := t.Render(out); err != nil {
				return err
			}
			if *plot {
				if err := experiment.Plot(t, out, 64, 16); err != nil {
					return err
				}
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					return err
				}
			}
		}
		res.tel.render(out)
		if *csvDir != "" {
			if err := res.tel.writeJSON(*csvDir); err != nil {
				return err
			}
		}
	}

	return nil
}

// telemetry is the per-experiment cost summary: what the paper's axes
// meter, RTT probes spent and overlay messages sent by category, read
// from the simulator's totals under the experiment's run label.
type telemetry struct {
	Experiment string           `json:"experiment"`
	Probes     int64            `json:"probes"`
	Messages   map[string]int64 `json:"messages"`
}

// telemetryDelta subtracts the run totals of experiment id taken before
// the run from its totals now. Concurrent experiments write disjoint run
// labels and shared cache fills land under run "shared", so the delta is
// exactly what this run spent — at any worker count, in any completion
// order.
func telemetryDelta(id string, probes0 int64, msgs0 map[string]int64) telemetry {
	probes, msgs := netsim.RunTotals(id)
	tel := telemetry{Experiment: id, Probes: probes - probes0, Messages: map[string]int64{}}
	for k, v := range msgs {
		if d := v - msgs0[k]; d != 0 {
			tel.Messages[k] = d
		}
	}
	return tel
}

// render prints the summary as one greppable line under the tables.
func (t telemetry) render(out io.Writer) {
	cats := make([]string, 0, len(t.Messages))
	total := int64(0)
	for k, v := range t.Messages {
		cats = append(cats, k)
		total += v
	}
	sort.Strings(cats)
	fmt.Fprintf(out, "# telemetry %s: probes=%d messages=%d", t.Experiment, t.Probes, total)
	for _, k := range cats {
		fmt.Fprintf(out, " %s=%d", k, t.Messages[k])
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out)
}

// writeJSON drops the summary next to the CSV series.
func (t telemetry) writeJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.Experiment+".telemetry.json"), append(data, '\n'), 0o644)
}

// writeHeapProfile writes a pprof heap profile after a forced GC, so it
// shows live memory, not garbage awaiting collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func writeCSV(dir string, t *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
