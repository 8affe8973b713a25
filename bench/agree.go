package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// -agree answers one question: do two sets of runs of the same code agree
// within the benchmark's own bounds? It runs every workload runs times per
// set, interleaving the sets, each run a fresh process of this binary; run i
// of both sets uses seed base+i. One traced run per set and workload supplies
// the deterministic metrics, which must match to the last digit.

// child runs this binary once and parses the result line.
func child(exe string, workload string, seed uint64, seconds float64, trace int, smoke bool) (result, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// quartiles returns q1, median, q3 as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is what the gate computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func runAgree(cfg config, runs int, w io.Writer) error {
	if runs < 2 {
		return errors.New("-runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct {
		workload, metric string
		set              int
	}
	samples := map[key][]float64{}
	var problems []string
	note := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		problems = append(problems, msg)
		fmt.Fprintln(w, "FAIL:", msg)
	}
	for i := 0; i < runs; i++ {
		for _, def := range workloads {
			for k := 0; k < 2; k++ {
				set := (k + i) % 2 // alternate which set goes first
				seed := cfg.seed + uint64(i)
				res, err := child(exe, def.name, seed, cfg.seconds, 0, cfg.smoke)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "run %d set %c %-10s seed %d: throughput %.1f ops/s, %d/%d failed\n",
					i, 'A'+set, def.name, seed, res.Metrics["throughput_ops_s"].Value, res.Failed, res.Attempted)
				if res.Failed != 0 || !res.Correct {
					note("%s seed %d: %d of %d ops failed", def.name, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					samples[key{def.name, name, set}] = append(samples[key{def.name, name, set}], m.Value)
				}
			}
		}
	}
	for _, def := range workloads {
		var traced [2]result
		for set := range traced {
			if traced[set], err = child(exe, def.name, cfg.seed, cfg.seconds, 1, cfg.smoke); err != nil {
				return err
			}
			if traced[set].Failed != 0 {
				note("%s traced: %d of %d ops failed", def.name, traced[set].Failed, traced[set].Attempted)
			}
		}
		for _, name := range deterministic {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			fmt.Fprintf(w, "deterministic %-10s %-20s A=%v B=%v\n", def.name, name, a, b)
			if a != b {
				note("%s %s differs between two runs of seed %d: %v vs %v", def.name, name, cfg.seed, a, b)
			}
		}
	}

	fmt.Fprintf(w, "\n%-10s %-18s %-6s %14s %14s %14s %8s | %14s %14s %14s %8s | %8s %6s\n",
		"workload", "metric", "unit", "A.q1", "A.median", "A.q3", "A.iqr", "B.q1", "B.median", "B.q3", "B.iqr", "B-vs-A", "bound")
	for _, def := range workloads {
		for _, m := range endToEnd {
			a1, a2, a3 := quartiles(samples[key{def.name, m.name, 0}])
			b1, b2, b3 := quartiles(samples[key{def.name, m.name, 1}])
			worse := (b2 - a2) / a2
			if m.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-10s %-18s %-6s %14.4f %14.4f %14.4f %7.2f%% | %14.4f %14.4f %14.4f %7.2f%% | %+7.2f%% %5.1f%%\n",
				def.name, m.name, m.unit, a1, a2, a3, 100*(a3-a1)/a2, b1, b2, b3, 100*(b3-b1)/b2, 100*worse, 100*m.bound)
			if math.Abs(worse) > m.bound {
				note("%s %s: set medians differ by %.2f%%, bound %.1f%%", def.name, m.name, 100*math.Abs(worse), 100*m.bound)
			}
			if m.name != "setup_s" {
				for set, spread := range []float64{(a3 - a1) / a2, (b3 - b1) / b2} {
					if spread > m.bound {
						note("%s %s: set %c quartile spread %.2f%% exceeds bound %.1f%%", def.name, m.name, 'A'+set, 100*spread, 100*m.bound)
					}
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d disagreements", len(problems))
	}
	fmt.Fprintln(w, "\nagree: both sets agree within every bound; deterministic metrics identical")
	return nil
}
