package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsso/internal/wire"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound differs", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// Every workload runs at shrunken size in both modes; between them the two
// runs print every metric of BENCHMARK.json exactly once, with its unit, and
// each result line carries exactly its mode's metrics.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range append(append([]jsonMetric(nil), b.EndToEnd...), b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			printed := map[string]int{}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				cfg := config{workload: w.Name, seed: 1, seconds: 0.3, trace: traced, smoke: true,
					traceOut: filepath.Join(t.TempDir(), "spans.json")}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
					var f spanFile
					data, err := os.ReadFile(cfg.traceOut)
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(data, &f); err != nil || len(f.Spans) == 0 || f.Workload != w.Name {
						t.Errorf("span file: err=%v, %d spans, workload %q", err, len(f.Spans), f.Workload)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: result metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
				for _, line := range strings.Split(out.String(), "\n") {
					f := strings.Fields(line)
					if len(f) == 4 && f[0] == "metric" {
						printed[f[1]]++
						if units[f[1]] != f[3] {
							t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", f[1], f[3], units[f[1]])
						}
					}
				}
			}
			for name := range units {
				if printed[name] != 1 {
					t.Errorf("%s printed %d times, want once", name, printed[name])
				}
			}
		})
	}
}

// A wrong answer must fail the run: a live-query reply that is one record
// off from the brute-force scan counts as a failed op.
func TestVerifyCatchesAWrongAnswer(t *testing.T) {
	cfg := config{workload: "live-query", seed: 1, smoke: true}
	build, err := prepareLiveQuery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	q := inst.(*liveQuery)
	if _, failed := q.verify(nil); failed != 0 {
		t.Fatalf("honest fleet failed %d checks", failed)
	}
	// The reference now expects a record the nodes never stored.
	op := q.ops[0][0]
	recs := append([]wire.Record(nil), q.records[op.node]...)
	recs[0].Number, recs[0].Addr = op.number, "0.0.0.0:1"
	q.records[op.node] = recs
	if _, failed := q.verify(nil); failed == 0 {
		t.Error("verification passed although the reply misses the nearest record")
	}
}
