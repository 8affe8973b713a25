package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig2", "fig16", "tab1", "ext-chord", "ext-tacan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %q:\n%s", want, out)
		}
	}
}

func TestNoArgsFails(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("expected error with no arguments")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "tab2", "-scale", "giant"}, &buf); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "tab2,figB"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tab2") || !strings.Contains(out, "figB") {
		t.Fatalf("output missing tables:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-run", "tab2", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tab2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "parameter,") {
		t.Fatalf("csv header wrong: %q", string(data[:40]))
	}
}

func TestTelemetrySummary(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-run", "tab1", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	// The run ends with a one-line cost summary fed by the simulator's
	// run totals.
	re := regexp.MustCompile(`(?m)^# telemetry tab1: probes=(\d+) messages=(\d+)`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("telemetry line missing:\n%s", buf.String())
	}
	probes, _ := strconv.ParseInt(m[1], 10, 64)
	msgs, _ := strconv.ParseInt(m[2], 10, 64)
	if probes <= 0 || msgs <= 0 {
		t.Fatalf("telemetry counts not positive: probes=%d messages=%d", probes, msgs)
	}

	// -csv also drops a machine-readable copy next to the series.
	data, err := os.ReadFile(filepath.Join(dir, "tab1.telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tel telemetry
	if err := json.Unmarshal(data, &tel); err != nil {
		t.Fatal(err)
	}
	if tel.Experiment != "tab1" || tel.Probes != probes {
		t.Fatalf("JSON summary disagrees with rendered line: %+v", tel)
	}
	if tel.Messages["publish"] <= 0 {
		t.Fatalf("no publish traffic metered: %+v", tel)
	}

	// Back-to-back runs must report per-run deltas, not process totals
	// (the run totals only ever grow).
	var buf2 bytes.Buffer
	if err := run([]string{"-run", "tab1"}, &buf2); err != nil {
		t.Fatal(err)
	}
	m2 := re.FindStringSubmatch(buf2.String())
	if m2 == nil {
		t.Fatalf("second telemetry line missing:\n%s", buf2.String())
	}
	probes2, _ := strconv.ParseInt(m2[1], 10, 64)
	if probes2 >= 2*probes {
		t.Fatalf("second run reports cumulative probes (%d after %d)", probes2, probes)
	}
}
