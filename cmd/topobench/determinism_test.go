package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gsso/internal/experiment"
)

// TestSuiteOutputIdenticalAcrossWorkerCounts is the engine's golden
// contract: the full quick-scale suite must render byte-identical output at
// every pool width, because units are identified by ordinal and seeded by
// identity, never by the worker that happens to execute them. The output
// is also pinned across revisions: for seeds 1 and 2 its SHA-256 must
// match testdata/quick_seed<N>.sha256, so a change that claims to leave
// the simulator alone proves it (GSSO_GOLDEN_WRITE=1 regenerates the files
// — only from a revision known to be correct).
func TestSuiteOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite three times per seed")
	}
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, seed := range []string{"1", "2"} {
		var golden []byte
		for _, j := range widths {
			var buf bytes.Buffer
			args := []string{"-run", "all", "-scale", "quick", "-seed", seed, "-j", strconv.Itoa(j)}
			if err := run(args, &buf); err != nil {
				t.Fatalf("seed %s -j %d: %v", seed, j, err)
			}
			if golden == nil {
				golden = buf.Bytes()
				checkSuiteDigest(t, seed, golden)
				continue
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("seed %s: -j %d output differs from -j %d output\n--- j=%d ---\n%s\n--- j=%d ---\n%s",
					seed, j, widths[0], widths[0], golden, j, buf.Bytes())
			}
		}
	}
}

// TestTopologyGeneratedOncePerKey asserts the shared cache's whole point:
// re-running the suite in the same process generates zero new topologies —
// every (kind, latency, scale, seed) key is built at most once.
func TestTopologyGeneratedOncePerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite twice")
	}
	var buf bytes.Buffer
	if err := run([]string{"-run", "all", "-scale", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	gens1, _ := experiment.TopologyGenerations()
	if gens1 < 1 {
		t.Fatalf("no topology generations recorded after a full run")
	}
	buf.Reset()
	if err := run([]string{"-run", "all", "-scale", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	gens2, hits2 := experiment.TopologyGenerations()
	if gens2 != gens1 {
		t.Fatalf("second identical run generated %d new topologies (want 0)", gens2-gens1)
	}
	if hits2 == 0 {
		t.Fatal("cache reported no hits across two full runs")
	}
}

// checkSuiteDigest compares the SHA-256 of the quick-scale suite output for
// seed against the checked-in digest, or rewrites the digest under
// GSSO_GOLDEN_WRITE=1.
func checkSuiteDigest(t *testing.T, seed string, out []byte) {
	t.Helper()
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", "quick_seed"+seed+".sha256")
	if os.Getenv("GSSO_GOLDEN_WRITE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing suite digest (generate with GSSO_GOLDEN_WRITE=1 from a trusted revision): %v", err)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("quick-scale seed-%s suite output digest %s, want %s: simulator output changed", seed, got, want)
	}
}
