package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gsso/internal/simrand"
)

// The differential equivalence suite: the flat, star-factored topology must
// be observably byte-identical to the pointer-based seed implementation.
// Golden fixtures under testdata/ were generated from the pre-refactor
// implementation (run with GSSO_GOLDEN_WRITE=1 to regenerate — only do that
// from a revision known to be equivalent). Each fixture pins, for one
// (preset, latency model, seed, scale) cell:
//
//   - a hash over every node's (class, domain, stub) assignment,
//   - a hash over every stub's (gateway, gwLatency-bits) assignment,
//   - a hash over the exact float64 bit patterns of the latencies of a
//     deterministic pair sample (byte-identical, not approximately equal),
//   - the first spotChecks sampled latencies verbatim, so a mismatch
//     points at concrete numbers instead of a hash.
type goldenFixture struct {
	Preset    string   `json:"preset"`
	Latency   string   `json:"latency"`
	Seed      uint64   `json:"seed"`
	Scale     float64  `json:"scale"`
	Nodes     int      `json:"nodes"`
	Transit   int      `json:"transit"`
	Stubs     int      `json:"stubs"`
	NodesSHA  string   `json:"nodes_sha"`
	StubsSHA  string   `json:"stubs_sha"`
	LatSHA    string   `json:"lat_sha"`
	SpotPairs [][2]int `json:"spot_pairs"`
	SpotBits  []string `json:"spot_bits"`
}

const (
	goldenPairSamples = 4096
	goldenSpotChecks  = 8
)

type goldenCell struct {
	preset string
	lat    string
	seed   uint64
	scale  float64
}

func goldenCells(short bool) []goldenCell {
	var cells []goldenCell
	for _, preset := range []string{"tsk-large", "tsk-small"} {
		for _, lat := range []string{"gtitm", "manual"} {
			for _, seed := range []uint64{1, 2, 3} {
				cells = append(cells, goldenCell{preset, lat, seed, 0.2})
			}
		}
	}
	if !short {
		// One paper-scale cell per preset keeps the full-size generation
		// path honest without dominating test wall-clock.
		cells = append(cells,
			goldenCell{"tsk-large", "gtitm", 1, 1.0},
			goldenCell{"tsk-small", "gtitm", 1, 1.0},
		)
	}
	return cells
}

func goldenName(c goldenCell) string {
	return fmt.Sprintf("golden_%s_%s_s%d_x%v.json", c.preset, c.lat, c.seed, c.scale)
}

// buildFixture generates the cell's network with the current implementation
// and summarizes it into a fixture.
func buildFixture(c goldenCell) (goldenFixture, error) {
	spec, err := Preset(c.preset, c.lat)
	if err != nil {
		return goldenFixture{}, err
	}
	net, err := Generate(spec.Scaled(c.scale), simrand.New(c.seed))
	if err != nil {
		return goldenFixture{}, err
	}
	fx := goldenFixture{
		Preset:  c.preset,
		Latency: c.lat,
		Seed:    c.seed,
		Scale:   c.scale,
		Nodes:   net.Len(),
		Transit: net.TransitCount(),
		Stubs:   net.StubCount(),
	}

	nh := sha256.New()
	var buf [8]byte
	for id := NodeID(0); int(id) < net.Len(); id++ {
		n := net.Node(id)
		nh.Write([]byte{byte(n.Class)})
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(n.Domain)))
		nh.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(n.Stub)))
		nh.Write(buf[:])
	}
	fx.NodesSHA = hex.EncodeToString(nh.Sum(nil))

	sh := sha256.New()
	for si := 0; si < net.StubCount(); si++ {
		gw, gwLat := net.StubGateway(si)
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(gw)))
		sh.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(gwLat))
		sh.Write(buf[:])
	}
	fx.StubsSHA = hex.EncodeToString(sh.Sum(nil))

	lh := sha256.New()
	pairRNG := simrand.New(c.seed).Split("golden/pairs")
	for i := 0; i < goldenPairSamples; i++ {
		a := NodeID(pairRNG.Intn(net.Len()))
		b := NodeID(pairRNG.Intn(net.Len()))
		bits := math.Float64bits(net.Latency(a, b))
		binary.LittleEndian.PutUint64(buf[:], bits)
		lh.Write(buf[:])
		if i < goldenSpotChecks {
			fx.SpotPairs = append(fx.SpotPairs, [2]int{int(a), int(b)})
			fx.SpotBits = append(fx.SpotBits, fmt.Sprintf("%016x", bits))
		}
	}
	fx.LatSHA = hex.EncodeToString(lh.Sum(nil))
	return fx, nil
}

// goldenProcs are the GOMAXPROCS values every cell is generated at: the
// inline stub solver (1), the benchmark's two workers, and more workers
// than this box has cores.
var goldenProcs = []int{1, 2, 4}

// TestGoldenEquivalence is the differential gate: every fixture cell must
// match the current implementation byte for byte, however many workers
// fill the stub matrices.
func TestGoldenEquivalence(t *testing.T) {
	write := os.Getenv("GSSO_GOLDEN_WRITE") == "1"
	for _, c := range goldenCells(testing.Short()) {
		c := c
		t.Run(fmt.Sprintf("%s/%s/seed%d/x%v", c.preset, c.lat, c.seed, c.scale), func(t *testing.T) {
			path := filepath.Join("testdata", goldenName(c))
			if write {
				got, err := buildFixture(c)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (generate with GSSO_GOLDEN_WRITE=1 from a trusted revision): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			for _, procs := range goldenProcs {
				procs := procs
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					got, err := buildFixture(c)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					checkFixture(t, got, want)
				})
			}
		})
	}
}

// checkFixture reports every way got departs from the recorded fixture.
func checkFixture(t *testing.T, got, want goldenFixture) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Transit != want.Transit || got.Stubs != want.Stubs {
		t.Fatalf("shape drift: got %d/%d/%d nodes/transit/stubs, want %d/%d/%d",
			got.Nodes, got.Transit, got.Stubs, want.Nodes, want.Transit, want.Stubs)
	}
	if got.NodesSHA != want.NodesSHA {
		t.Errorf("node class/domain/stub assignments diverged from the seed implementation")
	}
	if got.StubsSHA != want.StubsSHA {
		t.Errorf("stub gateway assignments or uplink latencies diverged from the seed implementation")
	}
	if got.LatSHA != want.LatSHA {
		t.Errorf("sampled latencies are not byte-identical to the seed implementation")
		for i, p := range want.SpotPairs {
			if i < len(got.SpotBits) && got.SpotBits[i] != want.SpotBits[i] {
				t.Errorf("  pair (%d,%d): got bits %s want %s", p[0], p[1], got.SpotBits[i], want.SpotBits[i])
			}
		}
	}
}
