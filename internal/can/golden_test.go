package can

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// The fixture in testdata/ was recorded from the implementation that kept
// zone neighbours in a map[*zone]struct{} and members in a map[*Member]
// (GSSO_GOLDEN_WRITE=1 regenerates it — only from a revision known to be
// equivalent). It pins, for one seeded script per dimensionality, a SHA-256
// over everything a caller can observe of the zone structure: Members()
// order, and each member's host, path, zone bounds and neighbour paths.
// Neighbour paths are sorted before hashing, because the order of
// Member.Neighbors was never part of the contract.
type goldenOverlay struct {
	Dim        int    `json:"dim"`
	Joins      int    `json:"joins"`
	Churn      int    `json:"churn"`
	AfterJoins string `json:"after_joins_sha"`
	AfterChurn string `json:"after_churn_sha"`
	FinalSize  int    `json:"final_size"`
}

const (
	goldenJoins = 4096
	goldenChurn = 512
)

// overlayDigest hashes the observable state of o.
func overlayDigest(o *Overlay) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPath := func(p Path) {
		put(p.Bits)
		put(uint64(p.Len))
	}
	for _, m := range o.Members() {
		put(uint64(m.Host))
		putPath(m.Path())
		for _, x := range m.ZoneLo() {
			put(math.Float64bits(x))
		}
		for _, x := range m.ZoneHi() {
			put(math.Float64bits(x))
		}
		nbs := m.Neighbors()
		paths := make([]Path, len(nbs))
		for i, nb := range nbs {
			paths[i] = nb.Path()
		}
		sort.Slice(paths, func(i, j int) bool { return pathLess(paths[i], paths[j]) })
		put(uint64(len(paths)))
		for _, p := range paths {
			putPath(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runGoldenScript joins goldenJoins hosts at seeded points, then removes
// goldenChurn members picked by index into Members(), alternating graceful
// departs with ungraceful takeovers (every fourth removal is followed by a
// fresh join, so merges and splits interleave).
func runGoldenScript(t *testing.T, dim int) goldenOverlay {
	t.Helper()
	o, err := New(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(uint64(dim)).Split("can/golden")
	host := topology.NodeID(0)
	join := func() {
		if _, err := o.JoinRandom(host, rng); err != nil {
			t.Fatal(err)
		}
		host++
	}
	for i := 0; i < goldenJoins; i++ {
		join()
	}
	fx := goldenOverlay{Dim: dim, Joins: goldenJoins, Churn: goldenChurn, AfterJoins: overlayDigest(o)}
	for i := 0; i < goldenChurn; i++ {
		m := o.Members()[rng.Intn(o.Size())]
		if i%2 == 0 {
			err = o.Depart(m)
		} else {
			_, err = o.Takeover(m)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			join()
		}
	}
	fx.AfterChurn = overlayDigest(o)
	fx.FinalSize = o.Size()
	return fx
}

// TestGoldenOverlay is the differential gate for the zone representation:
// the seeded join/depart/takeover script must leave exactly the structure
// the map-based implementation left.
func TestGoldenOverlay(t *testing.T) {
	write := os.Getenv("GSSO_GOLDEN_WRITE") == "1"
	for _, dim := range []int{2, 3} {
		dim := dim
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			got := runGoldenScript(t, dim)
			path := filepath.Join("testdata", fmt.Sprintf("golden_overlay_d%d.json", dim))
			if write {
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
			var want goldenOverlay
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("overlay structure diverged from the map-based implementation:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
