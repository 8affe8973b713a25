package experiment

import (
	"fmt"

	"gsso/internal/can"
	"gsso/internal/core"
	"gsso/internal/ecan"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// TopoKind selects one of the paper's two topologies.
type TopoKind string

// The paper's topologies.
const (
	TSKLarge TopoKind = "tsk-large"
	TSKSmall TopoKind = "tsk-small"
)

// LatKind selects the link-latency assignment.
type LatKind string

// The paper's two latency settings.
const (
	LatGTITM  LatKind = "gtitm"
	LatManual LatKind = "manual"
)

// newStack assembles one experiment stack: a core.System of overlayN
// members and landmarks landmarks over the shared network net, metered
// under the telemetry run label run. Every seed stream, core's own and the
// experiment's (stackRNG), roots at simrand.New(sc.Seed).Split("stack/" +
// label), so two stacks with the same label are identical regardless of
// build order or worker placement. Membership is static, so entries never
// expire; opts come last and override the defaults.
func newStack(net *topology.Network, sc Scale, label, run string, overlayN, landmarks int,
	opts ...core.Option) (*core.System, error) {
	return core.New(append([]core.Option{
		core.WithNetwork(net),
		core.WithSeed(sc.Seed),
		core.WithStreamRoot("stack/" + label),
		core.WithOverlaySize(overlayN),
		core.WithLandmarks(landmarks),
		core.WithMaxReturn(32),
		core.WithSoftStateTTL(1e9),
		core.WithRunLabel(run),
	}, opts...)...)
}

// stackRNG re-derives the root stream of the stack labelled label, for
// the experiment's own draws next to core's.
func stackRNG(sc Scale, label string) *simrand.Source {
	return simrand.New(sc.Seed).Split("stack/" + label)
}

// pair is one routing measurement: source member, destination member.
type pair struct {
	src, dst *can.Member
}

// samplePairs draws n measurement pairs with distinct hosts.
func samplePairs(overlay *ecan.Overlay, n int, rng *simrand.Source) []pair {
	members := overlay.CAN().Members()
	out := make([]pair, 0, n)
	for len(out) < n {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		if src == dst || src.Host == dst.Host {
			continue
		}
		out = append(out, pair{src: src, dst: dst})
	}
	return out
}

// meanStretch routes every pair and returns the mean ratio of overlay path
// latency to direct latency.
func meanStretch(overlay *ecan.Overlay, env *netsim.Env, pairs []pair) (float64, error) {
	total, count := 0.0, 0
	for _, p := range pairs {
		res, err := overlay.Route(p.src, p.dst.ZoneCenter())
		if err != nil {
			return 0, err
		}
		direct := env.Latency(p.src.Host, p.dst.Host)
		if direct <= 0 {
			continue
		}
		total += res.Latency(env) / direct
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("experiment: no measurable pairs")
	}
	return total / float64(count), nil
}

// stretchWithSelector installs sel (clearing cached entries) and measures
// mean stretch over pairs.
func stretchWithSelector(sys *core.System, sel ecan.Selector, pairs []pair) (float64, error) {
	sys.Overlay().SetSelector(sel)
	return meanStretch(sys.Overlay(), sys.Env(), pairs)
}
