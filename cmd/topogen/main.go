// Command topogen generates a transit-stub topology and prints its
// structural and latency profile — useful for understanding what the
// simulation substrate looks like before running experiments.
//
// Usage:
//
//	topogen -kind tsk-large -latency manual -scale 1.0 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gsso/internal/simrand"
	"gsso/internal/stats"
	"gsso/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "tsk-large", "tsk-large or tsk-small")
		latency = fs.String("latency", "gtitm", "gtitm or manual")
		scale   = fs.Float64("scale", 1.0, "stub-size multiplier")
		seed    = fs.Uint64("seed", 1, "random seed")
		samples = fs.Int("samples", 2000, "latency sample pairs per class")
		dot     = fs.String("dot", "", "also write the topology as Graphviz DOT to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := topology.Preset(*kind, *latency)
	if err != nil {
		return err
	}
	spec = spec.Scaled(*scale)

	rng := simrand.New(*seed)
	net, err := topology.Generate(spec, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", net)
	fmt.Fprintf(out, "  transit domains:        %d\n", spec.TransitDomains)
	fmt.Fprintf(out, "  transit nodes/domain:   %d\n", spec.TransitNodesPerDomain)
	fmt.Fprintf(out, "  stubs/transit node:     %d\n", spec.StubsPerTransitNode)
	fmt.Fprintf(out, "  hosts/stub:             %d\n", spec.NodesPerStub)
	fmt.Fprintf(out, "  total hosts:            %d\n", net.Len())
	fmt.Fprintf(out, "  links: cross-transit=%d intra-transit=%d transit-stub=%d intra-stub=%d\n",
		net.EdgeCount(topology.LinkCrossTransit), net.EdgeCount(topology.LinkIntraTransit),
		net.EdgeCount(topology.LinkTransitStub), net.EdgeCount(topology.LinkIntraStub))

	// Latency profile by relationship class.
	sampleRNG := rng.Split("samples")
	var same, cross, all []float64
	hosts := net.StubHosts()
	for i := 0; i < *samples; i++ {
		a := hosts[sampleRNG.Intn(len(hosts))]
		b := hosts[sampleRNG.Intn(len(hosts))]
		if a == b {
			continue
		}
		l := net.Latency(a, b)
		all = append(all, l)
		if net.SameStub(a, b) {
			same = append(same, l)
		} else if net.Node(a).Domain != net.Node(b).Domain {
			cross = append(cross, l)
		}
	}
	fmt.Fprintf(out, "  latency all pairs:      %s\n", stats.Summarize(all))
	if len(same) > 0 {
		fmt.Fprintf(out, "  latency same stub:      %s\n", stats.Summarize(same))
	}
	if len(cross) > 0 {
		fmt.Fprintf(out, "  latency cross domain:   %s\n", stats.Summarize(cross))
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := net.WriteDOT(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "  dot graph written:      %s\n", *dot)
	}
	return nil
}
