package topology

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the topology in Graphviz DOT form: transit nodes as
// boxes grouped per domain, stub hosts as points clustered per stub
// domain, edges labeled with their latency. Intended for inspecting
// small (scaled-down) topologies; a full ~10k-host graph renders but is
// unreadable.
func (n *Network) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph topology {")
	fmt.Fprintln(bw, "  graph [overlap=false];")
	fmt.Fprintln(bw, "  node [shape=point, width=0.08];")

	// Transit domains as clusters of boxes.
	perDomain := make(map[int][]NodeID)
	for id := NodeID(0); int(id) < n.transitCount; id++ {
		d := n.nodes[id].Domain
		perDomain[d] = append(perDomain[d], id)
	}
	for d := 0; d < n.spec.TransitDomains; d++ {
		fmt.Fprintf(bw, "  subgraph cluster_transit_%d {\n", d)
		fmt.Fprintf(bw, "    label=\"transit %d\";\n", d)
		for _, id := range perDomain[d] {
			fmt.Fprintf(bw, "    n%d [shape=box, width=0.2, label=\"t%d\"];\n", id, id)
		}
		fmt.Fprintln(bw, "  }")
	}

	// Stub domains as clusters of points.
	for si := range n.stubs {
		sd := &n.stubs[si]
		fmt.Fprintf(bw, "  subgraph cluster_stub_%d {\n", si)
		fmt.Fprintf(bw, "    label=\"stub %d\";\n", si)
		for k := 0; k < sd.size; k++ {
			fmt.Fprintf(bw, "    n%d;\n", int(sd.first)+k)
		}
		fmt.Fprintln(bw, "  }")
	}

	// Edges, deduplicated by emitting only u < v.
	for u := NodeID(0); int(u) < len(n.nodes); u++ {
		for _, arc := range n.graph.Neighbors(u) {
			if arc.To <= u {
				continue
			}
			fmt.Fprintf(bw, "  n%d -- n%d [label=\"%.1f\"];\n", u, arc.To, arc.W)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
