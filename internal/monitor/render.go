package monitor

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// RenderText writes the human view: node table (health, readiness,
// record and request counts, open breakers), merged RPC latencies, and
// the slowest stitched traces as indented trees.
func RenderText(w io.Writer, v ClusterView) {
	fmt.Fprintf(w, "cluster: %d/%d healthy, %d ready, %.0f records on %d/%d nodes, %d traced\n",
		v.Healthy, len(v.Nodes), v.Ready, v.TotalRecords, v.CoverageNodes, v.Healthy, v.TracedNodes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tHEALTH\tREADY\tEPOCH\tRECORDS\tREQUESTS\tREQ/S\tREFRESH_FAIL\tCONNS\tOPEN_BREAKERS")
	for _, n := range v.Nodes {
		health := "up"
		if !n.Healthy {
			health = "DOWN"
		}
		ready := "yes"
		switch {
		case !n.Healthy:
			ready = "-"
		case !n.Ready:
			ready = "NO"
			if n.NotReadyReason != "" {
				ready = "NO (" + n.NotReadyReason + ")"
			}
		}
		breakers := "-"
		if len(n.OpenBreakers) > 0 {
			breakers = strings.Join(n.OpenBreakers, ",")
		}
		rps := "-"
		if n.RequestsPerSec > 0 {
			rps = fmt.Sprintf("%.1f", n.RequestsPerSec)
		}
		// Ring epoch, with the live-reconfig count when any were applied:
		// "3 (+2)" reads as epoch 3 after 2 swaps this incarnation. Nodes
		// predating the gauge show "-".
		epoch := "-"
		if n.Epoch > 0 {
			epoch = fmt.Sprintf("%.0f", n.Epoch)
			if n.Reconfigs > 0 {
				epoch = fmt.Sprintf("%.0f (+%.0f)", n.Epoch, n.Reconfigs)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0f\t%.0f\t%s\t%.0f\t%.0f\t%s\n",
			n.Addr, health, ready, epoch, n.Records, n.Requests, rps,
			n.RefreshFailures, n.ConnsOpen, breakers)
	}
	tw.Flush()
	if len(v.RPC) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "RPC\tCOUNT\tERRORS\tP50(ms)\tP90(ms)\tP99(ms)")
		for _, r := range v.RPC {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\n",
				r.Type, r.Count, r.Errors, r.P50, r.P90, r.P99)
		}
		tw.Flush()
	}
	if len(v.Traces) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "SLOWEST TRACES")
		for _, t := range v.Traces {
			fmt.Fprintf(w, "trace %s %s %s %.2fms spans=%d orphans=%d\n",
				t.TraceID, t.RootOp, t.Outcome, t.DurMs, len(t.Spans), t.Orphans)
			for _, s := range t.Spans {
				marker := ""
				if s.Orphan {
					marker = " [orphan]"
				}
				attempts := ""
				if s.Attempts > 1 {
					attempts = fmt.Sprintf(" x%d", s.Attempts)
				}
				errs := ""
				if s.Err != "" {
					errs = " err=" + s.Err
				}
				fmt.Fprintf(w, "  %s%s %s->%s %s %.2fms%s%s%s\n",
					strings.Repeat("  ", s.Depth), s.Op, s.Node, s.Peer,
					s.Outcome, s.DurMs, attempts, marker, errs)
			}
		}
	}
}
