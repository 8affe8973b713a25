package gsso_test

import (
	"testing"

	"gsso/internal/core"
	"gsso/internal/experiment"
	"gsso/internal/obs"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// benchExperiment runs one paper artifact end to end per iteration at
// quick scale. These benches exist so `go test -bench=.` regenerates (and
// times) every table and figure; run cmd/topobench -scale full for
// paper-scale numbers.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	sc := experiment.Quick(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure of the paper's evaluation.

func BenchmarkFig2CANvsECAN(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3ERSvsHybrid(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4ERSLarge(b *testing.B)            { benchExperiment(b, "fig4") }
func BenchmarkFig5HybridSmall(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6ERSSmall(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig10StretchLargeGTITM(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11StretchLargeManual(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12StretchSmallGTITM(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13StretchSmallManual(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14SizeSweepGTITM(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15SizeSweepManual(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16CondenseRate(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkTab1LookupTrace(b *testing.B)         { benchExperiment(b, "tab1") }
func BenchmarkTab2Parameters(b *testing.B)          { benchExperiment(b, "tab2") }
func BenchmarkFigBHilbertExample(b *testing.B)      { benchExperiment(b, "figB") }
func BenchmarkExtLoadBalancing(b *testing.B)        { benchExperiment(b, "ext-load") }
func BenchmarkExtPubSubMaintenance(b *testing.B)    { benchExperiment(b, "ext-pubsub") }
func BenchmarkExtChordSoftState(b *testing.B)       { benchExperiment(b, "ext-chord") }
func BenchmarkExtHierLandmarks(b *testing.B)        { benchExperiment(b, "ext-hier") }
func BenchmarkExtTACANImbalance(b *testing.B)       { benchExperiment(b, "ext-tacan") }
func BenchmarkExtGroupedLandmarks(b *testing.B)     { benchExperiment(b, "ext-groups") }
func BenchmarkExtFailureRepair(b *testing.B)        { benchExperiment(b, "ext-failure") }
func BenchmarkExtChurnRecall(b *testing.B)          { benchExperiment(b, "ext-churn") }
func BenchmarkExtPastrySelection(b *testing.B)      { benchExperiment(b, "ext-pastry") }
func BenchmarkExtSVDDenoising(b *testing.B)         { benchExperiment(b, "ext-svd") }
func BenchmarkExtOrderingBaseline(b *testing.B)     { benchExperiment(b, "ext-ordering") }

// benchNearest times one nearest-member query per iteration on a fixed
// live stack. The traced variant installs a sink; the difference between
// the two is the telemetry subsystem's hot-path cost, which must stay
// within run-to-run noise when tracing is off (the disabled path is one
// atomic load).
func benchNearest(b *testing.B, sink func(obs.Trace)) {
	b.Helper()
	net, err := topology.Generate(topology.TSKLarge(topology.GTITMLatency()).Scaled(0.15),
		simrand.New(1).Split("topo"))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.New(
		core.WithSeed(1),
		core.WithNetwork(net),
		core.WithOverlaySize(96),
		core.WithLandmarks(6),
	)
	if err != nil {
		b.Fatal(err)
	}
	sys.SetTraceSink(sink)
	members := sys.Members()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NearestMember(members[i%len(members)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestMemberNoTrace(b *testing.B) { benchNearest(b, nil) }

func BenchmarkNearestMemberTraced(b *testing.B) {
	var hops int
	benchNearest(b, func(tr obs.Trace) { hops += len(tr.Hops) })
	_ = hops
}
