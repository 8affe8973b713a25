package main

// metricDef is one row of BENCHMARK.json. The tables below are the single
// definition the program prints from; TestBenchmarkJSONMatchesTables keeps
// BENCHMARK.json equal to them.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// endToEnd is what a user of either stack sees. Every workload reports every
// one of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported from the traced run. A workload that never enters a
// layer reports 0 for it: that is what "bypasses the layer" means.
var perLayer = []metricDef{
	// Quality and cost axes of the paper; deterministic by seed.
	{"sim.stretch_mean", "ratio", "lower", 0},
	{"sim.probes_per_op", "count", "lower", 0},
	{"netsim.msgs_per_op", "count", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},

	// Simulator set-up and build path.
	{"topology.generate_ms", "ms", "lower", 0},
	{"ecan.build_uniform_ms", "ms", "lower", 0},
	{"landmark.space_ms", "ms", "lower", 0},
	{"softstate.publish_all_ms", "ms", "lower", 0},
	{"proximity.build_index_ms", "ms", "lower", 0},
	{"can.join_ms", "ms", "lower", 0},
	{"can.join_us", "us", "lower", 0},
	{"proximity.new_ers_ms", "ms", "lower", 0},

	// Simulator read path.
	{"softstate.select_us", "us", "lower", 0},
	{"softstate.selects_per_op", "count", "lower", 0},
	{"softstate.lookup_us", "us", "lower", 0},
	{"ecan.route_self_us", "us", "lower", 0},
	{"core.route_to_us", "us", "lower", 0},
	{"core.nearest_member_us", "us", "lower", 0},
	{"proximity.hybrid_us", "us", "lower", 0},
	{"proximity.ers_us", "us", "lower", 0},

	// Live stack.
	{"wire.boot_ms", "ms", "lower", 0},
	{"wire.preload_ms", "ms", "lower", 0},
	{"wire.ping_rtt_us", "us", "lower", 0},
	{"wire.store_rtt_us", "us", "lower", 0},
	{"wire.query_serve_ms", "ms", "lower", 0},
	{"wire.query_wire_us", "us", "lower", 0},
	{"wire.codec.encode_reply_us", "us", "lower", 0},
	{"wire.codec.decode_reply_us", "us", "lower", 0},
	{"wire.publish_us", "us", "lower", 0},
	{"wire.find_nearest_us", "us", "lower", 0},
	{"wire.measure_vector_us", "us", "lower", 0},
	{"hilbert.number_us", "us", "lower", 0},
	{"wire.msgs_per_op", "count", "lower", 0},
	{"wire.dials_per_op", "count", "lower", 0},
	{"wire.retries_per_op", "count", "lower", 0},
	{"wire.failovers", "count", "lower", 0},

	// Process cost behind the throughput figure.
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},

	// Noise indicators: read these before trusting a run.
	{"client.latency_p99_ms", "ms", "lower", 0},
	{"client.slice_iqr_ratio", "ratio", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// deterministic names the per-layer metrics that must repeat to the last
// digit when one seed runs twice.
var deterministic = []string{"sim.stretch_mean", "sim.probes_per_op", "netsim.msgs_per_op"}
