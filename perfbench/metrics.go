package main

// metricDef names one reported metric and its unit. The bounds and the
// better direction live in BENCHMARK.json; the self-check test holds the
// two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// zooSchemes is the zoo workload's roster, in the grand table's order.
var zooSchemes = []string{
	"meridian", "expanding", "chord", "ucl", "ipprefix", "vivaldi",
	"guyton", "beaconing", "tiers", "pic", "tapestry",
	"azureus", "kargerruhl", "rendezvous",
}

// perLayer are the metrics of single layers, printed by every traced run.
// A layer a workload does not reach, or cannot be observed from outside on
// it, reports 0 (README.md lists which).
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.shard2_speedup", "ratio"},
		{"netmodel.rtt_calls", "count"},
		{"netmodel.rtt_ns", "ns"},
		{"netmodel.replay_events", "count"},
		{"p2p.msgs_per_op", "count"},
		{"p2p.timeouts", "count"},
		{"p2p.retries", "count"},
		{"chord.allocs_per_op", "count"},
		{"chord.hops_per_op", "count"},
		{"go.gc_cpu_frac", "fraction"},
		{"engine.busy_frac", "fraction"},
		{"engine.longest_cell_ms", "ms"},
		{"query.no_peer_frac", "fraction"},
		{"get.p50_ms", "ms"},
		{"get.p99_ms", "ms"},
		{"put.p99_ms", "ms"},
		{"nearest.p99_ms", "ms"},
		{"udp.loop_wait_p99_us", "us"},
		{"udp.cpu_us_per_op", "us"},
		{"udp.allocs_per_op", "count"},
		{"trace.overhead_frac", "fraction"},
	}
	for _, s := range zooSchemes {
		defs = append(defs,
			metricDef{s + ".cell_ms", "ms"},
			metricDef{s + ".allocs_per_query", "count"},
			metricDef{s + ".msgs_per_query", "count"})
	}
	return defs
}

// zeroLayers sets every per-layer metric to 0, so a workload only fills in
// the layers it reaches.
func zeroLayers(o *outcome) {
	for _, d := range perLayer() {
		o.set(d.name, 0)
	}
}
