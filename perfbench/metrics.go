package main

// metricSpec is one reported metric, as listed in BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd metrics are medians over the run's unprofiled repetitions.
// The two host times are divided, per repetition, by the calibration
// kernel's time taken just before it (see calibrate), which cancels
// most of the host's speed drift between runs; the raw seconds are the
// per-layer host.* metrics.
var endToEnd = []metricSpec{
	{"wall_cal", "ratio", "lower", 0.25},
	{"cpu_cal", "ratio", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_mem_mb", "MB", "lower", 0.25},
}

// perLayer metrics come from the traced run. Counters the workload's
// entry point does not expose, and spans of calls it does not make,
// read 0.
var perLayer = []metricSpec{
	{"host.wall_s", "s", "lower", 0},
	{"host.cpu_s", "s", "lower", 0},
	{"host.cal_s", "s", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.fabric.windows", "count", "lower", 0},
	{"sim.fabric.messages", "count", "lower", 0},
	{"sim.fabric.idle_frac", "ratio", "lower", 0},
	{"sim.shard.coord_busy_s", "s", "lower", 0},
	{"sim.shard.coord_events", "count", "lower", 0},
	{"sim.shard.node_busy_s", "s", "lower", 0},
	{"sim.shard.node_events", "count", "lower", 0},
	{"sim.shard.partition_busy_s", "s", "lower", 0},
	{"sim.shard.partition_events", "count", "lower", 0},
	{"sim.shard.meta_busy_s", "s", "lower", 0},
	{"sim.shard.meta_events", "count", "lower", 0},
	{"iosched.requests", "count", "higher", 0},
	{"iosched.peak_in_flight", "count", "lower", 0},
	{"iosched.fairness_max_ratio", "ratio", "lower", 0},
	{"storage.bytes", "B", "higher", 0},
	{"mapreduce.tasks", "count", "higher", 0},
	{"mapreduce.submit_s", "s", "lower", 0},
	{"mapreduce.makespan_s", "sim-s", "lower", 0},
	{"cluster.build_s", "s", "lower", 0},
	{"dfs.build_s", "s", "lower", 0},
	{"broker.exchange_bytes", "B", "lower", 0},
	{"broker.fed_syncs", "count", "lower", 0},
	{"broker.fed_bytes", "B", "lower", 0},
	{"audit.finish_s", "s", "lower", 0},
	{"audit.checks", "count", "higher", 0},
	{"trace.merge_s", "s", "lower", 0},
	{"trace.records", "count", "higher", 0},
	{"trace.export_s", "s", "lower", 0},
	{"workloads.generate_s", "s", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"sim.cpu_s", "s", "lower", 0},
	{"storage.cpu_s", "s", "lower", 0},
	{"iosched.cpu_s", "s", "lower", 0},
	{"mapreduce.cpu_s", "s", "lower", 0},
	{"dfs.cpu_s", "s", "lower", 0},
	{"cluster.cpu_s", "s", "lower", 0},
	{"broker.cpu_s", "s", "lower", 0},
	{"shares.cpu_s", "s", "lower", 0},
	{"audit.cpu_s", "s", "lower", 0},
	{"trace.cpu_s", "s", "lower", 0},
	{"workloads.cpu_s", "s", "lower", 0},
	{"scale.cpu_s", "s", "lower", 0},
	{"experiments.cpu_s", "s", "lower", 0},
	{"runtime.gc_cpu_s", "s", "lower", 0},
	{"other.cpu_s", "s", "lower", 0},
	{"profile.overhead_ratio", "ratio", "lower", 0},
}

// cpuMetric names the per-layer metric of a CPU attribution bucket.
func cpuMetric(bucket string) string {
	if bucket == gcBucket {
		return "runtime.gc_cpu_s"
	}
	return bucket + ".cpu_s"
}
