package main

import "fmt"

// spec is one reported metric: its name and unit, as BENCHMARK.json lists
// them. Every workload reports every metric of the set it prints; a layer
// a workload does not exercise reads 0 (it did no work).
type spec struct{ name, unit string }

var endToEndSpec = []spec{
	{"setup_s", "s"},
	{"edges_per_s", "1/s"},
	{"goodput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"mem_peak_mb", "MB"},
}

var perLayerSpec = []spec{
	{"ingest.build_s", "s"},
	{"ingest.edges_per_s", "1/s"},
	{"ingest.runs", "count"},
	{"engine.edgemap_calls_per_op", "count"},
	{"engine.edgemap_ms_p50", "ms"},
	{"engine.small_round_us_p50", "us"},
	{"engine.edges_per_call", "count"},
	{"engine.records_per_edge", "count"},
	{"algo.vertexmap_ms_per_op", "ms"},
	{"engine.scatter_ns_per_edge", "ns"},
	{"engine.gather_ns_per_record", "ns"},
	{"pipeline.io_wait_frac", "frac"},
	{"pipeline.sink_wait_frac", "frac"},
	{"bin.queue_mean", "count"},
	{"engine.phase_source_frac", "frac"},
	{"engine.phase_pipeline_frac", "frac"},
	{"engine.phase_merge_frac", "frac"},
	{"engine.other_frac", "frac"},
	{"ssd.read_mb_per_op", "MB"},
	{"ssd.pages_per_request", "count"},
	{"ssd.util", "frac"},
	{"ssd.retries", "count"},
	{"dynamic.seal_ms", "ms"},
	{"dynamic.compact_ms", "ms"},
	{"dynamic.segments_max", "count"},
	{"algo.repair_ms_p50", "ms"},
	{"algo.repair_rounds_p50", "count"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.service_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"server.expired", "count"},
	{"server.late", "count"},
	{"session.coalesced_frac", "frac"},
	{"pagecache.hit_rate", "frac"},
	{"pagecache.evictions_per_op", "count"},
	{"loadgen.late_max_ms", "ms"},
	{"exec.makespan_ms", "ms"},
	{"exec.wall_per_virtual", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// conform checks the printed set against the spec, so it always matches
// BENCHMARK.json exactly: a name or unit outside the spec is an error, and
// so is a missing metric unless fill, which reports it as 0.
func (m metricSet) conform(want []spec, fill bool) error {
	known := map[string]string{}
	for _, s := range want {
		known[s.name] = s.unit
		if _, ok := m[s.name]; !ok {
			if !fill {
				return fmt.Errorf("metric %s was not measured", s.name)
			}
			m.set(s.name, s.unit, 0)
		}
	}
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s (%s) is not in the benchmark spec", name, v.Unit)
		}
	}
	return nil
}
