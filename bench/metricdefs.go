package main

// metricDef names one metric, its unit and which way is better. The two
// lists below are the benchmark's contract: BENCHMARK.json repeats them,
// selftest_test.go checks that the two agree, and every workload reports
// every entry (a layer a workload never enters reads 0).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"frames_per_s", "1/s", "higher"},
	{"cpu_ms_per_frame", "ms", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"pointcloud.synth_frame_us", "us", "lower"},
	{"pointcloud.synth_frame_allocs", "count", "lower"},
	{"cell.occupied_us", "us", "lower"},

	{"codec.encode_cell_us", "us", "lower"},
	{"codec.encode_frame_ms", "ms", "lower"},
	{"codec.encode_allocs_per_frame", "count", "lower"},
	{"codec.encode_bits_per_point", "bits", "lower"},
	{"codec.decode_cell_us", "us", "lower"},
	{"codec.decode_frame_ms", "ms", "lower"},
	{"codec.decode_allocs_per_frame", "count", "lower"},
	{"codec.decode_mpts_per_s", "Mpts/s", "higher"},
	{"codec.prefix_ns", "ns", "lower"},

	{"blockcache.encode_hit_ratio", "ratio", "higher"},
	{"blockcache.encode_hit_us", "us", "lower"},
	{"blockcache.encode_miss_overhead_us", "us", "lower"},
	{"blockcache.decode_hit_ratio", "ratio", "higher"},
	{"blockcache.decode_hit_us", "us", "lower"},
	{"blockcache.decode_evictions", "count", "lower"},

	{"vivo.build_store_ms", "ms", "lower"},
	{"vivo.request_us", "us", "lower"},
	{"vivo.request_allocs", "count", "lower"},
	{"vivo.request_cells", "count", "lower"},

	{"wire.new_buffer_us", "us", "lower"},
	{"wire.new_buffer_allocs", "count", "lower"},
	{"wire.read_message_us", "us", "lower"},
	{"wire.read_message_allocs", "count", "lower"},
	{"wire.read_message_alloc_bytes", "B", "lower"},
	{"wire.pose_append_ns", "ns", "lower"},

	{"hub.push_to_socket_ms_p50", "ms", "lower"},
	{"hub.push_to_socket_ms_p95", "ms", "lower"},
	{"hub.push_to_socket_ms_p99", "ms", "lower"},
	{"hub.join_warm_ms", "ms", "lower"},
	{"hub.pull_rtt_us", "us", "lower"},
	{"hub.tick_late_frac", "ratio", "lower"},
	{"hub.ticks_skipped", "count", "lower"},
	{"hub.ttff_cold_ms_p50", "ms", "lower"},
	{"hub.ttff_warm_ms_p50", "ms", "lower"},
	{"hub.joins_per_s", "1/s", "higher"},
	{"hub.drops_enqueue", "count", "lower"},
	{"hub.drops_slowclient", "count", "lower"},
	{"hub.serialize_errors", "count", "lower"},
	{"hub.writer_deaths", "count", "lower"},
	{"hub.window_misses", "count", "lower"},
	{"hub.sessions_built", "count", "lower"},
	{"hub.sessions_reaped", "count", "higher"},

	{"transport.frame_ms_p99", "ms", "lower"},
	{"transport.wire_kb_per_frame", "KB", "lower"},
	{"transport.points_per_frame", "count", "higher"},
	{"transport.multicast_byte_share", "ratio", "higher"},
	{"transport.frames_dropped", "count", "lower"},
	{"transport.decode_errors", "count", "lower"},
	{"transport.reconnects", "count", "lower"},
	{"transport.heartbeat_misses", "count", "lower"},

	{"stream.sim_fps", "1/s", "higher"},
	{"stream.sim_multicast_share", "ratio", "higher"},
	{"stream.qoe_stalls", "count", "lower"},
	{"stream.qoe_regroups", "count", "lower"},
	{"stream.session_run_ms", "ms", "lower"},
	{"stream.allocs_per_frame", "count", "lower"},
	{"stream.alloc_kb_per_frame", "KB", "lower"},

	{"core.plan_us", "us", "lower"},
	{"core.plan_allocs", "count", "lower"},
	{"multicast.greedy_us", "us", "lower"},
	{"multicast.groups_per_frame", "count", "lower"},
	{"beam.select_us", "us", "lower"},
	{"beam.design_custom_us", "us", "lower"},
	{"phy.sweep_best_sector_us", "us", "lower"},
	{"phy.paths_us", "us", "lower"},
	{"mac.goodput_ns", "ns", "lower"},
	{"predict.predict_all_us", "us", "lower"},
	{"predict.observe_ns", "ns", "lower"},
	{"abr.decide_ns", "ns", "lower"},

	{"obs.tracer_overhead_frac", "ratio", "lower"},
	{"obs.record_ns", "ns", "lower"},
	{"metrics.counter_inc_ns", "ns", "lower"},
	{"metrics.windowed_observe_ns", "ns", "lower"},

	{"proc.alloc_kb_per_frame", "KB", "lower"},
	{"proc.mallocs_per_frame", "count", "lower"},
	{"proc.gc_cpu_frac", "ratio", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.goroutines_leaked", "count", "lower"},

	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.ladder_coverage_frac", "ratio", "higher"},
}
