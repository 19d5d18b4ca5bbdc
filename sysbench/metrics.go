package main

// metricDef names one reported metric and its unit. The two lists below are
// the contract with BENCHMARK.json (a self-test keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd is the gated set: what a user of the system sees, defined on
// every workload and steady enough on a small shared host to gate at the
// bounds BENCHMARK.json fixes. Every untraced run reports it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_best_ms", "ms"},
	{"write_p50_best_ms", "ms"},
}

// perLayer is reported by the traced run. The first group holds end-to-end
// numbers that are recorded but not gated: the server's CPU per
// transaction and the tail latencies, whose run-to-run spread on a 2-vCPU
// shared host reaches or exceeds the widest bound the gate allows, and the
// numbers that exist on only some workloads (they read 0 where the workload
// does not define them).
var perLayer = []metricDef{
	{"cpu_us_per_txn", "us"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"peak_p99_ms", "ms"},
	{"max_tps", "1/s"},
	{"recovery_s", "s"},
	{"failover_s", "s"},
	{"avg_machines", "machines"},
	{"moving_p99_ms", "ms"},
	{"fail_frac", "ratio"},
	{"trace.overhead_cpu_us_per_txn", "us"},
	{"trace.overhead_read_p50_ms", "ms"},

	{"server.bytes_in_per_txn", "B"},
	{"server.bytes_out_per_txn", "B"},
	{"server.replies_per_write", "count"},
	{"server.ping_p50_us", "us"},
	{"server.pre_exec_p50_us", "us"},
	{"server.pre_exec_p99_us", "us"},
	{"server.post_exec_p50_us", "us"},
	{"server.post_exec_p99_us", "us"},

	{"engine.exec_p50_us", "us"},
	{"engine.exec_p99_us", "us"},
	{"engine.busy_frac", "ratio"},
	{"engine.queue_len_p99", "count"},
	{"engine.shed_frac", "ratio"},
	{"engine.abort_frac", "ratio"},

	{"storage.get_ns", "ns"},
	{"storage.put_ns", "ns"},
	{"storage.bytes_per_row", "B"},
	{"runtime.heap_bytes_per_row", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},

	{"durability.log_bytes_per_write", "B"},
	{"durability.append_ack_p50_us", "us"},
	{"durability.append_ack_p99_us", "us"},
	{"durability.recover_records_per_s", "1/s"},

	{"replication.ship_batch_records_mean", "count"},
	{"replication.standby_fsync_batch_mean", "count"},
	{"replication.ship_bytes_per_write", "B"},
	{"replication.ack_latency_p50_us", "us"},
	{"replication.ack_latency_p99_us", "us"},
	{"replication.ack_window_p99", "count"},
	{"replication.window_stalls", "count"},
	{"replication.apply_p50_us", "us"},
	{"replication.apply_lag_p99_us", "us"},
	{"replication.max_lag_records", "count"},
	{"replication.stale_waits_per_read", "ratio"},
	{"replication.fallback_read_frac", "ratio"},
	{"replication.promote_ms", "ms"},

	{"migration.moves", "count"},
	{"migration.move_s_mean", "s"},
	{"migration.rows_per_s", "1/s"},
	{"migration.stall_p99_ms", "ms"},
	{"migration.precopy_rows", "count"},
	{"migration.delta_rows", "count"},
	{"migration.delta_rounds", "count"},
	{"migration.retries", "count"},
	{"migration.rollbacks", "count"},

	{"controller.step_p99_ms", "ms"},
	{"controller.scale_outs", "count"},
	{"controller.scale_ins", "count"},
	{"controller.fallbacks", "count"},
	{"controller.slo_miss_windows", "count"},
	{"predict.forecast_p99_us", "us"},
	{"predict.mape", "ratio"},

	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"gen.achieved_over_offered", "ratio"},
	{"host.steal_frac", "ratio"},
}
