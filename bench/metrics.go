package main

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system would see, reported for
// every workload. Timings are calibrated (see calib.go); Bound is the share
// of the parent's median by which a metric may worsen before a change counts
// as a regression.
//
// The driver also refuses the benchmark if ten runs of one commit on ten
// seeds are spread (first to third quartile, as a share of the median) wider
// than the bound, so a bound is about three times the widest spread seen on
// this box across its quiet and noisy spells (README, "A/A evidence"): 4–6 %
// for throughput, median cycle and CPU, up to 12 % for the p90, set-up and
// verification, 1.3 % for update_day's byte counters, which follow the seed's
// policy growth. Tighter bounds belong to a quieter box.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.20},
	{"cycle_ms_p50", "ms", "lower", 0.20},
	{"cycle_ms_p90", "ms", "lower", 0.25},
	{"cpu_ms_per_kround", "ms", "lower", 0.20},
	{"wire_bytes_per_round", "B", "lower", 0.03},
	{"disk_bytes_per_round", "B", "lower", 0.05},
	{"fsyncs_per_cycle", "count", "lower", 0.10},
	{"alloc_kb_per_round", "KiB", "lower", 0.05},
	{"heap_mb_end", "MiB", "lower", 0.05},
	{"verify_krec_per_s", "krec/s", "higher", 0.25},
}

// perLayer lists the single-layer metrics of a traced run. Prefix = module.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "verifier.poll_all_ms", Unit: "ms", Better: "lower"},
	{Name: "verifier.poll_self_ms", Unit: "ms", Better: "lower"},
	{Name: "verifier.session_share", Unit: "share", Better: "higher"},
	{Name: "verifier.forced_full_share", Unit: "share", Better: "lower"},
	{Name: "verifier.export_dirty_ms", Unit: "ms", Better: "lower"},
	{Name: "verifier.row_marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "verifier.row_bytes", Unit: "B", Better: "lower"},
	{Name: "verifier.rows_per_cycle", Unit: "count", Better: "lower"},
	{Name: "verifier.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "httppool.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "httppool.rtt_us_p90", Unit: "us", Better: "lower"},
	{Name: "httppool.requests_per_round", Unit: "count", Better: "lower"},
	{Name: "httppool.dials", Unit: "count", Better: "lower"},
	{Name: "agent.answer_us_p50", Unit: "us", Better: "lower"},
	{Name: "agent.full_quote_share", Unit: "share", Better: "lower"},
	{Name: "api.session_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "api.full_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "session.mac_ns", Unit: "ns", Better: "lower"},
	{Name: "tpm.verify_quote_ns", Unit: "ns", Better: "lower"},
	{Name: "tpm.quote_ns", Unit: "ns", Better: "lower"},
	{Name: "ima.replay_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "policy.check_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.marshal_us", Unit: "us", Better: "lower"},
	{Name: "policy.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "policy.lines_end", Unit: "count", Better: "lower"},
	{Name: "audit.append_batch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "audit.bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "audit.fsyncs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "audit.open_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.verify_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "dsse.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "dsse.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "dsse.keyring_open_ms", Unit: "ms", Better: "lower"},
	{Name: "dsse.checkpoints_per_cycle", Unit: "count", Better: "lower"},
	{Name: "store.put_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "store.write_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "store.fsyncs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.append_batch_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "store.scan_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "core.update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.entries_added_per_day", Unit: "count", Better: "lower"},
	{Name: "mirror.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "rollout.begin_ms", Unit: "ms", Better: "lower"},
	{Name: "rollout.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "rollout.sweeps_to_promote", Unit: "count", Better: "lower"},
	{Name: "rollout.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.ticks_to_converge", Unit: "count", Better: "lower"},
	{Name: "reconcile.ops_per_cycle", Unit: "count", Better: "lower"},
	{Name: "cluster.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.repl_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "cluster.repl_lag_rows", Unit: "count", Better: "lower"},
	{Name: "webhook.detect_to_deliver_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "webhook.outbox_bytes_per_revocation", Unit: "B", Better: "lower"},
	{Name: "webhook.delivered", Unit: "count", Better: "higher"},
	{Name: "custody.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "custody.records", Unit: "count", Better: "higher"},
	{Name: "budget.explained_share", Unit: "share", Better: "higher"},
	{Name: "budget.unexplained_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "calib.pass_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "calib.drift", Unit: "ratio", Better: "lower"},
	{Name: "env.steal_share", Unit: "share", Better: "lower"},
	{Name: "fixture.s", Unit: "s", Better: "lower"},
	{Name: "raw.rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "raw.cycle_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "raw.cpu_ms_per_kround", Unit: "ms", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
}
