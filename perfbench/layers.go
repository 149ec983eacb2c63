package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not exercise reports 0 (the store,
// handle and service layers do no work in a bare pbse.Run), so every
// traced run prints the same names. BENCHMARK.json lists the same set.
var perLayer = []struct{ name, unit string }{
	{"analysis.report_ms", unitMS},
	{"interp.dry_run_ms", unitMS},
	{"interp.steps", unitCount},
	{"concolic.ms", unitMS},
	{"concolic.steps", unitCount},
	{"concolic.seed_states", unitCount},
	{"concolic.queries", unitCount},
	{"phase.divide_ms", unitMS},
	{"phase.phases", unitCount},
	{"phase.trap_phases", unitCount},
	{"pbse.explore_ms", unitMS},
	{"pbse.steps", unitCount},
	{"pbse.turns", unitCount},
	{"pbse.steps_per_s", unitRate},
	{"symex.solver_unknowns", unitCount},
	{"symex.solver_retries", unitCount},
	{"symex.concretizations", unitCount},
	{"symex.quarantines", unitCount},
	{"solver.queries", unitCount},
	{"solver.cache_hits", unitCount},
	{"solver.shared_hits", unitCount},
	{"solver.candidate_sat", unitCount},
	{"solver.interval_fast", unitCount},
	{"solver.static_prunes", unitCount},
	{"solver.sat_runs", unitCount},
	{"solver.conflicts", unitCount},
	{"solver.batches", unitCount},
	{"solver.batched_queries", unitCount},
	{"solver.sat_run_frac", unitRatio},
	{"solver.replay_queries", unitCount},
	{"solver.replay_ms_per_query", unitMS},
	{"solver.replay_sat_ms_per_query", unitMS},
	{"store.checkpoint_read_ms", unitMS},
	{"store.checkpoint_decode_ms", unitMS},
	{"store.checkpoint_encode_ms", unitMS},
	{"store.checkpoint_write_ms", unitMS},
	{"store.checkpoint_bytes", unitBytes},
	{"store.checkpoints", unitCount},
	{"store.verdicts_flushed", unitCount},
	{"store.shared_cache_bytes", unitBytes},
	{"handle.step_ms_p50", unitMS},
	{"handle.step_ms_tail", unitMS},
	{"handle.steps", unitCount},
	{"handle.resume_overhead_pct", unitPct},
	{"service.queue_wait_s_p50", unitS},
	{"service.slice_s_p50", unitS},
	{"service.slices", unitCount},
	{"service.queue_depth_max", unitCount},
	{"service.repeat_mismatches", unitCount},
	{"supervise.faults", unitCount},
	{"loadgen.lag_ms_max", unitMS},
	{"campaign_latency.samples", unitCount},
	{"campaign_latency.tail_percentile", unitPct},
	{"result.bugs_found", unitCount},
	{"result.failed_frac", unitRatio},
	{"trace.overhead_pct", unitPct},
	{"trace.unattributed_ms", unitMS},
}

const unitBytes = "bytes"

// fillLayers reports 0 for every per-layer metric the run did not set
// and keeps exactly the perLayer set, in its order.
func fillLayers(r *report) {
	names := make([]string, 0, len(perLayer))
	kept := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m, ok := r.metrics[l.name]
		if !ok {
			m = metric{Value: 0, Unit: l.unit}
		}
		kept[l.name] = m
		names = append(names, l.name)
	}
	r.names, r.metrics = names, kept
}
