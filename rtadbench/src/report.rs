//! The result of one run and the metric registry it is printed from.

use std::collections::BTreeMap;

use crate::Args;

/// End-to-end metrics: `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("branches_per_s", "branches/s"),
    ("verdict_latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run. A
/// layer a workload does not exercise reads 0 there (README table).
/// `verdict_latency_p99_us` is here rather than end to end: its spread
/// from run to run on a host that preempts for milliseconds exceeds any
/// bound the benchmark may set.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("trace.encode_ns_per_branch", "ns"),
    ("igm.decode_ns_per_byte", "ns"),
    ("igm.sim_ns_per_branch", "ns"),
    ("igm.frames", "count"),
    ("igm.packets", "count"),
    ("igm.windows", "count"),
    ("igm.filtered", "count"),
    ("igm.decode_errors", "count"),
    ("igm.p2s_dropped", "count"),
    ("ml.lstm_ns_per_window", "ns"),
    ("ml.elm_ns_per_window", "ns"),
    ("ml.batch_mean", "windows"),
    ("ml.train_s", "s"),
    ("miaow.step_ns_per_window", "ns"),
    ("miaow.tier1_waves", "count"),
    ("miaow.tier2_waves", "count"),
    ("miaow.tier3_waves", "count"),
    ("miaow.predecode_hits", "count"),
    ("miaow.predecode_misses", "count"),
    ("miaow.cycles_per_window", "cycles"),
    ("miaow.profile_trim_s", "s"),
    ("analysis.attest_s", "s"),
    ("mcm.run_ns_per_event", "ns"),
    ("mcm.fifo_dropped", "count"),
    ("soc.register_s", "s"),
    ("soc.feed_ns_per_byte", "ns"),
    ("soc.poll_ns_per_window", "ns"),
    ("soc.sched_ns_per_window", "ns"),
    ("soc.idle_round_ns", "ns"),
    ("soc.rounds", "count"),
    ("soc.stream_polls", "count"),
    ("soc.batches", "count"),
    ("soc.bytes_per_idle_stream", "B"),
    ("soc.steady_allocs", "count"),
    ("soc.dropped_bytes", "B"),
    ("soc.verdict_ns_per_window", "ns"),
    ("soc.verdict_resident_bytes", "B"),
    ("soc.prepare_s", "s"),
    ("soc.execute_ms_per_cell", "ms"),
    ("sim.detect_latency_us.elm.miaow", "us"),
    ("sim.detect_latency_us.elm.ml_miaow", "us"),
    ("sim.detect_latency_us.lstm.miaow", "us"),
    ("sim.detect_latency_us.lstm.ml_miaow", "us"),
    ("sim.trace_to_mcm_us", "us"),
    ("sim.mcm_queue_us", "us"),
    ("sim.mcm_tx_us", "us"),
    ("sim.engine_readout_us", "us"),
    ("verdict_latency_p99_us", "us"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.host_spin_ns", "ns"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.tracing_base_branches_per_s", "branches/s"),
    ("bench.latency_samples", "count"),
    ("bench.measured_branches", "count"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output that did not fail matched its independent check.
    pub correct: bool,
    /// Operations attempted (the unit is per workload; README).
    pub attempted: u64,
    /// Operations that failed (only the named `burst_k == 1` fault).
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer).
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a metric value; the name must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed correctness check: the run is no longer correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("rtadbench: CHECK FAILED: {}", what());
            self.correct = false;
        }
    }

    /// A human-readable line on standard error (run shape, sample counts).
    pub fn note(&self, line: impl std::fmt::Display) {
        eprintln!("rtadbench: {line}");
    }

    /// Prints the summary table and, as the last line, the JSON result.
    pub fn print(&self, args: &Args) {
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("  {name:<38} {v:>18.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}
