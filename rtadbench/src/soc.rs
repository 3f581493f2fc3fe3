//! The `soc_fig8` workload: Fig. 8 cells prepared in set-up, then each
//! cell's attacked trace run through the simulated SoC (PTM → TPIU →
//! IGM → MCM → engine) on both engine variants.

use std::time::Instant;

use rtad_bench::{Fig8, REPRO_SEED};
use rtad_igm::{Igm, IgmConfig, TimedVector};
use rtad_mcm::{Mcm, McmConfig, McmRunResult};
use rtad_sim::{ClockDomain, Picos};
use rtad_soc::{
    DetectionConfig, DetectionOutcome, DetectionRun, EngineKind, HybridBackend, ModelKind,
    PreparedDetection, SequenceBackendModel, ServeModel, ServeSpec, VectorBackendModel,
};
use rtad_trace::{BranchRecord, PtmConfig, StreamEncoder};
use rtad_workloads::{AttackInjector, AttackSpec, Benchmark, ProgramModel};

use crate::oracle::{build_session, Session};
use crate::report::Outcome;
use crate::serve::{
    record_peak_rss, replay_verdicts, setup_again, timed_setup, BLOCKS, BLOCKS_PER_SETUP,
};
use crate::spans::Tracer;
use crate::stats::{host_spin_ns, interquartile_mean, median};
use crate::Args;

/// The subset of Fig. 8 `(benchmark, model)` cells this workload runs:
/// both models of the first benchmark `repro fig8` prints.
const CELLS: [(Benchmark, ModelKind); 2] = [
    (Benchmark::Mcf, ModelKind::Elm),
    (Benchmark::Mcf, ModelKind::Lstm),
];
const ENGINES: [EngineKind; 2] = [EngineKind::Miaow, EngineKind::MlMiaow];

/// The cell's configuration exactly as `repro fig8` builds it.
fn cell_config(bench: Benchmark, model: ModelKind) -> DetectionConfig {
    DetectionConfig {
        seed: REPRO_SEED,
        ..DetectionConfig::fig8(bench, model, EngineKind::Miaow)
    }
}

/// One prepared cell on both engines.
struct Cell {
    bench: Benchmark,
    model: ModelKind,
    runs: Vec<DetectionRun>,
}

fn setup(tr: &mut Tracer) -> Vec<Cell> {
    CELLS
        .iter()
        .map(|&(bench, model)| {
            let prep = tr.span("soc.prepare", || {
                PreparedDetection::prepare(cell_config(bench, model))
            });
            let runs = ENGINES.iter().map(|&e| prep.run_for(e)).collect();
            Cell { bench, model, runs }
        })
        .collect()
}

/// Rebuilds a cell's attacked trace from its configuration with the
/// same public generators the preparation uses, so the benchmark can
/// replay it layer by layer.
fn attacked_trace(config: &DetectionConfig) -> (Vec<BranchRecord>, u64) {
    let model = ProgramModel::build(config.bench, config.seed);
    let normal = model.generate(
        config.pre_attack_branches + config.post_attack_branches,
        config.seed ^ 4,
    );
    let attacked = AttackInjector::new(&model, config.seed ^ 5).inject(
        &normal,
        AttackSpec {
            position: config.pre_attack_branches,
            burst_len: config.attack_burst,
            ..AttackSpec::default()
        },
    );
    (attacked.records, attacked.attack_cycle)
}

/// Runs the clock-edge IGM over a trace and returns its vectors.
fn igm_vectors(igm: &IgmConfig, records: &[BranchRecord]) -> Vec<TimedVector> {
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(records);
    Igm::new(igm.clone()).process_trace(&trace).vectors
}

/// The MCM FSM over `vectors` with the cell's hybrid backend, built
/// from its serve spec and the Fig. 8 burst window.
fn mcm_run(spec: &ServeSpec, config: &DetectionConfig, vectors: &[TimedVector]) -> McmRunResult {
    let p = spec.policy;
    match &spec.model {
        ServeModel::Elm(elm) => {
            let backend = HybridBackend::new(
                VectorBackendModel(elm.clone()),
                p.threshold,
                spec.cycles_per_event,
            )
            .with_smoothing(p.alpha)
            .with_burst_detector(p.burst_k, config.burst_window)
            .with_hard_threshold(p.hard_threshold);
            Mcm::new(McmConfig::rtad(), backend).run(vectors)
        }
        ServeModel::Lstm(lstm) => {
            let mut m = lstm.clone();
            rtad_ml::SequenceModel::reset(&mut m);
            let backend =
                HybridBackend::new(SequenceBackendModel(m), p.threshold, spec.cycles_per_event)
                    .with_smoothing(p.alpha)
                    .with_burst_detector(p.burst_k, config.burst_window)
                    .with_hard_threshold(p.hard_threshold);
            Mcm::new(McmConfig::rtad(), backend).run(vectors)
        }
    }
}

/// The per-cell facts every execution is checked against.
struct Expect {
    branches: u64,
    vectors: u64,
    first: Vec<DetectionOutcome>,
}

/// Checks one execution's outcome against the properties the method
/// must have and against the cell's first execution.
fn check_outcome(cell: &Cell, e: usize, o: &DetectionOutcome, exp: &Expect, out: &mut Outcome) {
    let name = format!("{} {} {}", cell.bench, cell.model, ENGINES[e]);
    out.check(o.detected && o.latency.is_some(), || {
        format!("{name}: attack not detected")
    });
    out.check(!o.false_positive, || {
        format!("{name}: interrupt before the attack")
    });
    let service = ClockDomain::rtad_miaow().cycles_to_picos(o.cycles_per_event);
    out.check(o.latency.is_some_and(|l| l >= service), || {
        format!(
            "{name}: latency {:?} below one engine service time {service}",
            o.latency
        )
    });
    out.check(o.events as u64 + o.mcm_overflow == exp.vectors, || {
        format!(
            "{name}: MCM events {} + FIFO drops {} != IGM vectors {}",
            o.events, o.mcm_overflow, exp.vectors
        )
    });
    if let Some(first) = exp.first.get(e) {
        out.check(o == first, || {
            format!("{name}: outcome changed between executions")
        });
    }
}

pub fn soc_fig8(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let spin = host_spin_ns();

    let mut tr = Tracer::new();
    let (mut cells, first_setup_s) = timed_setup(&mut tr, setup);

    // Independent facts per cell: the attacked trace rebuilt from the
    // configuration, and the vectors the clock-edge IGM emits for it.
    let mut expects: Vec<Expect> = cells
        .iter()
        .map(|c| {
            let config = cell_config(c.bench, c.model);
            let (records, attack_cycle) = attacked_trace(&config);
            out.check(attack_cycle == c.runs[0].attack_cycle(), || {
                format!(
                    "{} {}: rebuilt attack trace disagrees with the prepared one",
                    c.bench, c.model
                )
            });
            let vectors = igm_vectors(&c.runs[0].serve_spec(0).igm, &records).len() as u64;
            Expect {
                branches: records.len() as u64,
                vectors,
                first: Vec::new(),
            }
        })
        .collect();

    // Warm-up: every (cell, engine) once, untimed; these outcomes are
    // the reference later executions must repeat.
    for (c, cell) in cells.iter().enumerate() {
        for (e, run) in cell.runs.iter().enumerate() {
            let o = run.execute();
            check_outcome(cell, e, &o, &expects[c], &mut out);
            expects[c].first.push(o);
            out.attempted += 1;
        }
        let lat = |e: usize| expects[c].first[e].latency.unwrap_or(Picos::ZERO);
        out.check(lat(1) < lat(0), || {
            format!(
                "{} {}: ML-MIAOW latency is not below MIAOW's",
                cell.bench, cell.model
            )
        });
    }

    // The simulated latencies must equal what `repro fig8` computes anew
    // for the same cells. (Run before the measured phase, so the
    // process's allocation history up to its memory peak does not depend
    // on how many executions fit into `--seconds`.)
    let fig8 = Fig8::run_serial(&[CELLS[0].0]);
    for (c, cell) in cells.iter().enumerate() {
        for (e, &engine) in ENGINES.iter().enumerate() {
            let repro = fig8
                .cells
                .iter()
                .find(|f| f.bench == cell.bench && f.model == cell.model && f.engine == engine)
                .map(|f| f.outcome.latency);
            out.check(repro == Some(expects[c].first[e].latency), || {
                format!(
                    "{} {} {engine}: latency {:?}, repro fig8 {repro:?}",
                    cell.bench, cell.model, expects[c].first[e].latency
                )
            });
        }
    }
    drop(fig8);

    // Every round runs every (cell, engine) once. The cells are the
    // fixed Fig. 8 inputs `repro fig8` checks against, so `--seed` does
    // not change this workload.
    let order: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..ENGINES.len()).map(move |e| (c, e)))
        .collect();
    let round_branches: u64 = order.iter().map(|&(c, _)| expects[c].branches).sum();

    // The untraced run is cut into `BLOCKS` blocks and sets the cells up
    // anew before every `BLOCKS_PER_SETUP`-th block and once after the
    // last (each fresh set-up followed by an untimed round), so set-up
    // and execution are both sampled over the whole run. The traced run
    // alternates untraced and traced rounds in one block.
    let mut setup_secs = vec![first_setup_s];
    let (mut rates, mut traced_rates, mut round_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut exec_us = Vec::with_capacity(order.len());
    let blocks = if args.trace { 1 } else { BLOCKS };
    let block_s = if args.trace { 0.3 } else { 0.8 } * args.seconds / blocks as f64;
    let mut executions = 0usize;
    for block in 0..blocks {
        if block > 0 && block % BLOCKS_PER_SETUP == 0 {
            if block == BLOCKS_PER_SETUP {
                record_peak_rss(&mut out);
            }
            cells = setup_again(cells, &mut || setup(&mut Tracer::new()), &mut setup_secs);
            execute_round(&cells, &order, &expects, None, &mut exec_us, &mut out);
        }
        let start = Instant::now();
        let mut k = 0usize;
        while k < 2 || start.elapsed().as_secs_f64() < block_s {
            let traced = args.trace && k % 2 == 1;
            let round_t = Instant::now();
            execute_round(
                &cells,
                &order,
                &expects,
                traced.then_some(&mut tr),
                &mut exec_us,
                &mut out,
            );
            let rate = round_branches as f64 / round_t.elapsed().as_secs_f64();
            if traced {
                traced_rates.push(rate);
            } else {
                rates.push(rate);
                round_p50s.push(median(&exec_us));
                executions += exec_us.len();
            }
            k += 1;
        }
    }
    let seconds: f64 = rates.iter().map(|r| round_branches as f64 / r).sum();
    out.set(
        "branches_per_s",
        (round_branches * rates.len() as u64) as f64 / seconds,
    );
    // The cells' execution times differ, so the median of all executions
    // would fall between two cells; each round's median over its cells
    // is taken instead, and their interquartile mean across rounds.
    out.set("verdict_latency_p50_us", interquartile_mean(&round_p50s));
    out.note(format!(
        "rounds {} of {} executions ({round_branches} branches), executions timed {executions}",
        rates.len(),
        order.len(),
    ));

    if args.trace {
        out.set("bench.host_spin_ns", spin);
        out.set("bench.measured_branches", round_branches as f64);
        let b = median(&rates);
        out.set("bench.tracing_base_branches_per_s", b);
        out.set(
            "bench.tracing_overhead_pct",
            (b - median(&traced_rates)) / b * 100.0,
        );
        out.set(
            "soc.execute_ms_per_cell",
            tr.total_ns("soc.execute") * 1e-6 / (traced_rates.len() * order.len()).max(1) as f64,
        );
        traced_soc(&cells, &expects, &mut tr, &mut out);
        match tr.write(&args.workload, args.seed) {
            Ok(path) => out.note(format!("spans written to {path}")),
            Err(e) => out.note(format!("could not write spans: {e}")),
        }
    } else {
        drop(setup_again(cells, &mut || setup(&mut Tracer::new()), &mut setup_secs));
        out.set("setup_s", interquartile_mean(&setup_secs));
        out.note(format!("set-ups {setup_secs:.3?} s"));
    }
    out
}

/// Executes every `(cell, engine)` of `order` once (inside a
/// `soc.execute` span when `tr` is given), checks each outcome and counts
/// it as an operation. Leaves each execution's host microseconds in
/// `exec_us`.
fn execute_round(
    cells: &[Cell],
    order: &[(usize, usize)],
    expects: &[Expect],
    mut tr: Option<&mut Tracer>,
    exec_us: &mut Vec<f64>,
    out: &mut Outcome,
) {
    exec_us.clear();
    for &(c, e) in order {
        let t = Instant::now();
        let o = match tr.as_deref_mut() {
            Some(tr) => tr.span("soc.execute", || cells[c].runs[e].execute()),
            None => cells[c].runs[e].execute(),
        };
        exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        check_outcome(&cells[c], e, &o, &expects[c], out);
        out.attempted += 1;
    }
}

/// The traced run's layer replays of every cell's attacked trace:
/// encode, clock-edge IGM, MCM with the hybrid backend; the simulated
/// Fig. 8 latency and its decomposition into hops.
fn traced_soc(cells: &[Cell], expects: &[Expect], tr: &mut Tracer, out: &mut Outcome) {
    out.set("soc.prepare_s", tr.mean_s("soc.prepare"));

    let (mut branches, mut events) = (0u64, 0u64);
    let mut parts = [0.0f64; 4];
    let mut detections = 0usize;
    let mut fifo_dropped = 0u64;
    let mut igm_counts = crate::oracle::IgmCounts::default();
    let mut sessions: Vec<(ServeSpec, Session)> = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let config = cell_config(cell.bench, cell.model);
        let (records, attack_cycle) = attacked_trace(&config);
        let attack_at = config_cpu_picos(attack_cycle);
        for (e, run) in cell.runs.iter().enumerate() {
            let spec = run.serve_spec(0);
            let trace = tr.span("trace.encode", || {
                StreamEncoder::new(PtmConfig::rtad()).encode_run(&records)
            });
            let igm_out = tr.span("igm.sim", || {
                Igm::new(spec.igm.clone()).process_trace(&trace)
            });
            drop(trace);
            let result = tr.span("mcm.run", || mcm_run(&spec, &config, &igm_out.vectors));
            branches += records.len() as u64;
            events += result.events.len() as u64;
            fifo_dropped += result.fifo.dropped;
            out.check(
                result.events.len() as u64 + result.fifo.dropped == expects[c].vectors,
                || {
                    format!(
                        "{} {} replay: MCM events + drops != IGM vectors",
                        cell.bench, cell.model
                    )
                },
            );
            // The detecting event: the first flagged one whose interrupt
            // is at or after the attack.
            let irq_cycle = ClockDomain::rtad_mlpu().cycles_to_picos(1);
            let det = result
                .events
                .iter()
                .find(|ev| ev.flagged && ev.done + irq_cycle >= attack_at);
            let expected = expects[c].first[e].latency;
            match det {
                Some(ev) => {
                    let irq = ev.done + irq_cycle;
                    let latency = irq.saturating_sub(attack_at);
                    out.check(Some(latency) == expected, || {
                        format!(
                            "{} {} {}: replayed latency {latency} != executed {expected:?}",
                            cell.bench, cell.model, ENGINES[e]
                        )
                    });
                    let hops = [
                        ev.arrived.saturating_sub(attack_at),
                        ev.started.saturating_sub(ev.arrived),
                        ev.compute_started.saturating_sub(ev.started),
                        irq.saturating_sub(ev.compute_started),
                    ];
                    for (p, h) in parts.iter_mut().zip(hops) {
                        *p += h.as_micros_f64();
                    }
                    detections += 1;
                    let name = match (cell.model, ENGINES[e]) {
                        (ModelKind::Elm, EngineKind::Miaow) => "sim.detect_latency_us.elm.miaow",
                        (ModelKind::Elm, EngineKind::MlMiaow) => {
                            "sim.detect_latency_us.elm.ml_miaow"
                        }
                        (ModelKind::Lstm, EngineKind::Miaow) => "sim.detect_latency_us.lstm.miaow",
                        (ModelKind::Lstm, EngineKind::MlMiaow) => {
                            "sim.detect_latency_us.lstm.ml_miaow"
                        }
                    };
                    out.set(name, latency.as_micros_f64());
                }
                None => out.check(false, || {
                    format!(
                        "{} {} {}: replay did not detect",
                        cell.bench, cell.model, ENGINES[e]
                    )
                }),
            }
            if e == 1 {
                let session =
                    build_session(&records, &spec.igm, &spec.model, &spec.policy, 1024, true);
                igm_counts.add(&session.igm);
                sessions.push((spec, session));
            }
        }
    }
    let n = detections.max(1) as f64;
    out.set("sim.trace_to_mcm_us", parts[0] / n);
    out.set("sim.mcm_queue_us", parts[1] / n);
    out.set("sim.mcm_tx_us", parts[2] / n);
    out.set("sim.engine_readout_us", parts[3] / n);
    out.set(
        "trace.encode_ns_per_branch",
        tr.total_ns("trace.encode") / branches as f64,
    );
    out.set(
        "igm.sim_ns_per_branch",
        tr.total_ns("igm.sim") / branches as f64,
    );
    out.set(
        "mcm.run_ns_per_event",
        tr.total_ns("mcm.run") / events.max(1) as f64,
    );
    out.set("mcm.fifo_dropped", fifo_dropped as f64);

    // Layers the SoC path runs inside `execute`, replayed alone.
    let (mut igm_ns, mut bytes, mut verdict_ns, mut windows) = (0.0, 0u64, 0.0, 0u64);
    for (spec, session) in &sessions {
        let one = std::slice::from_ref(session);
        igm_ns += crate::device::replay_igm(&spec.igm, one, tr, out);
        bytes += session.bytes.len() as u64;
        verdict_ns += replay_verdicts(&spec.policy, one, tr, out);
        windows += session.windows;
        crate::device::replay_scalar(spec, one, tr, out);
    }
    out.set("igm.decode_ns_per_byte", igm_ns / bytes.max(1) as f64);
    out.set(
        "soc.verdict_ns_per_window",
        verdict_ns / windows.max(1) as f64,
    );
    let parts: Vec<(&ServeSpec, &[Session])> = sessions
        .iter()
        .map(|(spec, s)| (spec, std::slice::from_ref(s)))
        .collect();
    crate::device::replay_device(&parts, tr, out);
    out.set("igm.frames", igm_counts.frames as f64);
    out.set("igm.packets", igm_counts.packets as f64);
    out.set("igm.windows", igm_counts.windows as f64);
    out.set("igm.filtered", igm_counts.filtered as f64);
    out.set("igm.decode_errors", igm_counts.decode_errors as f64);
    out.set("igm.p2s_dropped", igm_counts.p2s_dropped as f64);
    out.set("ml.batch_mean", 1.0);
}

/// Host-CPU cycles to simulated time on the PTM's CPU clock.
fn config_cpu_picos(cycle: u64) -> Picos {
    PtmConfig::rtad().cpu_clock.cycles_to_picos(cycle)
}
