//! The `device_lstm` workload: every window stepped on the simulated
//! ML-MIAOW engine, plus the layer replays the traced runs share.

use std::collections::VecDeque;
use std::time::Instant;

use rtad_igm::{IgmConfig, IgmSession, IgmShared, StreamedVector};
use rtad_mcm::{Mcm, McmConfig};
use rtad_miaow::{Engine, EngineConfig, GpuMemory, TrimPlan};
use rtad_ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmDevice};
use rtad_sim::Picos;
use rtad_soc::{
    attest_model_kernels, fold_score_hash, measure_lstm_cycles, profile_trim_plan, HybridBackend,
    SequenceBackendModel, ServeModel, ServeSpec, VectorBackendModel, VerdictPolicy, VerdictState,
    SCORE_HASH_SEED,
};
use rtad_trace::{PtmConfig, StreamEncoder};

use crate::gen::Watchlist;
use crate::oracle::{device_close, verdict_rule, FlagSummary, Session};
use crate::report::Outcome;
use crate::serve::{
    build_sessions, measure_phases, replay_ml, replay_verdicts, train_watch_model,
    timed_setup, watch_run, Driver, Plane, RunFn, Schedule,
};
use crate::spans::Tracer;
use crate::stats::{host_spin_ns, median, quantile};
use crate::Args;

/// A model deployed to the device: compiled kernels, the trimmed
/// single-thread ML-MIAOW configuration and the measured cycles per
/// window on it.
pub struct Deployed {
    pub dev: LstmDevice,
    pub config: EngineConfig,
    pub cycles: u64,
}

/// The ELM whose coverage is merged into the trim plan next to the
/// served LSTM ("simultaneous trimming for multiple applications").
fn aux_elm() -> Elm {
    let data: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 1.0;
            v
        })
        .collect();
    Elm::train(&ElmConfig::rtad(), &data, 7)
}

/// The trimmed ML-MIAOW configuration, kept on the calling thread (the
/// partitioned multi-thread launch path is off).
pub fn single_thread_ml_miaow(plan: &TrimPlan) -> EngineConfig {
    EngineConfig {
        parallel: false,
        ..EngineConfig::ml_miaow(plan)
    }
}

/// Compiles `lstm` for the device, profiles the trim plan and measures
/// the per-window cycles on the trimmed engine.
pub fn deploy_lstm(lstm: &Lstm, tr: &mut Tracer) -> Deployed {
    let dev = tr.span("miaow.compile", || LstmDevice::compile(lstm));
    let elm_dev = ElmDevice::compile(&aux_elm());
    let plan = tr.span("miaow.profile_trim", || profile_trim_plan(&elm_dev, &dev));
    let config = single_thread_ml_miaow(&plan);
    let cycles = measure_lstm_cycles(&dev, config.clone());
    Deployed {
        dev,
        config,
        cycles,
    }
}

/// One stream slot of the device plane.
struct Slot {
    session: IgmSession,
    mem: GpuMemory,
    verdict: VerdictState,
    windows: u64,
    cycles: u64,
    score_hash: u64,
    flags: FlagSummary,
    raw: Vec<f64>,
}

/// The device serving loop: streaming IGM decode per stream, then one
/// `LstmDevice::step` launch sequence per window in arrival order, then
/// the per-stream verdict state.
pub struct DevicePlane {
    engine: Engine,
    dev: LstmDevice,
    shared: IgmShared,
    policy: VerdictPolicy,
    slots: Vec<Slot>,
    queue: VecDeque<(usize, u32)>,
    emitted: Vec<StreamedVector>,
}

impl DevicePlane {
    fn new(
        deployed: &Deployed,
        igm: &IgmConfig,
        policy: VerdictPolicy,
        slots: usize,
        depth: usize,
        tr: &mut Tracer,
    ) -> Self {
        let mut engine = Engine::new(deployed.config.clone());
        tr.span("analysis.attest", || {
            attest_model_kernels(&deployed.dev, &mut engine);
        });
        let shared = IgmShared::new(igm);
        let slots = (0..slots)
            .map(|_| Slot {
                session: shared.session(),
                mem: deployed.dev.load(&mut engine),
                verdict: VerdictState::new(),
                windows: 0,
                cycles: 0,
                score_hash: SCORE_HASH_SEED,
                flags: FlagSummary::default(),
                raw: Vec::with_capacity(depth),
            })
            .collect();
        DevicePlane {
            engine,
            dev: deployed.dev.clone(),
            shared,
            policy,
            slots,
            queue: VecDeque::with_capacity(depth),
            emitted: Vec::with_capacity(256),
        }
    }

    fn enqueue_emitted(&mut self, slot: usize) {
        for v in self.emitted.drain(..) {
            let token = v.payload.as_token().expect("watchlist windows are tokens");
            self.queue.push_back((slot, token));
        }
    }
}

impl Plane for DevicePlane {
    fn begin_round(&mut self, _round: usize) {
        for s in &mut self.slots {
            s.session = self.shared.session();
            self.dev.reset(&mut s.mem);
            s.verdict = VerdictState::new();
            s.windows = 0;
            s.cycles = 0;
            s.score_hash = SCORE_HASH_SEED;
            s.flags = FlagSummary::default();
            s.raw.clear();
        }
    }
    fn free(&self, _slot: usize) -> usize {
        usize::MAX
    }
    fn feed(&mut self, slot: usize, bytes: &[u8]) {
        self.slots[slot]
            .session
            .push_bytes(&self.shared, bytes, &mut self.emitted);
        self.enqueue_emitted(slot);
    }
    fn close(&mut self, slot: usize) {
        self.slots[slot]
            .session
            .finish(&self.shared, &mut self.emitted);
        self.enqueue_emitted(slot);
    }
    fn poll(&mut self) -> u64 {
        let mut done = 0;
        while let Some((slot, token)) = self.queue.pop_front() {
            let s = &mut self.slots[slot];
            let r = self
                .dev
                .step(&mut self.engine, &mut s.mem, token)
                .expect("the attested trimmed engine runs every step");
            let seq = s.windows;
            let (smoothed, flagged) = s.verdict.observe(&self.policy, seq, r.score);
            s.windows += 1;
            s.cycles += r.cycles;
            s.raw.push(r.score);
            s.score_hash = fold_score_hash(s.score_hash, smoothed);
            if flagged {
                s.flags.flags += 1;
                s.flags.last_flag = Some(seq);
            }
            done += 1;
        }
        done
    }
    fn busy(&self) -> bool {
        !self.queue.is_empty()
    }
    fn windows(&self, slot: usize) -> u64 {
        self.slots[slot].windows
    }
}

/// Checks the round just served: window counts against the clock-edge
/// IGM, device scores against the scalar host model within the f32
/// tolerance, verdicts against the documented rule over the device's
/// own scores, and simulated cycles against `windows x cycles`.
fn check_device_round(
    plane: &DevicePlane,
    sessions: &[Session],
    cycles: u64,
    round: usize,
    out: &mut Outcome,
) {
    for (slot, (s, got)) in sessions.iter().zip(&plane.slots).enumerate() {
        out.check(got.windows == s.windows, || {
            format!(
                "round {round} slot {slot}: {} device windows, oracle {}",
                got.windows, s.windows
            )
        });
        out.check(got.cycles == got.windows * cycles, || {
            format!(
                "round {round} slot {slot}: device cycles {} != windows x {cycles}",
                got.cycles
            )
        });
        let far = got
            .raw
            .iter()
            .zip(s.raw.iter())
            .filter(|(d, h)| !device_close(**d, **h))
            .count();
        out.check(far == 0, || {
            format!("round {round} slot {slot}: {far} device scores outside the f32 tolerance")
        });
        let rule = verdict_rule(&plane.policy, &got.raw);
        out.check(got.score_hash == rule.score_hash, || {
            format!("round {round} slot {slot}: smoothed device scores differ from the EMA rule")
        });
        out.check(got.flags == rule.documented, || {
            format!(
                "round {round} slot {slot}: flags {:?}, documented rule {:?}",
                got.flags, rule.documented
            )
        });
    }
}

/// Streams per round and watchlisted events per session on the device.
const DEVICE_SLOTS: usize = 4;
const DEVICE_EVENTS: usize = 1024;
const DEVICE_BURSTS: usize = 1;
/// Feed chunk bytes.
const DEVICE_CHUNK: usize = 64;
/// Paced aggregate byte rate of `device_lstm` (below its capacity).
const DEVICE_PACED_BYTES_PER_S: f64 = 0.2e6;

/// Set-up: train and calibrate, compile, profile the trim plan, measure
/// cycles per window, attest the kernels into a fresh engine and load
/// every stream's device memory.
fn device_setup(wl: &Watchlist, igm: &IgmConfig, tr: &mut Tracer) -> (ServeSpec, DevicePlane) {
    let (lstm, policy) = train_watch_model(wl, tr);
    let deployed = deploy_lstm(&lstm, tr);
    let id = tr.begin("soc.register");
    let plane = DevicePlane::new(&deployed, igm, policy, DEVICE_SLOTS, 2 * DEVICE_EVENTS, tr);
    tr.end(id);
    let spec = ServeSpec {
        igm: igm.clone(),
        model: ServeModel::Lstm(lstm),
        policy,
        cycles_per_event: deployed.cycles,
    };
    (spec, plane)
}

pub fn device_lstm(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let spin = host_spin_ns();
    let wl = Watchlist::new();
    let igm = IgmConfig::token_stream(&wl.targets);
    let mut tr = Tracer::new();
    let ((spec, mut plane), setup_s) = timed_setup(&mut tr, |tr| device_setup(&wl, &igm, tr));

    let make = |i: usize| watch_run(&wl, args.seed, i, DEVICE_EVENTS, DEVICE_BURSTS);
    let sessions = build_sessions(
        &make,
        DEVICE_SLOTS,
        DEVICE_SLOTS,
        |i| i,
        &spec,
        DEVICE_CHUNK,
        args.trace,
    );
    let branches: u64 = sessions.iter().map(|s| s.branches).sum();
    let windows: u64 = sessions.iter().map(|s| s.windows).sum();
    let cycles = spec.cycles_per_event;
    let account = |plane: &DevicePlane, round: usize, out: &mut Outcome| {
        check_device_round(plane, &sessions, cycles, round, out);
        out.attempted += sessions.len() as u64;
    };

    if args.trace {
        let sched = Schedule::new(&sessions, DEVICE_CHUNK, DEVICE_PACED_BYTES_PER_S);
        let mut driver = Driver::new(DEVICE_SLOTS, DEVICE_CHUNK);
        let mut round = 0usize;
        // Untimed warm-up.
        plane.begin_round(round);
        driver.capacity_round(&mut plane, &sessions, None);
        account(&plane, round, &mut out);
        round += 1;

        out.set("bench.host_spin_ns", spin);
        out.set("ml.train_s", tr.total_s("ml.train"));
        out.set("miaow.profile_trim_s", tr.total_s("miaow.profile_trim"));
        out.set("analysis.attest_s", tr.total_s("analysis.attest"));
        out.set("soc.register_s", tr.total_s("soc.register"));

        const PAIRS: usize = 6;
        let (mut base, mut traced) = (Vec::new(), Vec::new());
        let mut per_round = None;
        for k in 0..2 * PAIRS {
            plane.begin_round(round);
            plane.engine.reset_tier_census();
            let before = plane.engine.predecode_stats();
            if k % 2 == 0 {
                base.push(branches as f64 / driver.capacity_round(&mut plane, &sessions, None));
            } else {
                let id = tr.begin("round");
                traced.push(
                    branches as f64 / driver.capacity_round(&mut plane, &sessions, Some(&mut tr)),
                );
                tr.end(id);
            }
            account(&plane, round, &mut out);
            round += 1;
            let c = plane.engine.tier_census();
            let after = plane.engine.predecode_stats();
            let counts = (
                c.tier1,
                c.tier2,
                c.tier3,
                after.hits - before.hits,
                after.misses - before.misses,
            );
            out.check(per_round.is_none_or(|p| p == counts), || {
                format!("engine counts {counts:?} differ between traced and untraced rounds ({per_round:?})")
            });
            per_round = Some(counts);
        }
        let (t1, t2, t3, hits, misses) = per_round.expect("rounds ran");
        out.set("miaow.tier1_waves", t1 as f64);
        out.set("miaow.tier2_waves", t2 as f64);
        out.set("miaow.tier3_waves", t3 as f64);
        out.set("miaow.predecode_hits", hits as f64);
        out.set("miaow.predecode_misses", misses as f64);
        out.set("miaow.cycles_per_window", cycles as f64);
        let poll_ns = tr.total_ns("soc.poll") / PAIRS as f64;
        out.set("miaow.step_ns_per_window", poll_ns / windows as f64);
        out.set("soc.poll_ns_per_window", poll_ns / windows as f64);
        let bytes: u64 = sessions.iter().map(|s| s.bytes.len() as u64).sum();
        out.set(
            "soc.feed_ns_per_byte",
            tr.total_ns("soc.feed") / PAIRS as f64 / bytes as f64,
        );
        out.set("ml.batch_mean", 1.0);
        out.set("bench.measured_branches", branches as f64);
        let b = median(&base);
        out.set("bench.tracing_base_branches_per_s", b);
        out.set(
            "bench.tracing_overhead_pct",
            (b - median(&traced)) / b * 100.0,
        );

        plane.begin_round(round);
        let (mut lat, mut late) = (Vec::new(), Vec::new());
        tr.span("paced", || {
            driver.paced_round(&mut plane, &sessions, &sched, &mut lat, &mut late)
        });
        account(&plane, round, &mut out);
        out.set("bench.generator_late_p99_us", quantile(&late, 0.99));
        out.set("bench.latency_samples", lat.len() as f64);
        out.set("verdict_latency_p99_us", quantile(&lat, 0.99));

        replay_igm(&spec.igm, &sessions, &mut tr, &mut out);
        replay_ml(&spec, &sessions, 1.0, &mut tr, &mut out);
        replay_verdicts(&spec.policy, &sessions, &mut tr, &mut out);
        replay_encode(&make, sessions.len(), &spec.igm, &mut tr, &mut out);
        replay_mcm(&spec, &sessions, &mut tr, &mut out);
        match tr.write(&args.workload, args.seed) {
            Ok(path) => out.note(format!("spans written to {path}")),
            Err(e) => out.note(format!("could not write spans: {e}")),
        }
    } else {
        measure_phases(
            args,
            plane,
            setup_s,
            || device_setup(&wl, &igm, &mut Tracer::new()).1,
            &sessions,
            DEVICE_CHUNK,
            DEVICE_PACED_BYTES_PER_S,
            usize::MAX,
            account,
            &mut out,
        );
    }
    out
}

/// Replays the streaming decode the plane hides inside `poll_round`
/// (`IgmSession::push_bytes`/`finish` over every session's bytes) and
/// reports its cost and counters. Returns total nanoseconds.
pub fn replay_igm(
    igm: &IgmConfig,
    sessions: &[Session],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let shared = IgmShared::new(igm);
    let mut emitted: Vec<StreamedVector> = Vec::with_capacity(1024);
    let mut totals = rtad_igm::StreamingStats::default();
    let mut windows = 0u64;
    let mut bytes = 0u64;
    let t = Instant::now();
    let id = tr.begin("igm.decode");
    for s in sessions {
        let mut session = shared.session();
        for piece in s.bytes.chunks(1024) {
            session.push_bytes(&shared, piece, &mut emitted);
            windows += emitted.len() as u64;
            for v in emitted.drain(..) {
                if let rtad_igm::VectorPayload::Dense(buf) = v.payload {
                    session.recycle(buf);
                }
            }
        }
        session.finish(&shared, &mut emitted);
        windows += emitted.len() as u64;
        emitted.clear();
        let st = session.stats();
        totals.frames += st.frames;
        totals.packets += st.packets;
        totals.decode_errors += st.decode_errors;
        totals.p2s_dropped += st.p2s_dropped;
        totals.filtered += st.filtered;
        bytes += s.bytes.len() as u64;
    }
    tr.end(id);
    let ns = t.elapsed().as_nanos() as f64;
    let oracle = crate::serve::igm_totals(sessions);
    out.check(windows == oracle.windows, || {
        format!(
            "streaming decode replay emitted {windows} windows, clock-edge IGM {}",
            oracle.windows
        )
    });
    out.set("igm.decode_ns_per_byte", ns / bytes.max(1) as f64);
    out.set("igm.frames", totals.frames as f64);
    out.set("igm.packets", totals.packets as f64);
    out.set("igm.windows", windows as f64);
    out.set("igm.filtered", totals.filtered as f64);
    out.set("igm.decode_errors", totals.decode_errors as f64);
    out.set("igm.p2s_dropped", totals.p2s_dropped as f64);
    ns
}

/// Re-encodes the sessions' branch runs (`StreamEncoder::encode_run`)
/// and re-runs the clock-edge IGM (`Igm::process_trace`) under spans.
pub fn replay_encode(make: &RunFn, n: usize, igm: &IgmConfig, tr: &mut Tracer, out: &mut Outcome) {
    let mut branches = 0u64;
    for i in 0..n {
        let run = make(i);
        let trace = tr.span("trace.encode", || {
            StreamEncoder::new(PtmConfig::rtad()).encode_run(&run)
        });
        let vectors = tr.span("igm.sim", || {
            rtad_igm::Igm::new(igm.clone()).process_trace(&trace)
        });
        std::hint::black_box(vectors);
        branches += run.len() as u64;
    }
    out.set(
        "trace.encode_ns_per_branch",
        tr.total_ns("trace.encode") / branches.max(1) as f64,
    );
    out.set(
        "igm.sim_ns_per_branch",
        tr.total_ns("igm.sim") / branches.max(1) as f64,
    );
}

/// Runs the sessions' timed vectors through the MCM FSM with the
/// served model behind a `HybridBackend` (`Mcm::run`).
pub fn replay_mcm(spec: &ServeSpec, sessions: &[Session], tr: &mut Tracer, out: &mut Outcome) {
    let mut events = 0u64;
    let mut dropped = 0u64;
    let p = spec.policy;
    let window = Picos::from_micros(25);
    for s in sessions {
        let run = match &spec.model {
            ServeModel::Elm(elm) => {
                let backend = HybridBackend::new(
                    VectorBackendModel(elm.clone()),
                    p.threshold,
                    spec.cycles_per_event,
                )
                .with_smoothing(p.alpha)
                .with_burst_detector(p.burst_k, window)
                .with_hard_threshold(p.hard_threshold);
                tr.span("mcm.run", || {
                    Mcm::new(McmConfig::rtad(), backend).run(&s.vectors)
                })
            }
            ServeModel::Lstm(lstm) => {
                let mut m = lstm.clone();
                rtad_ml::SequenceModel::reset(&mut m);
                let backend =
                    HybridBackend::new(SequenceBackendModel(m), p.threshold, spec.cycles_per_event)
                        .with_smoothing(p.alpha)
                        .with_burst_detector(p.burst_k, window)
                        .with_hard_threshold(p.hard_threshold);
                tr.span("mcm.run", || {
                    Mcm::new(McmConfig::rtad(), backend).run(&s.vectors)
                })
            }
        };
        out.check(
            run.events.len() as u64 + run.fifo.dropped == s.vectors.len() as u64,
            || {
                format!(
                    "MCM events {} + FIFO drops {} != IGM vectors {}",
                    run.events.len(),
                    run.fifo.dropped,
                    s.vectors.len()
                )
            },
        );
        events += run.events.len() as u64;
        dropped += run.fifo.dropped;
    }
    out.set(
        "mcm.run_ns_per_event",
        tr.total_ns("mcm.run") / events.max(1) as f64,
    );
    out.set("mcm.fifo_dropped", dropped as f64);
}

/// An LSTM whose coverage is merged into the trim plan next to a served
/// ELM (the Fig. 8 preparation does the same).
fn aux_lstm() -> Lstm {
    let corpus: Vec<u32> = (0..300).map(|i| (i % 16) as u32).collect();
    let mut c = rtad_ml::LstmConfig::rtad();
    c.epochs = 1;
    Lstm::train(&c, &corpus, 7)
}

/// Windows stepped on the engine per replayed model.
const DEVICE_REPLAY_WINDOWS: usize = 2048;

/// Replays up to `DEVICE_REPLAY_WINDOWS` windows of each `(spec,
/// sessions)` part on an attested, trimmed single-thread ML-MIAOW
/// engine (`ElmDevice::infer` / `LstmDevice::step`), with its compile,
/// trim profiling and attestation under spans.
pub fn replay_device(parts: &[(&ServeSpec, &[Session])], tr: &mut Tracer, out: &mut Outcome) {
    let (mut ns, mut windows, mut cycles) = (0.0f64, 0u64, 0u64);
    let (mut t1, mut t2, mut t3, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut trim_s, mut attest_s) = (0.0f64, 0.0f64);
    for (spec, sessions) in parts {
        let (elm_dev, lstm_dev) = match &spec.model {
            ServeModel::Elm(elm) => (ElmDevice::compile(elm), LstmDevice::compile(&aux_lstm())),
            ServeModel::Lstm(lstm) => (ElmDevice::compile(&aux_elm()), LstmDevice::compile(lstm)),
        };
        let t = Instant::now();
        let plan = tr.span("miaow.profile_trim", || {
            profile_trim_plan(&elm_dev, &lstm_dev)
        });
        trim_s += t.elapsed().as_secs_f64();
        let mut engine = Engine::new(single_thread_ml_miaow(&plan));
        let t = Instant::now();
        tr.span("analysis.attest", || match &spec.model {
            ServeModel::Elm(_) => attest_model_kernels(&elm_dev, &mut engine),
            ServeModel::Lstm(_) => attest_model_kernels(&lstm_dev, &mut engine),
        });
        attest_s += t.elapsed().as_secs_f64();
        let before = engine.predecode_stats();
        engine.reset_tier_census();
        let mut left = DEVICE_REPLAY_WINDOWS;
        let id = tr.begin("miaow.step");
        let t = Instant::now();
        match &spec.model {
            ServeModel::Elm(_) => {
                let mut mem = elm_dev.load(&mut engine);
                for v in sessions.iter().flat_map(|s| s.vectors.iter()).take(left) {
                    let x = v.payload.as_dense().expect("dense window");
                    let r = elm_dev
                        .infer(&mut engine, &mut mem, x)
                        .expect("attested ELM runs");
                    cycles += r.cycles;
                    windows += 1;
                }
            }
            ServeModel::Lstm(_) => {
                for s in sessions.iter() {
                    let mut mem = lstm_dev.load(&mut engine);
                    lstm_dev.reset(&mut mem);
                    for v in s.vectors.iter().take(left) {
                        let token = v.payload.as_token().expect("token window");
                        let r = lstm_dev
                            .step(&mut engine, &mut mem, token)
                            .expect("attested LSTM runs");
                        cycles += r.cycles;
                        windows += 1;
                        left -= 1;
                    }
                }
            }
        }
        ns += t.elapsed().as_nanos() as f64;
        tr.end(id);
        let census = engine.tier_census();
        let after = engine.predecode_stats();
        t1 += census.tier1;
        t2 += census.tier2;
        t3 += census.tier3;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
    }
    out.set("miaow.step_ns_per_window", ns / windows.max(1) as f64);
    out.set(
        "miaow.cycles_per_window",
        cycles as f64 / windows.max(1) as f64,
    );
    out.set("miaow.tier1_waves", t1 as f64);
    out.set("miaow.tier2_waves", t2 as f64);
    out.set("miaow.tier3_waves", t3 as f64);
    out.set("miaow.predecode_hits", hits as f64);
    out.set("miaow.predecode_misses", misses as f64);
    out.set("miaow.profile_trim_s", trim_s / parts.len().max(1) as f64);
    out.set("analysis.attest_s", attest_s / parts.len().max(1) as f64);
}

/// Replays the scalar host model over the sessions' windows (the path
/// the SoC's hybrid backend scores with).
pub fn replay_scalar(spec: &ServeSpec, sessions: &[Session], tr: &mut Tracer, out: &mut Outcome) {
    let payloads: Vec<&rtad_igm::VectorPayload> = sessions
        .iter()
        .flat_map(|s| s.vectors.iter().map(|v| &v.payload))
        .collect();
    let t = Instant::now();
    let scores = tr.span("ml.scalar", || {
        crate::oracle::scalar_scores(&spec.model, &payloads)
    });
    let per = t.elapsed().as_nanos() as f64 / scores.len().max(1) as f64;
    match &spec.model {
        ServeModel::Elm(_) => out.set("ml.elm_ns_per_window", per),
        ServeModel::Lstm(_) => out.set("ml.lstm_ns_per_window", per),
    }
}
