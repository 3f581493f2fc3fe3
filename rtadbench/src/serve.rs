//! The serving workloads (`fleet_elm`, `dense_lstm`) on the one-worker
//! sparse plane, and the round drivers the device workload shares.
//!
//! A *round* feeds one session to each of `slots` freshly registered
//! streams, closes them and drains the plane. Rounds come in two kinds:
//!
//! * **capacity**: bytes are offered losslessly as fast as the plane
//!   accepts them (a slot gets at most `chunk` bytes per sweep, never
//!   more than its ring has room for), polling between sweeps;
//! * **paced**: an open loop. Every slot's chunks fall due on a fixed
//!   schedule at a fixed aggregate byte rate; a chunk is offered when
//!   due, whatever the plane is doing, and each window's latency runs
//!   from when the chunk completing it fell due to when its verdict is
//!   out.

use std::time::Instant;

use rtad_igm::IgmConfig;
use rtad_ml::{
    calibrate_threshold, BatchArena, Lstm, LstmConfig, LstmLane, SequenceModel, ThresholdPolicy,
    VectorModel,
};
use rtad_soc::{
    syscall_table, DetectionConfig, EngineKind, ModelKind, PreparedDetection, ServeModel,
    ServeSpec, SparseConfig, SparsePipeline, VerdictPolicy, VerdictState,
};
use rtad_trace::BranchRecord;
use rtad_workloads::{Benchmark, ProgramModel};

use crate::gen::{fleet_run, Watchlist, WATCH_VOCAB};
use crate::oracle::{build_session, FlagSummary, IgmCounts, Session};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{host_spin_ns, interquartile_mean, median, peak_rss_mib, quantile, sub_seed};
use crate::Args;

/// What a round driver needs from a serving plane. Slots are the
/// streams of the current round.
pub trait Plane {
    /// Moves the slots onto the streams of round `round`.
    fn begin_round(&mut self, round: usize);
    /// Bytes `slot` accepts right now without dropping any.
    fn free(&self, slot: usize) -> usize;
    /// Offers bytes that fit (`bytes.len() <= free(slot)`).
    fn feed(&mut self, slot: usize, bytes: &[u8]);
    /// Marks the end of `slot`'s session.
    fn close(&mut self, slot: usize);
    /// One scheduling step; returns the verdicts it put out.
    fn poll(&mut self) -> u64;
    /// Whether fed work is still waiting for a poll.
    fn busy(&self) -> bool;
    /// Verdicts `slot` has put out this round.
    fn windows(&self, slot: usize) -> u64;
}

/// Reusable round scratch, allocated once so that rounds themselves do
/// not allocate on the benchmark's side.
pub struct Driver {
    pub chunk: usize,
    offs: Vec<usize>,
    seen: Vec<u64>,
}

impl Driver {
    pub fn new(slots: usize, chunk: usize) -> Self {
        Driver {
            chunk,
            offs: vec![0; slots],
            seen: vec![0; slots],
        }
    }

    /// One capacity round; returns its wall seconds.
    pub fn capacity_round<P: Plane>(
        &mut self,
        plane: &mut P,
        sessions: &[Session],
        mut tr: Option<&mut Tracer>,
    ) -> f64 {
        self.offs.fill(0);
        let t = Instant::now();
        loop {
            let sweep = tr.as_deref_mut().map(|t| t.begin("soc.feed"));
            let mut pending = false;
            for (slot, s) in sessions.iter().enumerate() {
                let off = self.offs[slot];
                if off >= s.bytes.len() {
                    continue;
                }
                pending = true;
                let n = (s.bytes.len() - off).min(self.chunk).min(plane.free(slot));
                if n > 0 {
                    plane.feed(slot, &s.bytes[off..off + n]);
                    self.offs[slot] += n;
                    if self.offs[slot] == s.bytes.len() {
                        plane.close(slot);
                    }
                }
            }
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), sweep) {
                t.end(id);
            }
            if !pending {
                break;
            }
            let id = tr.as_deref_mut().map(|t| t.begin("soc.poll"));
            plane.poll();
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
                t.end(id);
            }
        }
        while plane.busy() {
            let id = tr.as_deref_mut().map(|t| t.begin("soc.poll"));
            plane.poll();
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
                t.end(id);
            }
        }
        t.elapsed().as_secs_f64()
    }

    /// One paced round over `sched`; appends window latencies (us) to
    /// `lat` and generator lateness (us) to `late`.
    pub fn paced_round<P: Plane>(
        &mut self,
        plane: &mut P,
        sessions: &[Session],
        sched: &Schedule,
        lat: &mut Vec<f64>,
        late: &mut Vec<f64>,
    ) {
        self.seen.fill(0);
        let t0 = Instant::now();
        let now = |t0: &Instant| t0.elapsed().as_nanos() as u64;
        let mut i = 0usize;
        loop {
            let t = now(&t0);
            while i < sched.entries.len() && sched.entries[i].0 <= t {
                let (due, slot, c) = sched.entries[i];
                let (slot, c) = (slot as usize, c as usize);
                late.push((now(&t0) - due) as f64 * 1e-3);
                let bytes = &sessions[slot].bytes;
                let a = c * self.chunk;
                let b = (a + self.chunk).min(bytes.len());
                while plane.free(slot) < b - a {
                    // The plane is behind: the port waits, and the wait
                    // counts into every latency it delays.
                    if plane.poll() > 0 {
                        self.record(plane, sessions, sched, now(&t0), lat);
                    }
                }
                plane.feed(slot, &bytes[a..b]);
                if b == bytes.len() {
                    plane.close(slot);
                }
                i += 1;
            }
            if plane.busy() {
                if plane.poll() > 0 {
                    self.record(plane, sessions, sched, now(&t0), lat);
                }
            } else if i == sched.entries.len() {
                break;
            } else {
                let next = sched.entries[i].0;
                while now(&t0) < next {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn record<P: Plane>(
        &mut self,
        plane: &P,
        sessions: &[Session],
        sched: &Schedule,
        t_ns: u64,
        lat: &mut Vec<f64>,
    ) {
        for (slot, s) in sessions.iter().enumerate() {
            let done = plane.windows(slot);
            for k in self.seen[slot]..done {
                let due = sched.chunk_due[slot][s.window_chunk[k as usize] as usize];
                lat.push(t_ns.saturating_sub(due) as f64 * 1e-3);
            }
            self.seen[slot] = done;
        }
    }
}

/// The open-loop feed schedule of one paced round.
pub struct Schedule {
    /// `(due ns from round start, slot, chunk)`, sorted by due time.
    pub entries: Vec<(u64, u32, u32)>,
    /// Per slot, the due time of each chunk.
    pub chunk_due: Vec<Vec<u64>>,
}

impl Schedule {
    /// Every slot's bytes fall due at the same fixed rate, so that the
    /// slots together offer `bytes_per_s` while all are active; slot
    /// starts are staggered evenly over one chunk interval, so chunks of
    /// different slots fall due round-robin and never drift together.
    pub fn new(sessions: &[Session], chunk: usize, bytes_per_s: f64) -> Self {
        let slots = sessions.len() as f64;
        let rate = bytes_per_s / slots; // each slot's bytes per second
        let interval = chunk as f64 / rate;
        let mut entries = Vec::new();
        let mut chunk_due = Vec::with_capacity(sessions.len());
        for (slot, s) in sessions.iter().enumerate() {
            let phase = slot as f64 / slots * interval;
            let dues: Vec<u64> = (0..s.bytes.len().div_ceil(chunk))
                .map(|c| {
                    let end = ((c + 1) * chunk).min(s.bytes.len()) as f64;
                    ((phase + end / rate) * 1e9) as u64
                })
                .collect();
            for (c, &d) in dues.iter().enumerate() {
                entries.push((d, slot as u32, c as u32));
            }
            chunk_due.push(dues);
        }
        entries.sort_unstable();
        Schedule { entries, chunk_due }
    }

    /// The round's length in seconds (last chunk due).
    pub fn seconds(&self) -> f64 {
        self.entries.last().map_or(0.0, |e| e.0 as f64 * 1e-9)
    }
}

/// The sparse plane with slots mapped onto consecutive registered
/// streams, a fresh block per round.
pub struct SparsePlane {
    pub p: SparsePipeline,
    pub base: usize,
    pub slots: usize,
}

impl Plane for SparsePlane {
    fn begin_round(&mut self, round: usize) {
        self.base = round * self.slots;
        assert!(
            self.base + self.slots <= self.p.stats().registered,
            "round {round} needs more registered streams"
        );
    }
    fn free(&self, slot: usize) -> usize {
        self.p.ring_free(self.base + slot)
    }
    fn feed(&mut self, slot: usize, bytes: &[u8]) {
        self.p.feed(self.base + slot, bytes);
    }
    fn close(&mut self, slot: usize) {
        self.p.close(self.base + slot);
    }
    fn poll(&mut self) -> u64 {
        self.p.poll_round().windows
    }
    fn busy(&self) -> bool {
        self.p.ready_len() > 0
    }
    fn windows(&self, slot: usize) -> u64 {
        self.p.outcome(self.base + slot).windows
    }
}

/// Checks every stream of the round just served against its session's
/// oracle. Returns how many streams show the named `burst_k == 1`
/// fault; any other divergence marks the run incorrect.
pub fn check_sparse_round(
    plane: &SparsePlane,
    sessions: &[Session],
    round: usize,
    out: &mut Outcome,
) -> usize {
    let spec = plane.p.spec();
    let mut latched = 0;
    for (slot, s) in sessions.iter().enumerate() {
        let id = plane.base + slot;
        let o = plane.p.outcome(id);
        out.check(o.windows == s.windows, || {
            format!(
                "round {round} slot {slot}: {} windows, oracle {}",
                o.windows, s.windows
            )
        });
        out.check(o.device_cycles == s.windows * spec.cycles_per_event, || {
            format!(
                "round {round} slot {slot}: device cycles {} != windows x cycles_per_event",
                o.device_cycles
            )
        });
        out.check(o.score_hash == s.verdicts.score_hash, || {
            format!("round {round} slot {slot}: score hash differs from the scalar oracle")
        });
        out.check(plane.p.dropped_bytes(id) == 0, || {
            format!("round {round} slot {slot}: the lossless feeder dropped bytes")
        });
        let got = FlagSummary {
            flags: o.flags,
            last_flag: o.last_flag,
        };
        if got != s.verdicts.documented {
            if got == s.verdicts.latched {
                latched += 1;
            } else {
                out.check(false, || {
                    format!(
                        "round {round} slot {slot}: flags {got:?}, documented rule {:?}, latched {:?}",
                        s.verdicts.documented, s.verdicts.latched
                    )
                });
            }
        }
    }
    latched
}

/// Per-workload knobs of a serving run.
pub struct ServeShape {
    /// Streams active per round.
    pub slots: usize,
    /// Streams registered at set-up (idle population included).
    pub registered: usize,
    /// Feed chunk bytes.
    pub chunk: usize,
    /// Paced aggregate rate, bytes per second (below capacity).
    pub paced_bytes_per_s: f64,
    /// Whether a round fails as a whole when any stream shows the named
    /// fault (`fleet_elm`) or each stream counts as one operation.
    pub per_round_ops: bool,
}

/// Shares of `--seconds` given to the capacity and to the paced phase,
/// and the blocks both are cut into.
const CAPACITY_SHARE: f64 = 0.45;
const PACED_SHARE: f64 = 0.45;
pub const BLOCKS: usize = 8;
/// Blocks served by one set-up. The workload is set up anew before every
/// `BLOCKS_PER_SETUP`-th block and once more after the last, so a run
/// times `BLOCKS / BLOCKS_PER_SETUP + 1` set-ups spread over its whole
/// length, and `setup_s` is their interquartile mean.
pub const BLOCKS_PER_SETUP: usize = 2;

/// Times one set-up inside a `setup` span of `tr`.
pub fn timed_setup<T>(tr: &mut Tracer, setup: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    let t = Instant::now();
    let id = tr.begin("setup");
    let r = setup(tr);
    tr.end(id);
    (r, t.elapsed().as_secs_f64())
}

/// Drops the set-up in use, then times a fresh one (so a run never
/// holds two). Returns the fresh set-up.
pub fn setup_again<T>(old: T, setup: &mut impl FnMut() -> T, secs: &mut Vec<f64>) -> T {
    drop(old);
    let t = Instant::now();
    let fresh = setup();
    secs.push(t.elapsed().as_secs_f64());
    fresh
}

/// Records `peak_rss_mib`: the peak with one set-up serving, read
/// before the first set-up that replaces it (a replacing set-up can
/// only raise the peak by what the allocator kept from its predecessor).
pub fn record_peak_rss(out: &mut Outcome) {
    out.set("peak_rss_mib", peak_rss_mib());
}

/// The untraced measurement of a serving plane: an untimed paced
/// warm-up round, then `BLOCKS` blocks, each a stretch of capacity
/// rounds followed by a stretch of paced rounds. Interleaving the phases
/// spreads both over the whole run, so a host that changes speed for
/// seconds at a time moves both alike and does not decide either alone.
/// For the same reason the plane is set up anew (`setup`) before every
/// `BLOCKS_PER_SETUP`-th block and once after the last; every set-up is
/// followed by an untimed capacity warm-up round, and its rounds start
/// again at the plane's first registered streams.
///
/// `branches_per_s` is all capacity rounds' branches over their summed
/// wall time. Each latency percentile is taken per paced round (every
/// round carries thousands of windows) and the interquartile mean
/// across rounds is reported, so a host stall inside one round does not
/// decide the run's tail. `setup_s` is the interquartile mean of
/// `first_setup_s` and the set-ups timed here.
/// `peak_rss_mib` is read before the first replacing set-up.
/// `account` checks every round served and counts its operations.
#[allow(clippy::too_many_arguments)]
pub fn measure_phases<P: Plane>(
    args: &Args,
    mut plane: P,
    first_setup_s: f64,
    mut setup: impl FnMut() -> P,
    sessions: &[Session],
    chunk: usize,
    paced_bytes_per_s: f64,
    max_rounds: usize,
    mut account: impl FnMut(&P, usize, &mut Outcome),
    out: &mut Outcome,
) {
    let branches: u64 = sessions.iter().map(|s| s.branches).sum();
    let windows: u64 = sessions.iter().map(|s| s.windows).sum();
    let mut driver = Driver::new(sessions.len(), chunk);
    let sched = Schedule::new(sessions, chunk, paced_bytes_per_s);
    let paced_per_block =
        ((PACED_SHARE * args.seconds / sched.seconds() / BLOCKS as f64).round() as usize).max(1);
    // Rounds one plane serves: two warm-ups, then its blocks' capacity
    // and paced rounds.
    let capacity_per_block = max_rounds
        .checked_sub(2 + BLOCKS_PER_SETUP * paced_per_block)
        .map(|r| r / BLOCKS_PER_SETUP)
        .filter(|&r| r > 0)
        .unwrap_or_else(|| {
            panic!(
                "--seconds {} needs {paced_per_block} paced rounds per block; \
                 the workload registers streams for {max_rounds} rounds per set-up",
                args.seconds
            )
        });
    let block_s = CAPACITY_SHARE * args.seconds / BLOCKS as f64;
    let mut setup_secs = vec![first_setup_s];
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat, mut late) = (Vec::with_capacity(windows as usize), Vec::new());
    let mut paced = |plane: &mut P, round: usize, lat: &mut Vec<f64>, late: &mut Vec<f64>| {
        plane.begin_round(round);
        lat.clear();
        driver.paced_round(plane, sessions, &sched, lat, late);
    };
    let mut capacity = Driver::new(sessions.len(), chunk);

    let mut round = 0;
    for block in 0..BLOCKS {
        if block % BLOCKS_PER_SETUP == 0 {
            if block > 0 {
                if block == BLOCKS_PER_SETUP {
                    record_peak_rss(out);
                }
                plane = setup_again(plane, &mut setup, &mut setup_secs);
            }
            // Untimed warm-ups: a capacity round on every set-up, and a
            // paced round once per run (its lateness is not reported).
            plane.begin_round(0);
            capacity.capacity_round(&mut plane, sessions, None);
            account(&plane, 0, out);
            if block == 0 {
                paced(&mut plane, 1, &mut lat, &mut late);
                account(&plane, 1, out);
                late.clear();
            }
            round = 2;
        }
        let start = Instant::now();
        let mut n = 0;
        while n < capacity_per_block && (n == 0 || start.elapsed().as_secs_f64() < block_s) {
            plane.begin_round(round);
            rates.push(branches as f64 / capacity.capacity_round(&mut plane, sessions, None));
            account(&plane, round, out);
            round += 1;
            n += 1;
        }
        for _ in 0..paced_per_block {
            paced(&mut plane, round, &mut lat, &mut late);
            account(&plane, round, out);
            out.check(lat.len() as u64 == windows, || {
                format!(
                    "paced round timed {} verdicts, the oracle has {windows}",
                    lat.len()
                )
            });
            p50s.push(quantile(&lat, 0.5));
            p99s.push(quantile(&lat, 0.99));
            round += 1;
        }
    }
    drop(setup_again(plane, &mut setup, &mut setup_secs));

    out.set("setup_s", interquartile_mean(&setup_secs));
    let seconds: f64 = rates.iter().map(|r| branches as f64 / r).sum();
    out.set(
        "branches_per_s",
        (branches * rates.len() as u64) as f64 / seconds,
    );
    out.set("verdict_latency_p50_us", interquartile_mean(&p50s));
    out.set("verdict_latency_p99_us", interquartile_mean(&p99s));
    out.set(
        "bench.latency_samples",
        (p50s.len() as u64 * windows) as f64,
    );
    out.set("bench.generator_late_p99_us", quantile(&late, 0.99));
    out.note(format!("set-ups {setup_secs:.3?} s"));
    out.note(format!(
        "capacity: {} rounds of {branches} branches, {} bytes, {windows} windows (round rates q25 {:.4e} q75 {:.4e}); \
         paced: {} rounds of {:.3} s at {:.2} MB/s, {windows} latency samples per round, p99 {:.1} us",
        rates.len(),
        sessions.iter().map(|s| s.bytes.len()).sum::<usize>(),
        quantile(&rates, 0.25),
        quantile(&rates, 0.75),
        p50s.len(),
        sched.seconds(),
        paced_bytes_per_s / 1e6,
        interquartile_mean(&p99s),
    ));
}

/// Builds session `i` of a workload's round pool from its branch run.
pub type RunFn<'a> = dyn Fn(usize) -> Vec<BranchRecord> + 'a;

/// Generates, encodes and judges `distinct` sessions, one run at a time
/// (a run is dropped as soon as its bytes and oracle exist), and deals
/// them to `slots` slots: slot `i` carries session `pick(i)`.
pub fn build_sessions(
    make: &RunFn,
    distinct: usize,
    slots: usize,
    pick: impl Fn(usize) -> usize,
    spec: &ServeSpec,
    chunk: usize,
    keep_vectors: bool,
) -> Vec<Session> {
    let pool: Vec<Session> = (0..distinct)
        .map(|i| {
            build_session(
                &make(i),
                &spec.igm,
                &spec.model,
                &spec.policy,
                chunk,
                keep_vectors,
            )
        })
        .collect();
    (0..slots).map(|i| pool[pick(i)].clone()).collect()
}

// ---------------------------------------------------------------------
// fleet_elm
// ---------------------------------------------------------------------

/// The fleet's program model and detection cell (the Fig. 8 ELM on Mcf).
const FLEET_BENCH: Benchmark = Benchmark::Mcf;
/// Streams registered, and active per round (1.6 %).
const FLEET_REGISTERED: usize = 64 * 1024;
const FLEET_SLOTS: usize = 1024;
/// Branches per session; every eighth session carries an attack burst.
const FLEET_BRANCHES: usize = 4096;
const FLEET_ATTACK_EVERY: usize = 8;
/// Distinct seeded sessions, dealt round-robin to slots 1.. (each slot
/// is still its own stream; sharing the input bytes keeps the
/// benchmark's own memory traffic out of the plane's measurement).
const FLEET_DISTINCT: usize = 128;
/// Slot 0 of every round replays one fixed session (independent of
/// `--seed`) whose verdicts the `burst_k == 1` fault always corrupts.
const FLEET_PROBE_SEED: u64 = 0x0B0B_F1EE;
const FLEET_PROBE_SOURCE_BRANCHES: usize = 1_000_000;
const FLEET_PROBE_EVENTS: usize = 48;

fn fleet_config() -> DetectionConfig {
    DetectionConfig::fig8(FLEET_BENCH, ModelKind::Elm, EngineKind::MlMiaow)
}

/// Set-up: Fig. 8 preparation (profile, train, calibrate, compile,
/// trim), the ML-MIAOW cycle measurement, the serve spec under the plain
/// compare, and registration of the whole fleet.
fn fleet_setup(tr: &mut Tracer) -> SparsePlane {
    let prep = tr.span("soc.prepare", || PreparedDetection::prepare(fleet_config()));
    let run = prep.run_for(EngineKind::MlMiaow);
    let mut spec = run.serve_spec(0);
    spec.policy = VerdictPolicy::simple(spec.policy.threshold);
    let mut p = SparsePipeline::new(spec, SparseConfig::default());
    tr.span("soc.register", || p.register_many(FLEET_REGISTERED));
    SparsePlane {
        p,
        base: 0,
        slots: FLEET_SLOTS,
    }
}

/// The fixed probe: the syscall branches of a long normal Mcf run, in
/// order (the IGM filters every other branch, so the windows are those
/// of the full run). Its first window scores above the threshold (the
/// histogram is still filling) and its steady-state windows below it.
fn fleet_probe_run(model: &ProgramModel) -> Vec<BranchRecord> {
    let table = syscall_table(model);
    model
        .generate(FLEET_PROBE_SOURCE_BRANCHES, FLEET_PROBE_SEED)
        .into_iter()
        .filter(|r| table.contains(&r.target))
        .take(FLEET_PROBE_EVENTS)
        .collect()
}

pub fn fleet_elm(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let spin = host_spin_ns();
    let shape = ServeShape {
        slots: FLEET_SLOTS,
        registered: FLEET_REGISTERED,
        chunk: 512,
        paced_bytes_per_s: 10e6,
        per_round_ops: true,
    };
    let mut tr = Tracer::new();
    let (mut plane, setup_s) = timed_setup(&mut tr, fleet_setup);

    // Inputs: the fixed probe in slot 0, seeded fleet sessions after it.
    let model = ProgramModel::build(FLEET_BENCH, fleet_config().seed);
    let make = |i: usize| {
        if i == 0 {
            fleet_probe_run(&model)
        } else {
            fleet_run(&model, args.seed, i - 1, FLEET_BRANCHES, FLEET_ATTACK_EVERY)
        }
    };
    let spec = plane.p.spec().clone();
    let pick = |i: usize| {
        if i == 0 {
            0
        } else {
            1 + (i - 1) % FLEET_DISTINCT
        }
    };
    let sessions = build_sessions(
        &make,
        1 + FLEET_DISTINCT,
        FLEET_SLOTS,
        pick,
        &spec,
        shape.chunk,
        args.trace,
    );
    let probe = &sessions[0].verdicts;
    out.check(probe.documented != probe.latched, || {
        format!(
            "the fixed probe session no longer separates the documented rule from the latched verdicts (threshold {}, scores {:?})",
            spec.policy.threshold, sessions[0].raw
        )
    });

    if args.trace {
        out.set("soc.prepare_s", tr.mean_s("soc.prepare"));
        traced_serve(
            args,
            &shape,
            &mut plane,
            &sessions,
            &make,
            1 + FLEET_DISTINCT,
            &mut tr,
            &mut out,
            spin,
        );
    } else {
        let max_rounds = shape.registered / shape.slots;
        let account = |p: &SparsePlane, round: usize, out: &mut Outcome| {
            account_round(&shape, p, &sessions, round, out)
        };
        measure_phases(
            args,
            plane,
            setup_s,
            || fleet_setup(&mut Tracer::new()),
            &sessions,
            shape.chunk,
            shape.paced_bytes_per_s,
            max_rounds,
            account,
            &mut out,
        );
    }
    out
}

// ---------------------------------------------------------------------
// dense_lstm
// ---------------------------------------------------------------------

/// Always-active streams per round, and registered streams.
const DENSE_SLOTS: usize = 32;
const DENSE_REGISTERED: usize = DENSE_SLOTS * 64;
/// Watchlisted events per session and out-of-order bursts in it.
pub const DENSE_EVENTS: usize = 2048;
const DENSE_BURSTS: usize = 2;
/// Training and held-out calibration corpora (watchlisted tokens).
const DENSE_TRAIN_TOKENS: usize = 6_000;
const DENSE_CALIB_TOKENS: usize = 4_000;
/// The burst policy: EMA, two hits within eight windows, and a hard
/// threshold at 1.6x the held-out maximum.
const DENSE_ALPHA: f64 = 0.5;
const DENSE_BURST_K: usize = 2;
const DENSE_BURST_WINDOW: u64 = 8;
const DENSE_HARD_MARGIN: f64 = 1.6;
/// Seeds of the fixed model corpora (the deployed model does not depend
/// on `--seed`; the traffic does).
const DENSE_TRAIN_SEED: u64 = 0x0007_EA14;
const DENSE_CALIB_SEED: u64 = 0x000C_A11B;

/// The watchlist LSTM's configuration (device-compilable shape).
fn watch_lstm_config() -> LstmConfig {
    let mut cfg = LstmConfig::rtad();
    cfg.vocab = WATCH_VOCAB;
    cfg.epochs = 6;
    cfg
}

/// Trains the watchlist LSTM on the fixed corpus and calibrates its
/// burst policy on held-out normal traffic (`calibrate_threshold`).
pub fn train_watch_model(wl: &Watchlist, tr: &mut Tracer) -> (Lstm, VerdictPolicy) {
    let train = wl.tokens(DENSE_TRAIN_SEED, DENSE_TRAIN_TOKENS);
    let calib = wl.tokens(DENSE_CALIB_SEED, DENSE_CALIB_TOKENS);
    let lstm = tr.span("ml.train", || {
        Lstm::train(&watch_lstm_config(), &train, DENSE_TRAIN_SEED)
    });
    let mut m = lstm.clone();
    m.reset();
    let mut ema: Option<f64> = None;
    let smoothed: Vec<f64> = calib
        .iter()
        .map(|&t| {
            let s = m.score_next(t);
            let v = ema.map_or(s, |p| DENSE_ALPHA * s + (1.0 - DENSE_ALPHA) * p);
            ema = Some(v);
            v
        })
        .collect();
    let threshold = calibrate_threshold(
        &smoothed,
        ThresholdPolicy::Quantile {
            quantile: 0.999,
            margin: 1.1,
        },
    );
    let hard = smoothed.iter().copied().fold(0.0f64, f64::max) * DENSE_HARD_MARGIN;
    (
        lstm,
        VerdictPolicy {
            threshold,
            hard_threshold: hard,
            alpha: DENSE_ALPHA,
            burst_k: DENSE_BURST_K,
            burst_window_events: DENSE_BURST_WINDOW,
        },
    )
}

/// Dense-watchlist session `i` of the round pool.
pub fn watch_run(
    wl: &Watchlist,
    seed: u64,
    i: usize,
    events: usize,
    bursts: usize,
) -> Vec<BranchRecord> {
    wl.run(sub_seed(seed, 0x4000 + i as u64), events, bursts)
}

/// Set-up: train and calibrate, compile for the device, profile the
/// trim plan and measure cycles per window, then register the streams.
fn dense_setup(wl: &Watchlist, tr: &mut Tracer) -> SparsePlane {
    let (lstm, policy) = train_watch_model(wl, tr);
    let deployed = crate::device::deploy_lstm(&lstm, tr);
    let spec = ServeSpec {
        igm: IgmConfig::token_stream(&wl.targets),
        model: ServeModel::Lstm(lstm),
        policy,
        cycles_per_event: deployed.cycles,
    };
    let mut p = SparsePipeline::new(spec, SparseConfig::default());
    tr.span("soc.register", || p.register_many(DENSE_REGISTERED));
    SparsePlane {
        p,
        base: 0,
        slots: DENSE_SLOTS,
    }
}

pub fn dense_lstm(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let spin = host_spin_ns();
    let shape = ServeShape {
        slots: DENSE_SLOTS,
        registered: DENSE_REGISTERED,
        chunk: 256,
        paced_bytes_per_s: 1.2e6,
        per_round_ops: false,
    };
    let wl = Watchlist::new();
    let mut tr = Tracer::new();
    let (mut plane, setup_s) = timed_setup(&mut tr, |tr| dense_setup(&wl, tr));

    let make = |i: usize| watch_run(&wl, args.seed, i, DENSE_EVENTS, DENSE_BURSTS);
    let spec = plane.p.spec().clone();
    let sessions = build_sessions(
        &make,
        DENSE_SLOTS,
        DENSE_SLOTS,
        |i| i,
        &spec,
        shape.chunk,
        args.trace,
    );
    let flagged: u64 = sessions.iter().map(|s| s.verdicts.documented.flags).sum();
    out.check(flagged > 0, || {
        "the oracle flags no out-of-order burst".into()
    });

    if args.trace {
        out.set("ml.train_s", tr.total_s("ml.train"));
        out.set("miaow.profile_trim_s", tr.total_s("miaow.profile_trim"));
        traced_serve(
            args,
            &shape,
            &mut plane,
            &sessions,
            &make,
            DENSE_SLOTS,
            &mut tr,
            &mut out,
            spin,
        );
    } else {
        let max_rounds = shape.registered / shape.slots;
        let account = |p: &SparsePlane, round: usize, out: &mut Outcome| {
            account_round(&shape, p, &sessions, round, out)
        };
        measure_phases(
            args,
            plane,
            setup_s,
            || dense_setup(&wl, &mut Tracer::new()),
            &sessions,
            shape.chunk,
            shape.paced_bytes_per_s,
            max_rounds,
            account,
            &mut out,
        );
    }
    out
}

// ---------------------------------------------------------------------
// Traced run of the serving workloads
// ---------------------------------------------------------------------

/// Counts one checked round into `attempted`/`failed`.
fn account_round(
    shape: &ServeShape,
    plane: &SparsePlane,
    sessions: &[Session],
    round: usize,
    out: &mut Outcome,
) {
    let latched = check_sparse_round(plane, sessions, round, out);
    if shape.per_round_ops {
        out.attempted += 1;
        out.failed += u64::from(latched > 0);
    } else {
        out.attempted += sessions.len() as u64;
        out.failed += latched as u64;
    }
}

/// The traced run: one warm-up round, untraced base rounds alternating
/// with traced ones (spans around every feed sweep and `poll_round`),
/// one counted-allocation round, one paced round, then isolated replays
/// of the layers `poll_round` hides, over the same sessions.
#[allow(clippy::too_many_arguments)]
fn traced_serve(
    args: &Args,
    shape: &ServeShape,
    plane: &mut SparsePlane,
    sessions: &[Session],
    make: &RunFn,
    distinct: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
    spin: f64,
) {
    out.set("bench.host_spin_ns", spin);
    out.set("soc.register_s", tr.total_s("soc.register"));
    out.set(
        "soc.bytes_per_idle_stream",
        plane.p.memory_footprint().bytes_per_stream(),
    );

    // Idle rounds at full registration.
    let idle_t = Instant::now();
    for _ in 0..10_000 {
        plane.p.poll_round();
    }
    out.set(
        "soc.idle_round_ns",
        idle_t.elapsed().as_nanos() as f64 / 10_000.0,
    );

    let branches: u64 = sessions.iter().map(|s| s.branches).sum();
    let bytes: u64 = sessions.iter().map(|s| s.bytes.len() as u64).sum();
    let windows: u64 = sessions.iter().map(|s| s.windows).sum();
    let mut driver = Driver::new(shape.slots, shape.chunk);
    let mut round = 0usize;

    plane.begin_round(round);
    driver.capacity_round(plane, sessions, None);
    account_round(shape, plane, sessions, round, out);
    round += 1;

    const PAIRS: usize = 3;
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    let mut per_round = None;
    for k in 0..2 * PAIRS {
        plane.begin_round(round);
        let before = plane.p.stats();
        if k % 2 == 0 {
            base.push(branches as f64 / driver.capacity_round(plane, sessions, None));
        } else {
            let id = tr.begin("round");
            traced.push(branches as f64 / driver.capacity_round(plane, sessions, Some(tr)));
            tr.end(id);
        }
        let after = plane.p.stats();
        let counts = (
            after.rounds - before.rounds,
            after.stream_polls - before.stream_polls,
            after.batches - before.batches,
            after.windows - before.windows,
        );
        out.check(per_round.is_none_or(|p| p == counts), || {
            format!(
                "round counts {counts:?} differ between traced and untraced rounds ({per_round:?})"
            )
        });
        per_round = Some(counts);
        account_round(shape, plane, sessions, round, out);
        round += 1;
    }
    let (rounds, polls, batches, win) = per_round.expect("rounds ran");
    out.check(win == windows, || {
        format!("the plane scored {win} windows per round, the oracle {windows}")
    });
    let batch_mean = win as f64 / batches.max(1) as f64;
    out.set("soc.rounds", rounds as f64);
    out.set("soc.stream_polls", polls as f64);
    out.set("soc.batches", batches as f64);
    out.set("ml.batch_mean", batch_mean);
    out.set("bench.measured_branches", branches as f64);
    let base_rate = median(&base);
    out.set("bench.tracing_base_branches_per_s", base_rate);
    out.set(
        "bench.tracing_overhead_pct",
        (base_rate - median(&traced)) / base_rate * 100.0,
    );
    let poll_ns = tr.total_ns("soc.poll") / PAIRS as f64;
    out.set(
        "soc.feed_ns_per_byte",
        tr.total_ns("soc.feed") / PAIRS as f64 / bytes as f64,
    );
    out.set("soc.poll_ns_per_window", poll_ns / windows.max(1) as f64);

    // Steady-state allocations over one whole capacity round.
    plane.begin_round(round);
    let allocs = rtad_alloc_counter::allocations(|| {
        driver.capacity_round(plane, sessions, None);
    });
    out.set("soc.steady_allocs", allocs as f64);
    account_round(shape, plane, sessions, round, out);
    round += 1;

    // One paced round: the generator's lateness.
    let sched = Schedule::new(sessions, shape.chunk, shape.paced_bytes_per_s);
    plane.begin_round(round);
    let (mut lat, mut late) = (Vec::new(), Vec::new());
    tr.span("paced", || {
        driver.paced_round(plane, sessions, &sched, &mut lat, &mut late)
    });
    account_round(shape, plane, sessions, round, out);
    out.set("bench.generator_late_p99_us", quantile(&late, 0.99));
    out.set("bench.latency_samples", lat.len() as f64);
    out.set("verdict_latency_p99_us", quantile(&lat, 0.99));
    out.set("soc.dropped_bytes", plane.p.stats().dropped_bytes as f64);

    // Isolated replays of the layers inside poll_round, and of the
    // SoC-path layers over the same sessions.
    let spec = plane.p.spec().clone();
    let igm_ns = crate::device::replay_igm(&spec.igm, sessions, tr, out);
    let ml_ns = replay_ml(&spec, sessions, batch_mean, tr, out);
    let verdict_ns = replay_verdicts(&spec.policy, sessions, tr, out);
    out.set(
        "soc.sched_ns_per_window",
        (poll_ns - igm_ns - ml_ns - verdict_ns) / windows.max(1) as f64,
    );
    crate::device::replay_encode(make, distinct, &spec.igm, tr, out);
    crate::device::replay_mcm(&spec, sessions, tr, out);
    crate::device::replay_device(&[(&spec, sessions)], tr, out);
    match tr.write(&args.workload, args.seed) {
        Ok(path) => out.note(format!("spans written to {path}")),
        Err(e) => out.note(format!("could not write spans: {e}")),
    }
}

/// Replays the model kernel the plane runs inside `poll_round` over the
/// sessions' windows, in batches of the plane's mean batch size. Returns
/// the replay's estimate of the kernel's nanoseconds for every window.
pub fn replay_ml(
    spec: &ServeSpec,
    sessions: &[Session],
    batch_mean: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let batch = (batch_mean.round() as usize).max(1);
    let total: u64 = sessions.iter().map(|s| s.windows).sum();
    let mut arena = BatchArena::new();
    let mut scores = Vec::with_capacity(batch);
    let mut windows = 0u64;
    let t = Instant::now();
    match &spec.model {
        ServeModel::Elm(elm) => {
            let rows: Vec<&[f32]> = sessions
                .iter()
                .flat_map(|s| {
                    s.vectors
                        .iter()
                        .map(|v| v.payload.as_dense().expect("dense"))
                })
                .collect();
            let id = tr.begin("ml.elm");
            for group in rows.chunks(batch) {
                arena.begin(elm.input_dim());
                for r in group {
                    arena.push_row(r);
                }
                elm.score_batch_arena(&mut arena, &mut scores);
                windows += group.len() as u64;
            }
            tr.end(id);
            let per = t.elapsed().as_nanos() as f64 / windows.max(1) as f64;
            out.set("ml.elm_ns_per_window", per);
            per * total as f64
        }
        ServeModel::Lstm(lstm) => {
            // Lockstep batches: `batch` lanes advance one token each.
            let lanes_n = batch.min(sessions.len());
            let mut lanes: Vec<LstmLane> = (0..lanes_n).map(|_| lstm.lane()).collect();
            let idx: Vec<usize> = (0..lanes_n).collect();
            let mut tokens = vec![0u32; lanes_n];
            let depth = sessions.iter().map(|s| s.vectors.len()).min().unwrap_or(0);
            let id = tr.begin("ml.lstm");
            for step in 0..depth {
                for (l, t) in tokens.iter_mut().enumerate() {
                    *t = sessions[l].vectors[step].payload.as_token().expect("token");
                }
                lstm.score_next_batch_arena(&mut lanes, &idx, &tokens, &mut arena, &mut scores);
                windows += lanes_n as u64;
            }
            tr.end(id);
            let per = t.elapsed().as_nanos() as f64 / windows.max(1) as f64;
            out.set("ml.lstm_ns_per_window", per);
            per * total as f64
        }
    }
}

/// Replays `VerdictState::observe` over every session's oracle scores;
/// returns total nanoseconds. Also sums the verdict states' resident
/// bytes after the replay.
pub fn replay_verdicts(
    policy: &VerdictPolicy,
    sessions: &[Session],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let mut states: Vec<VerdictState> = sessions.iter().map(|_| VerdictState::new()).collect();
    let mut windows = 0u64;
    let mut sink = 0u64;
    let t = Instant::now();
    let id = tr.begin("soc.verdict");
    for (s, state) in sessions.iter().zip(states.iter_mut()) {
        for (seq, &raw) in s.raw.iter().enumerate() {
            let (_, flagged) = state.observe(policy, seq as u64, raw);
            sink += u64::from(flagged);
        }
        windows += s.raw.len() as u64;
    }
    tr.end(id);
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    out.set("soc.verdict_ns_per_window", ns / windows.max(1) as f64);
    out.set(
        "soc.verdict_resident_bytes",
        states
            .iter()
            .map(VerdictState::resident_bytes)
            .sum::<usize>() as f64,
    );
    ns
}

/// Sums the sessions' clock-edge IGM counters.
pub fn igm_totals(sessions: &[Session]) -> IgmCounts {
    let mut c = IgmCounts::default();
    for s in sessions {
        c.add(&s.igm);
    }
    c
}
