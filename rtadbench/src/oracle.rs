//! The verdict oracle: what every stream's outcome must be, computed
//! apart from the serving plane.
//!
//! * windows come from the clock-edge `Igm::process_trace` on the
//!   stream's `TimedTrace` (not the streaming session the plane runs);
//! * scores come from the scalar `Elm::score` / `Lstm::score_next`
//!   (not the batch kernels the plane runs);
//! * verdicts follow the rule as `VerdictPolicy`'s docs state it, coded
//!   here: EMA, then a flag when at least `burst_k` above-threshold
//!   windows fall within the last `burst_window_events` windows, so
//!   `k = 1` is a plain per-window compare; the hard threshold flags
//!   alone.
//!
//! Alongside the documented verdicts the oracle predicts what the
//! program does under the known `burst_k == 1` fault (its hit queue is
//! never trimmed, so every window after the first hit flags). A plane
//! outcome that matches the documented rule passes; one that matches
//! only the latched prediction is a failed operation of the named
//! fault; one that matches neither is a correctness failure.

use std::collections::VecDeque;
use std::rc::Rc;

use rtad_igm::{Igm, IgmConfig, IgmShared, StreamedVector, TimedVector, VectorPayload};
use rtad_ml::{Lstm, SequenceModel, VectorModel};
use rtad_soc::{fold_score_hash, ServeModel, VerdictPolicy, SCORE_HASH_SEED};
use rtad_trace::tpiu::FRAME_BYTES;
use rtad_trace::{BranchRecord, PtmConfig, StreamEncoder};

/// Flags summarized the way the plane's fixed-size outcome keeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagSummary {
    pub flags: u64,
    pub last_flag: Option<u64>,
}

/// Applies the documented verdict rule (and the latched prediction) to
/// a raw score sequence.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    /// Smoothed scores, hashed in window order with the plane's fold.
    pub score_hash: u64,
    pub documented: FlagSummary,
    pub latched: FlagSummary,
}

pub fn verdict_rule(policy: &VerdictPolicy, raw: &[f64]) -> Verdicts {
    let mut out = Verdicts {
        score_hash: SCORE_HASH_SEED,
        ..Verdicts::default()
    };
    let mut ema: Option<f64> = None;
    let mut hits: VecDeque<u64> = VecDeque::new();
    let mut any_hit = false;
    for (seq, &score) in raw.iter().enumerate() {
        let seq = seq as u64;
        let smoothed = match ema {
            None => score,
            Some(prev) => policy.alpha * score + (1.0 - policy.alpha) * prev,
        };
        ema = Some(smoothed);
        out.score_hash = fold_score_hash(out.score_hash, smoothed);
        let hit = smoothed > policy.threshold;
        let hard = smoothed > policy.hard_threshold;
        let burst = if policy.burst_k <= 1 {
            hit
        } else {
            if hit {
                hits.push_back(seq);
            }
            while hits
                .front()
                .is_some_and(|&h| seq - h > policy.burst_window_events)
            {
                hits.pop_front();
            }
            hits.len() >= policy.burst_k
        };
        let flag = burst || hard;
        any_hit |= hit;
        let latched = if policy.burst_k <= 1 {
            any_hit || hard
        } else {
            flag
        };
        for (summary, f) in [(&mut out.documented, flag), (&mut out.latched, latched)] {
            if f {
                summary.flags += 1;
                summary.last_flag = Some(seq);
            }
        }
    }
    out
}

/// IGM counters of one stream, from the clock-edge simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IgmCounts {
    pub frames: u64,
    pub packets: u64,
    pub windows: u64,
    pub filtered: u64,
    pub decode_errors: u64,
    pub p2s_dropped: u64,
}

impl IgmCounts {
    pub fn add(&mut self, o: &IgmCounts) {
        self.frames += o.frames;
        self.packets += o.packets;
        self.windows += o.windows;
        self.filtered += o.filtered;
        self.decode_errors += o.decode_errors;
        self.p2s_dropped += o.p2s_dropped;
    }
}

/// One generated stream session with everything the checks need.
/// Cloning shares the buffers, so several slots can carry one session
/// without copying it.
#[derive(Debug, Clone)]
pub struct Session {
    /// The TPIU bytes the program receives.
    pub bytes: Rc<[u8]>,
    /// Retired branches of the monitored program in this session.
    pub branches: u64,
    /// Windows the clock-edge IGM emits.
    pub windows: u64,
    /// Host-model raw scores per window (scalar path).
    pub raw: Rc<[f64]>,
    /// Documented and latched verdicts over `raw`.
    pub verdicts: Rc<Verdicts>,
    /// Per window, the index of the feed chunk whose last byte makes it
    /// computable (the latency clock starts when that chunk falls due).
    pub window_chunk: Rc<[u32]>,
    pub igm: IgmCounts,
    /// The clock-edge IGM's timed vectors (kept for the traced run's
    /// replays only).
    pub vectors: Rc<[TimedVector]>,
}

/// Scalar scorer over the served model.
pub fn scalar_scores(model: &ServeModel, payloads: &[&VectorPayload]) -> Vec<f64> {
    match model {
        ServeModel::Elm(elm) => payloads
            .iter()
            .map(|p| elm.score(p.as_dense().expect("ELM needs dense windows")))
            .collect(),
        ServeModel::Lstm(lstm) => lstm_scalar(lstm, payloads),
    }
}

fn lstm_scalar(lstm: &Lstm, payloads: &[&VectorPayload]) -> Vec<f64> {
    let mut m = lstm.clone();
    m.reset();
    payloads
        .iter()
        .map(|p| m.score_next(p.as_token().expect("LSTM needs token windows")))
        .collect()
}

/// Encodes `run` through PTM/TPIU, runs the clock-edge IGM, scores and
/// judges every window, and maps windows to feed chunks of `chunk`
/// bytes.
pub fn build_session(
    run: &[BranchRecord],
    igm: &IgmConfig,
    model: &ServeModel,
    policy: &VerdictPolicy,
    chunk: usize,
    keep_vectors: bool,
) -> Session {
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(run);
    let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
    let out = Igm::new(igm.clone()).process_trace(&trace);
    drop(trace);
    let payloads: Vec<&VectorPayload> = out.vectors.iter().map(|v| &v.payload).collect();
    let raw = scalar_scores(model, &payloads);
    let verdicts = verdict_rule(policy, &raw);
    let window_chunk = completion_chunks(igm, &bytes, chunk);
    let igm_counts = IgmCounts {
        frames: (bytes.len() / FRAME_BYTES) as u64,
        packets: out.stats.ta.packets,
        windows: out.vectors.len() as u64,
        filtered: out.stats.filtered,
        decode_errors: out.stats.ta.decode_errors,
        p2s_dropped: out.stats.p2s_fifo.dropped,
    };
    Session {
        branches: run.len() as u64,
        windows: out.vectors.len() as u64,
        raw: raw.into(),
        verdicts: Rc::new(verdicts),
        window_chunk: window_chunk.into(),
        igm: igm_counts,
        vectors: if keep_vectors {
            out.vectors.into()
        } else {
            Rc::new([])
        },
        bytes: bytes.into(),
    }
}

/// For every window, the feed chunk whose arrival completes it. Only
/// attributes latency; window identity and content are checked against
/// the clock-edge IGM.
fn completion_chunks(igm: &IgmConfig, bytes: &[u8], chunk: usize) -> Vec<u32> {
    let shared = IgmShared::new(igm);
    let mut session = shared.session();
    let mut emitted: Vec<StreamedVector> = Vec::new();
    let mut map = Vec::new();
    let chunks = bytes.len().div_ceil(chunk).max(1);
    for (c, piece) in bytes.chunks(chunk).enumerate() {
        session.push_bytes(&shared, piece, &mut emitted);
        for _ in emitted.drain(..) {
            map.push(c as u32);
        }
    }
    session.finish(&shared, &mut emitted);
    for _ in emitted.drain(..) {
        map.push(chunks as u32 - 1);
    }
    map
}

/// Device-vs-host score tolerance (the device computes in f32; the
/// bound `rtad-ml`'s kernel equivalence tests use).
pub fn device_close(device: f64, host: f64) -> bool {
    let abs = (device - host).abs();
    abs < 1e-4 || abs / host.abs().max(1e-6) < 5e-3
}
