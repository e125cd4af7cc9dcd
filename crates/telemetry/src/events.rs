//! Sampling-health events: structured JSONL records of a run's
//! *statistical* health, written to the run stream beside the
//! mechanical span records.
//!
//! Two record kinds carry it:
//!
//! ```json
//! {"type":"progress","run_id":"9f2a41c07d3be581-1","seq":1,"run":"online",
//!  "metric":"cpi","t_us":512,"worker":0,"config":null,"n":40,"mean":1.372,
//!  "half_width":0.041,"rel_half_width":0.0299,"target_rel_err":0.03,
//!  "eligible":true,"rel_half_width_95":0.0195,"eligible_95":true,
//!  "shard_points":40,"shard_busy_ns":81234567,"overshoot":0}
//! {"type":"anomaly","run_id":"9f2a41c07d3be581-1","seq":1,"run":"online",
//!  "t_us":498,"worker":0,"point":17,"detail_start":123000,
//!  "measure_start":125000,"kinds":["cpi_outlier"],"cpi":2.31,"mean":1.37,
//!  "std_dev":0.21,"sigmas":4.5,"decode_ns":52000,"simulate_ns":410000}
//! ```
//!
//! ## Run identity
//!
//! `seq` is a process-wide run ordinal (from [`next_run_seq`]): one
//! binary often performs several runs back to back into the same stream,
//! and the ordinal is what lets a consumer separate their record
//! streams. The ordinal alone is **not** collision-resistant — two
//! separate processes both start at `seq = 1`, so merged logs (or a
//! shared registry) would conflate their runs. Every record therefore
//! also carries a `run_id`: a per-process random-ish 64-bit token
//! (hashed from argv, the pid, and the wall clock — see
//! [`process_token`]) joined with the ordinal as
//! `"{token:016x}-{seq}"`. [`derive_run_id`] additionally folds in a
//! caller-supplied seed text (the experiment binaries hash the rendered
//! `RunManifest`, tying the id to the run's configuration content).
//!
//! * **progress** — emitted by the runners at every merge stride: the
//!   running mean, CI half-width, relative error, early-termination
//!   eligibility at the policy confidence *and* at the paper's ±ε@95%
//!   rule, plus the emitting worker's own point count (`shard_points`,
//!   the per-shard lag signal), its cumulative decode+simulate time
//!   (`shard_busy_ns`, the per-shard load signal), and — on a run's
//!   closing record — the exact early-termination overshoot
//!   (`overshoot`).
//! * **anomaly** — one record per anomalous live-point: which tests
//!   fired (`kinds`: `cpi_outlier`, `slow_decode`, `slow_simulate`),
//!   the point's library index and window provenance, and the running
//!   estimate it deviated from.
//!
//! Progress records, like the checkpoint records of checkpointing
//! runs, are flushed to the stream file as they are written, so a run
//! killed mid-way keeps every one it emitted.
//!
//! While the run stream is off ([`streaming`](crate::streaming) is a
//! single relaxed atomic load) the emitters return immediately; when
//! the crate is built without the `enabled` feature, everything here is
//! an inlined no-op.

/// FNV-1a 64-bit hash — the repo's standard cheap content hash for
/// identifiers (collision resistance adequate for run labeling, not
/// cryptography).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The process-wide run-identity token: FNV-1a over argv, the pid, and
/// the wall clock at first use. Stable for the life of the process,
/// collision-resistant across processes (unlike the `seq` ordinal).
pub fn process_token() -> u64 {
    use std::sync::OnceLock;
    static TOKEN: OnceLock<u64> = OnceLock::new();
    *TOKEN.get_or_init(|| {
        let mut buf: Vec<u8> = Vec::new();
        for arg in std::env::args_os() {
            buf.extend_from_slice(arg.to_string_lossy().as_bytes());
            buf.push(0);
        }
        buf.extend_from_slice(&std::process::id().to_le_bytes());
        if let Ok(d) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
            buf.extend_from_slice(&d.as_secs().to_le_bytes());
            buf.extend_from_slice(&d.subsec_nanos().to_le_bytes());
        }
        fnv1a64(&buf)
    })
}

/// The collision-resistant run id for the run with ordinal `seq`:
/// `"{process_token:016x}-{seq}"`. Every emitted event record carries
/// this; doctor splits merged logs on it.
pub fn run_id(seq: u64) -> String {
    format!("{:016x}-{seq}", process_token())
}

/// A run id additionally seeded from caller content (the experiment
/// binaries pass the rendered `RunManifest`, so the id is tied to the
/// run's configuration): `"{token ^ fnv1a64(seed_text):016x}-{seq}"`.
pub fn derive_run_id(seed_text: &str, seq: u64) -> String {
    format!("{:016x}-{seq}", process_token() ^ fnv1a64(seed_text.as_bytes()))
}

/// One merge-stride progress record (see the module docs for the JSON
/// shape). Plain data in both build modes; only
/// [`emit`](ProgressEvent::emit) differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent<'a> {
    /// Process-wide run ordinal (see [`next_run_seq`]).
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: &'a str,
    /// What the mean estimates: `cpi` or `delta_cpi`.
    pub metric: &'a str,
    /// Emitting worker ordinal (0 for serial runs).
    pub worker: usize,
    /// Sweep configuration index; `None` for single-config runs.
    pub config: Option<usize>,
    /// Points merged into the estimate so far.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// CI half-width at the policy confidence.
    pub half_width: f64,
    /// Relative error at the policy confidence (half-width over the
    /// comparison mean — the base-machine mean for matched runs).
    pub rel_half_width: f64,
    /// The policy's relative-error target ε.
    pub target_rel_err: f64,
    /// Early-termination eligibility at the policy confidence.
    pub eligible: bool,
    /// Relative error at 95% confidence.
    pub rel_half_width_95: f64,
    /// The paper's ±ε@95% early-termination rule.
    pub eligible_95: bool,
    /// The emitting worker's own processed-point count (per-shard lag).
    pub shard_points: u64,
    /// The emitting worker's cumulative decode + simulate wall-clock
    /// (per-shard busy time, for imbalance analysis).
    pub shard_busy_ns: u64,
    /// Exact early-termination overshoot: points processed past the
    /// count at which the run first became eligible to stop. Zero on
    /// mid-run records; the run's closing record carries the total.
    pub overshoot: u64,
}

impl ProgressEvent<'_> {
    /// Append this record to the run stream (no-op when it is off).
    pub fn emit(&self) {
        imp::emit_progress(self);
    }
}

/// One anomalous live-point record (see the module docs for the JSON
/// shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent<'a> {
    /// Process-wide run ordinal (see [`next_run_seq`]).
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: &'a str,
    /// Emitting worker ordinal (0 for serial runs).
    pub worker: usize,
    /// Library index of the live-point.
    pub point: u64,
    /// Window provenance: sequence number where detailed warming begins.
    pub detail_start: u64,
    /// Window provenance: sequence number where measurement begins.
    pub measure_start: u64,
    /// Which tests fired: `cpi_outlier`, `slow_decode`, `slow_simulate`.
    pub kinds: &'a [&'a str],
    /// The point's measured CPI.
    pub cpi: f64,
    /// Running CPI mean at observation time.
    pub mean: f64,
    /// Running CPI standard deviation at observation time.
    pub std_dev: f64,
    /// Deviation in standard deviations (0 when only a time test fired).
    pub sigmas: f64,
    /// Decode (decompress + DER) wall-clock for this point.
    pub decode_ns: u64,
    /// Detailed-simulation wall-clock for this point.
    pub simulate_ns: u64,
}

impl AnomalyEvent<'_> {
    /// Append this record to the run stream (no-op when it is off).
    pub fn emit(&self) {
        imp::emit_anomaly(self);
    }
}

/// One checkpoint-written record: a run flushed its crash-recovery
/// sidecar. Plain data in both build modes; only
/// [`emit`](CheckpointEvent::emit) differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEvent<'a> {
    /// The checkpoint sidecar file that was atomically replaced.
    pub path: &'a str,
    /// Live-points recorded in the checkpoint at flush time.
    pub points: u64,
}

impl CheckpointEvent<'_> {
    /// Append this record to the run stream (no-op when it is off).
    pub fn emit(&self) {
        imp::emit_checkpoint(self);
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::{AnomalyEvent, ProgressEvent};
    use crate::json::number;
    use crate::sink::{streaming, write, write_flushed};

    static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Allocate the next process-wide run ordinal (1, 2, …). Runners
    /// call this once per run and stamp every event they emit with it.
    pub fn next_run_seq() -> u64 {
        RUN_SEQ.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(super) fn emit_progress(e: &ProgressEvent<'_>) {
        if !streaming() {
            return;
        }
        let config = match e.config {
            Some(c) => c.to_string(),
            None => "null".to_owned(),
        };
        // Flushed, like checkpoint records: a killed run keeps its
        // progress up to its last merge stride.
        write_flushed(format_args!(
            "{{\"type\":\"progress\",\"run_id\":{},\"seq\":{},\"run\":{},\"metric\":{},\
             \"t_us\":{},\"worker\":{},\"config\":{config},\"n\":{},\"mean\":{},\
             \"half_width\":{},\"rel_half_width\":{},\"target_rel_err\":{},\"eligible\":{},\
             \"rel_half_width_95\":{},\"eligible_95\":{},\"shard_points\":{},\
             \"shard_busy_ns\":{},\"overshoot\":{}}}\n",
            crate::json::quote(&super::run_id(e.seq)),
            e.seq,
            crate::json::quote(e.run),
            crate::json::quote(e.metric),
            crate::span::now_us(),
            e.worker,
            e.n,
            number(e.mean),
            number(e.half_width),
            number(e.rel_half_width),
            number(e.target_rel_err),
            e.eligible,
            number(e.rel_half_width_95),
            e.eligible_95,
            e.shard_points,
            e.shard_busy_ns,
            e.overshoot,
        ));
    }

    pub(super) fn emit_anomaly(e: &AnomalyEvent<'_>) {
        if !streaming() {
            return;
        }
        let kinds: Vec<String> = e.kinds.iter().map(|k| crate::json::quote(k)).collect();
        write(format_args!(
            "{{\"type\":\"anomaly\",\"run_id\":{},\"seq\":{},\"run\":{},\"t_us\":{},\
             \"worker\":{},\"point\":{},\"detail_start\":{},\"measure_start\":{},\
             \"kinds\":[{}],\"cpi\":{},\"mean\":{},\"std_dev\":{},\"sigmas\":{},\
             \"decode_ns\":{},\"simulate_ns\":{}}}\n",
            crate::json::quote(&super::run_id(e.seq)),
            e.seq,
            crate::json::quote(e.run),
            crate::span::now_us(),
            e.worker,
            e.point,
            e.detail_start,
            e.measure_start,
            kinds.join(","),
            number(e.cpi),
            number(e.mean),
            number(e.std_dev),
            number(e.sigmas),
            e.decode_ns,
            e.simulate_ns,
        ));
    }

    pub(super) fn emit_checkpoint(e: &super::CheckpointEvent<'_>) {
        if !streaming() {
            return;
        }
        write_flushed(format_args!(
            "{{\"type\":\"checkpoint\",\"t_us\":{},\"path\":{},\"points\":{}}}\n",
            crate::span::now_us(),
            crate::json::quote(e.path),
            e.points,
        ));
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{AnomalyEvent, ProgressEvent};

    /// Always 0 (telemetry compiled out; no events carry it anywhere).
    #[inline(always)]
    pub fn next_run_seq() -> u64 {
        0
    }

    #[inline(always)]
    pub(super) fn emit_progress(_e: &ProgressEvent<'_>) {}

    #[inline(always)]
    pub(super) fn emit_anomaly(_e: &AnomalyEvent<'_>) {}

    #[inline(always)]
    pub(super) fn emit_checkpoint(_e: &super::CheckpointEvent<'_>) {}
}

pub use imp::next_run_seq;

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample_progress<'a>() -> ProgressEvent<'a> {
        ProgressEvent {
            seq: 1,
            run: "online",
            metric: "cpi",
            worker: 0,
            config: None,
            n: 40,
            mean: 1.372,
            half_width: 0.041,
            rel_half_width: 0.0299,
            target_rel_err: 0.03,
            eligible: true,
            rel_half_width_95: 0.0195,
            eligible_95: true,
            shard_points: 40,
            shard_busy_ns: 81_234_567,
            overshoot: 0,
        }
    }

    #[test]
    fn events_round_trip_as_json_lines() {
        let _lock = crate::sink::test_lock();
        let dir = crate::sink::test_dir("events");
        dir.start().expect("temp run stream");
        assert!(crate::streaming());

        sample_progress().emit();
        ProgressEvent { config: Some(2), metric: "delta_cpi", ..sample_progress() }.emit();
        AnomalyEvent {
            seq: 2,
            run: "online",
            worker: 3,
            point: 17,
            detail_start: 123_000,
            measure_start: 125_000,
            kinds: &["cpi_outlier", "slow_simulate"],
            cpi: 2.31,
            mean: 1.37,
            std_dev: 0.21,
            sigmas: 4.5,
            decode_ns: 52_000,
            simulate_ns: 410_000,
        }
        .emit();
        // Non-finite CI fields must degrade to valid JSON numbers.
        ProgressEvent { rel_half_width: f64::INFINITY, mean: f64::NAN, ..sample_progress() }.emit();
        crate::flush_stream();

        let text = std::fs::read_to_string(dir.stream()).expect("read events back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let docs: Vec<JsonValue> =
            lines.iter().map(|l| JsonValue::parse(l).expect("valid JSON line")).collect();
        assert_eq!(docs[0].get("type").and_then(JsonValue::as_str), Some("progress"));
        assert_eq!(docs[0].get("seq").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(docs[0].get("run_id").and_then(JsonValue::as_str), Some(run_id(1).as_str()));
        assert_eq!(docs[0].get("n").and_then(JsonValue::as_u64), Some(40));
        assert_eq!(docs[0].get("config"), Some(&JsonValue::Null));
        assert_eq!(docs[0].get("shard_busy_ns").and_then(JsonValue::as_u64), Some(81_234_567));
        assert_eq!(docs[0].get("overshoot").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(docs[1].get("config").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(docs[1].get("metric").and_then(JsonValue::as_str), Some("delta_cpi"));
        assert_eq!(docs[2].get("type").and_then(JsonValue::as_str), Some("anomaly"));
        assert_eq!(docs[2].get("seq").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(docs[2].get("run_id").and_then(JsonValue::as_str), Some(run_id(2).as_str()));
        assert_eq!(docs[2].get("point").and_then(JsonValue::as_u64), Some(17));
        let kinds = docs[2].get("kinds").and_then(JsonValue::as_arr).expect("kinds array");
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].as_str(), Some("cpi_outlier"));
        // Guarded non-finite floats parse as 0.
        assert_eq!(docs[3].get("rel_half_width").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(docs[3].get("mean").and_then(JsonValue::as_f64), Some(0.0));

        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn run_ids_are_stable_within_a_process_and_embed_seq() {
        assert_eq!(run_id(3), run_id(3));
        assert_ne!(run_id(3), run_id(4));
        assert!(run_id(7).ends_with("-7"));
        // A derived id folds the seed text into the token half.
        let a = derive_run_id("config-a", 1);
        let b = derive_run_id("config-b", 1);
        assert_ne!(a, b);
        assert!(a.ends_with("-1") && b.ends_with("-1"));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
