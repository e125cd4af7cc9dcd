//! # spectral-doctor — sampling-health analysis over run directories
//!
//! An experiment binary run with `--out DIR` leaves a run directory
//! ([`RunDir`]): the run stream `run.jsonl` (spans, scheduler samples,
//! sampling-health events and worker-timeline profiles, one record kind
//! per `type`), the run manifest `manifest.json` and the stdout report
//! `report.txt`. [`RunArtifacts`] reads the manifest and parses the
//! stream in one pass, and this crate turns them into a diagnosis:
//!
//! * **Convergence** — the merge-stride CI trajectory per estimated
//!   series, the stride at which the run first became eligible to stop
//!   (at the policy confidence and at the paper's ±ε@95% rule), and how
//!   many points were processed past that moment (wasted work).
//! * **Anomaly triage** — the top-N anomalous live-points by severity,
//!   with library index and window provenance.
//! * **Shard balance** — per-worker point counts and busy time from
//!   the progress stream's `shard_points` / `shard_busy_ns` fields,
//!   and the resulting imbalances (`--check --max-imbalance PCT` gates
//!   on the busy-time spread).
//! * **Cross-run regression** — a matched-pair-style diff of two runs'
//!   final estimates: the mean delta against the combined half-width
//!   `sqrt(hw₁² + hw₂²)`, plus point-count and wall-clock movement.
//!
//! The `spectral-doctor` binary renders the diagnosis as a text report
//! (with a sparkline convergence curve), as machine-readable JSON
//! (`--json`), and can convert the run stream into a Chrome
//! `trace_event` document for <https://ui.perfetto.dev> (`--perfetto`).
//!
//! Beyond the per-run `analyze` diagnosis, the binary grew cross-run
//! subcommands over the [`spectral-registry`](spectral_registry)
//! run registry:
//!
//! * **`trend`** ([`trend`]) — per-benchmark/per-machine time series of
//!   run rate, points-to-convergence, and CI half-width across
//!   registry records, rendered as sparklines or JSON.
//! * **`gate`** ([`gate`]) — a statistical regression verdict between a
//!   baseline run-set and a candidate run-set, built on
//!   [`spectral_stats::MatchedPair`]; designed as a CI gate (exit code
//!   2 on regression).
//! * **`watch`** ([`WatchFrame`]) — a live terminal dashboard over a
//!   growing run stream or registry directory, with an optional
//!   Prometheus-style text exposition (`--prom`).
//! * **`profile`** ([`analyze_profile`]) — wall-clock attribution over
//!   the stream's worker-timeline records: per-worker phase shares with
//!   an explicit idle remainder, merge-lock wait distribution, prefetch
//!   stall vs decode-ahead, straggler/barrier waste, a critical-path
//!   estimate, and the profiler's own overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod gate;
mod profile;
mod report;
mod trend;
mod watch;

use std::fmt;

use spectral_telemetry::{JsonValue, RunDir, RunManifest};

pub use analyze::{
    analyze, diff_runs, exhausted_without_convergence, Diagnosis, RunDiff, SeriesDiagnosis,
    ShardReport, TrajectoryPoint,
};
pub use gate::{gate, render_gate_json, render_gate_text, GateComparison, GateConfig, GateVerdict};
pub use profile::{
    analyze_profile, measure_record_cost_ns, render_profile_json, render_profile_text,
    OverheadEstimate, PhaseAttribution, PhaseTotal, ProfileInterval, ProfileReport, ProfileRun,
    WaitStats, WorkerProfile, WorkerReport,
};
pub use report::{render_json, render_text, sparkline};
pub use trend::{render_trend_json, render_trend_text, trend, TrendPoint, TrendSeries};
pub use watch::{EventsTail, SeriesState, WatchFrame};

/// A doctor failure: a one-line diagnostic for stderr.
#[derive(Debug)]
pub struct DoctorError(String);

impl DoctorError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl Into<String>) -> DoctorError {
        DoctorError(m.into())
    }
}

impl fmt::Display for DoctorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DoctorError {}

/// One parsed `progress` record from the run stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressRecord {
    /// Microseconds since the run's first telemetry event.
    pub t_us: u64,
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Process-wide run ordinal (0 for pre-`seq` streams).
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: String,
    /// What the mean estimates: `cpi` or `delta_cpi`.
    pub metric: String,
    /// Emitting worker ordinal.
    pub worker: usize,
    /// Sweep configuration index; `None` for single-config runs.
    pub config: Option<usize>,
    /// Points merged into the estimate so far.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// CI half-width at the policy confidence.
    pub half_width: f64,
    /// Relative error at the policy confidence.
    pub rel_half_width: f64,
    /// The policy's relative-error target ε.
    pub target_rel_err: f64,
    /// Early-termination eligibility at the policy confidence.
    pub eligible: bool,
    /// Relative error at 95% confidence.
    pub rel_half_width_95: f64,
    /// The paper's ±ε@95% early-termination rule.
    pub eligible_95: bool,
    /// The emitting worker's own processed-point count.
    pub shard_points: u64,
    /// The emitting worker's cumulative decode + simulate wall-clock
    /// (0 for pre-busy-time streams).
    pub shard_busy_ns: u64,
    /// Exact early-termination overshoot from the run's closing record
    /// (`None` for streams that predate exact accounting).
    pub overshoot: Option<u64>,
}

/// One parsed `anomaly` record from the run stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// Microseconds since the run's first telemetry event.
    pub t_us: u64,
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Process-wide run ordinal (0 for pre-`seq` streams).
    pub seq: u64,
    /// Run kind.
    pub run: String,
    /// Emitting worker ordinal.
    pub worker: usize,
    /// Library index of the live-point.
    pub point: u64,
    /// Window provenance: start of detailed warming.
    pub detail_start: u64,
    /// Window provenance: start of measurement.
    pub measure_start: u64,
    /// Which tests fired.
    pub kinds: Vec<String>,
    /// The point's measured CPI.
    pub cpi: f64,
    /// Running CPI mean at observation time.
    pub mean: f64,
    /// Running CPI standard deviation at observation time.
    pub std_dev: f64,
    /// Deviation in standard deviations (0 when only a time test fired).
    pub sigmas: f64,
    /// Decode wall-clock for this point.
    pub decode_ns: u64,
    /// Detailed-simulation wall-clock for this point.
    pub simulate_ns: u64,
}

impl AnomalyRecord {
    /// Triage ordering key: CPI deviation first, then processing cost.
    pub(crate) fn severity(&self) -> (f64, u64) {
        (self.sigmas, self.decode_ns.saturating_add(self.simulate_ns))
    }
}

/// One parsed `checkpoint` record: a checkpointing run made its
/// crash-recovery snapshot durable.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Microseconds since the run's first telemetry event.
    pub t_us: u64,
    /// The checkpoint file that was atomically replaced.
    pub path: String,
    /// Live-points recorded in the checkpoint.
    pub points: u64,
}

/// Everything the doctor knows about one run: its manifest and the
/// records of its run stream.
#[derive(Debug, Clone, Default)]
pub struct RunArtifacts {
    /// The run manifest; `None` for a run that did not finish.
    pub manifest: Option<RunManifest>,
    /// Parsed progress records, in stream order.
    pub progress: Vec<ProgressRecord>,
    /// Parsed anomaly records, in stream order.
    pub anomalies: Vec<AnomalyRecord>,
    /// Parsed checkpoint records, in stream order.
    pub checkpoints: Vec<CheckpointRecord>,
    /// Worker-timeline profiles, one per profiled run, in first-seen
    /// order.
    pub profiles: Vec<ProfileRun>,
}

impl RunArtifacts {
    /// Parse a run stream in one pass: progress, anomaly and checkpoint
    /// records, and the `profile_*` records grouped per run. Spans, scheduler samples
    /// and unknown record kinds are skipped.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic (with its 1-based line number) when a
    /// non-empty line is not valid JSON.
    pub fn parse(manifest: Option<RunManifest>, stream: &str) -> Result<RunArtifacts, DoctorError> {
        let mut out = RunArtifacts { manifest, ..RunArtifacts::default() };
        for (lineno, line) in stream.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = JsonValue::parse(line)
                .map_err(|e| DoctorError(format!("line {}: {}", lineno + 1, e.message)))?;
            match doc.get("type").and_then(JsonValue::as_str) {
                Some("progress") => out.progress.push(ProgressRecord {
                    t_us: u64_field(&doc, "t_us"),
                    run_id: str_field(&doc, "run_id"),
                    seq: u64_field(&doc, "seq"),
                    run: str_field(&doc, "run"),
                    metric: str_field(&doc, "metric"),
                    worker: u64_field(&doc, "worker") as usize,
                    config: doc.get("config").and_then(JsonValue::as_u64).map(|c| c as usize),
                    n: u64_field(&doc, "n"),
                    mean: f64_field(&doc, "mean"),
                    half_width: f64_field(&doc, "half_width"),
                    rel_half_width: f64_field(&doc, "rel_half_width"),
                    target_rel_err: f64_field(&doc, "target_rel_err"),
                    eligible: bool_field(&doc, "eligible"),
                    rel_half_width_95: f64_field(&doc, "rel_half_width_95"),
                    eligible_95: bool_field(&doc, "eligible_95"),
                    shard_points: u64_field(&doc, "shard_points"),
                    shard_busy_ns: u64_field(&doc, "shard_busy_ns"),
                    overshoot: doc.get("overshoot").and_then(JsonValue::as_u64),
                }),
                Some("anomaly") => out.anomalies.push(AnomalyRecord {
                    t_us: u64_field(&doc, "t_us"),
                    run_id: str_field(&doc, "run_id"),
                    seq: u64_field(&doc, "seq"),
                    run: str_field(&doc, "run"),
                    worker: u64_field(&doc, "worker") as usize,
                    point: u64_field(&doc, "point"),
                    detail_start: u64_field(&doc, "detail_start"),
                    measure_start: u64_field(&doc, "measure_start"),
                    kinds: doc
                        .get("kinds")
                        .and_then(JsonValue::as_arr)
                        .map(|a| {
                            a.iter().filter_map(JsonValue::as_str).map(str::to_owned).collect()
                        })
                        .unwrap_or_default(),
                    cpi: f64_field(&doc, "cpi"),
                    mean: f64_field(&doc, "mean"),
                    std_dev: f64_field(&doc, "std_dev"),
                    sigmas: f64_field(&doc, "sigmas"),
                    decode_ns: u64_field(&doc, "decode_ns"),
                    simulate_ns: u64_field(&doc, "simulate_ns"),
                }),
                Some("checkpoint") => out.checkpoints.push(CheckpointRecord {
                    t_us: u64_field(&doc, "t_us"),
                    path: str_field(&doc, "path"),
                    points: u64_field(&doc, "points"),
                }),
                Some(kind @ ("profile_run" | "profile_worker" | "profile_phase")) => {
                    profile::add_record(&mut out.profiles, kind, &doc);
                }
                _ => {}
            }
        }
        profile::close_runs(&mut out.profiles);
        Ok(out)
    }

    /// Load a run directory: its stream and, when present, its manifest
    /// (a run that died before finishing leaves none).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending file on I/O or parse
    /// failures.
    pub fn load(dir: &RunDir) -> Result<RunArtifacts, DoctorError> {
        let path = dir.manifest();
        let manifest = match std::fs::read_to_string(&path) {
            Ok(text) => Some(RunManifest::from_json(&text).map_err(|e| {
                DoctorError(format!("malformed manifest {}: {}", path.display(), e.message))
            })?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                return Err(DoctorError(format!("cannot read manifest {}: {e}", path.display())))
            }
        };
        Self::parse(manifest, &read_stream(dir)?)
            .map_err(|e| DoctorError(format!("{}: {e}", dir.stream().display())))
    }
}

/// Read a run directory's stream.
///
/// # Errors
///
/// Returns a diagnostic naming the stream when it cannot be read.
pub fn read_stream(dir: &RunDir) -> Result<String, DoctorError> {
    std::fs::read_to_string(dir.stream())
        .map_err(|e| DoctorError(format!("cannot read {}: {e}", dir.stream().display())))
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn f64_field(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn bool_field(doc: &JsonValue, key: &str) -> bool {
    doc.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

fn str_field(doc: &JsonValue, key: &str) -> String {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("").to_owned()
}
