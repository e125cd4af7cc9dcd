//! # spectral-doctor — sampling-health analysis over run directories
//!
//! An experiment binary run with `--out DIR` leaves a run directory
//! ([`RunDir`]): the run stream `run.jsonl` (spans, sampling-health
//! events and worker-timeline profiles, one record kind per `type`),
//! the run manifest `manifest.json` and the stdout report
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
//!   the run's `profile_worker` records, and the resulting imbalances
//!   (`--check --max-imbalance PCT` gates on the busy-time spread). A
//!   worker writes its record when it finishes, so a run still going
//!   has no shard balance yet.
//! * **Cross-run regression** — a matched-pair-style diff of two runs'
//!   final estimates: the mean delta against the combined half-width
//!   `sqrt(hw₁² + hw₂²)`, plus point-count and wall-clock movement.
//! * **Wall-clock attribution** ([`analyze_profile`]) — per profiled
//!   run, from the same worker-timeline records: per-worker phase shares
//!   with an explicit idle remainder, merge-lock waits, prefetch stall
//!   vs decode-ahead, straggler/barrier waste, a critical-path estimate,
//!   and the profiler's own overhead.
//!
//! The `spectral-doctor` binary renders the diagnosis as one text report
//! (with a sparkline convergence curve), as one machine-readable JSON
//! document (`--json`), and can convert the run stream into a Chrome
//! `trace_event` document for <https://ui.perfetto.dev> (`--perfetto`).
//! It reads a run that is still going, or one that was killed, as far
//! as its last complete record ([`read_stream`]).
//!
//! Beyond the per-run `analyze` diagnosis, the binary grew cross-run
//! subcommands over the [`spectral-registry`](spectral_registry)
//! run registry, an index of run directories. [`load_registry`] loads
//! each indexed run's manifest, and [`RegistryRun::load_stream`] its
//! stream where a view needs it, so every figure they show comes from
//! the run's manifest and from [`analyze`]:
//!
//! * **`trend`** ([`trend`]) — per-benchmark/per-machine time series of
//!   run rate, points-to-convergence, and CI half-width across
//!   indexed runs, rendered as sparklines or JSON.
//! * **`gate`** ([`gate`]) — a statistical regression verdict between a
//!   baseline run-set and a candidate run-set, built on
//!   [`spectral_stats::MatchedPair`]; designed as a CI gate (exit code
//!   2 on regression).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod gate;
mod profile;
mod report;
mod trend;

use std::fmt;
use std::path::Path;

use spectral_registry::{IndexEntry, Registry};
use spectral_telemetry::{JsonValue, RunDir, RunManifest};

pub use analyze::{
    analyze, diff_runs, exhausted_without_convergence, Diagnosis, RunDiff, SeriesDiagnosis,
    ShardReport, TrajectoryPoint,
};
pub use gate::{gate, render_gate_json, render_gate_text, GateComparison, GateConfig, GateVerdict};
pub use profile::{
    analyze_profile, measure_record_cost_ns, OverheadEstimate, PhaseAttribution, PhaseTotal,
    ProfileReport, ProfileRun, WaitStats, WorkerProfile, WorkerReport,
};
pub use report::{render_json, render_text, sparkline};
pub use trend::{render_trend_json, render_trend_text, trend, TrendPoint, TrendSeries};

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
    /// records, and the `profile_run`/`profile_worker` records grouped
    /// per run. Spans and unknown record kinds are skipped, as are the
    /// `sched` and `profile_phase` records of older streams.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic (with its 1-based line number) when a
    /// non-empty line is not valid JSON.
    pub fn parse(manifest: Option<RunManifest>, stream: &str) -> Result<RunArtifacts, DoctorError> {
        Self::parse_kinds(manifest, stream, |_| true)
    }

    /// [`parse`](Self::parse), except that a line whose leading `type`
    /// (the sink writes it first) `keep` rejects is skipped unparsed.
    fn parse_kinds(
        manifest: Option<RunManifest>,
        stream: &str,
        keep: fn(&str) -> bool,
    ) -> Result<RunArtifacts, DoctorError> {
        let mut out = RunArtifacts { manifest, ..RunArtifacts::default() };
        for (lineno, line) in stream.lines().enumerate() {
            let kind = line.strip_prefix("{\"type\":\"").and_then(|rest| rest.split('"').next());
            if line.trim().is_empty() || kind.is_some_and(|kind| !keep(kind)) {
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
                Some(kind @ ("profile_run" | "profile_worker")) => {
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
        let mut artifacts = Self::load_manifest(dir)?;
        artifacts.load_stream(dir, |_| true)?;
        Ok(artifacts)
    }

    /// Load a run directory's manifest, but not its stream.
    fn load_manifest(dir: &RunDir) -> Result<RunArtifacts, DoctorError> {
        let path = dir.manifest();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => {
                return Err(DoctorError(format!("cannot read manifest {}: {e}", path.display())))
            }
        };
        let malformed = |e: spectral_telemetry::JsonError| {
            DoctorError(format!("malformed manifest {}: {}", path.display(), e.message))
        };
        let doc = JsonValue::parse(&text).map_err(malformed)?;
        let manifest = Some(RunManifest::from_value(&doc).map_err(malformed)?);
        Ok(RunArtifacts { manifest, ..Self::default() })
    }

    /// Parse `dir`'s stream records of the kinds `keep` accepts into
    /// these artifacts, in place of any records parsed before.
    fn load_stream(&mut self, dir: &RunDir, keep: fn(&str) -> bool) -> Result<(), DoctorError> {
        *self = Self::parse_kinds(self.manifest.take(), &read_stream(dir)?, keep)
            .map_err(|e| DoctorError(format!("{}: {e}", dir.stream().display())))?;
        Ok(())
    }
}

/// The `(binary, benchmark, machine, threads)` tuple that trend series
/// and gate comparisons group runs by.
pub(crate) type TupleKey = (String, String, String, usize);

/// One run of a registry: its index line and its run directory's
/// manifest, loaded by [`load_registry`], and its stream once
/// [`load_stream`](Self::load_stream) has read it.
#[derive(Debug, Clone)]
pub struct RegistryRun {
    entry: IndexEntry,
    dir: RunDir,
    artifacts: RunArtifacts,
}

impl RegistryRun {
    /// The run's index line.
    pub fn entry(&self) -> &IndexEntry {
        &self.entry
    }

    /// The run directory's manifest, and its stream's records once
    /// [`load_stream`](Self::load_stream) has read them.
    pub fn artifacts(&self) -> &RunArtifacts {
        &self.artifacts
    }

    /// Read the run's stream, which [`load_registry`] leaves unread,
    /// parsing only the records [`analyze`] reads: progress, anomaly
    /// and checkpoint records, and the `profile_worker` records its
    /// shard balance comes from.
    ///
    /// # Errors
    ///
    /// A diagnostic naming the stream when it cannot be read or parsed.
    pub fn load_stream(&mut self) -> Result<(), DoctorError> {
        self.artifacts.load_stream(&self.dir, |k| {
            matches!(k, "progress" | "anomaly" | "checkpoint" | "profile_worker")
        })
    }

    /// The run's manifest: an index line is appended only once it is
    /// durable, and [`load_registry`] admits no run without one.
    pub fn manifest(&self) -> &RunManifest {
        self.artifacts.manifest.as_ref().expect("a registry run has a manifest")
    }

    /// Throughput: points processed per second of the phases named
    /// `run*` (of all phases when none is), so library-creation cost
    /// does not pollute the trajectory.
    pub fn run_rate(&self) -> Option<f64> {
        let m = self.manifest();
        let run_secs: f64 =
            m.phases.iter().filter(|p| p.name.starts_with("run")).map(|p| p.secs).sum();
        let secs = if run_secs > 0.0 { run_secs } else { m.phases.iter().map(|p| p.secs).sum() };
        (secs > 0.0).then_some(m.points_processed? as f64 / secs)
    }

    /// Points the primary series of [`analyze`] needed to first become
    /// eligible to stop; the processed count for a run whose stream
    /// shows no eligible sample (or has not been read).
    pub fn points_to_convergence(&self) -> Option<u64> {
        let diagnosis = analyze(&self.artifacts);
        let first = diagnosis.primary().and_then(|s| s.first_eligible.map(|i| s.trajectory[i].n));
        first.or(self.manifest().points_processed)
    }

    pub(crate) fn key(&self) -> TupleKey {
        let m = self.manifest();
        (m.binary.clone(), m.benchmark.clone(), m.machine.clone(), m.threads)
    }
}

/// Load every run the registry at `dir` indexes, in append order, with
/// its manifest but not its stream.
///
/// # Errors
///
/// A diagnostic on a bad index or manifest, and one naming the line
/// whose run directory holds no manifest or another run's (it was
/// removed, or reused by a later run).
pub fn load_registry(dir: &Path) -> Result<Vec<RegistryRun>, DoctorError> {
    let fail = |e: &dyn fmt::Display| DoctorError(format!("{}: {e}", dir.display()));
    let registry = Registry::open(dir).map_err(|e| fail(&e))?;
    let entries = registry.load().map_err(|e| fail(&e))?;
    entries
        .into_iter()
        .map(|entry| {
            let run = registry.run_dir(&entry);
            let artifacts = RunArtifacts::load_manifest(&run).map_err(|e| fail(&e))?;
            let holds = artifacts.manifest.as_ref().map(|m| m.run_id.clone().unwrap_or_default());
            if holds.as_deref() != Some(entry.run_id.as_str()) {
                let holds =
                    holds.map_or("no manifest".into(), |id| format!("the manifest of run {id}"));
                return Err(fail(&format!(
                    "the index line of run {} names {}, which holds {holds}",
                    entry.run_id,
                    run.root().display()
                )));
            }
            Ok(RegistryRun { entry, dir: run, artifacts })
        })
        .collect()
}

/// Read a run directory's stream up to and including its last newline.
///
/// The sink is buffered and writes a record in several pieces, so the
/// stream of a run that is still going, or of one that was killed, can
/// end mid-record: that torn tail is not a record yet and is left out.
///
/// # Errors
///
/// Returns a diagnostic naming the stream when it cannot be read.
pub fn read_stream(dir: &RunDir) -> Result<String, DoctorError> {
    let fail =
        |e: &dyn fmt::Display| DoctorError(format!("cannot read {}: {e}", dir.stream().display()));
    let mut bytes = std::fs::read(dir.stream()).map_err(|e| fail(&e))?;
    bytes.truncate(bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1));
    String::from_utf8(bytes).map_err(|e| fail(&e))
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

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A finished `binary` run on gcc-like: `points` processed in one
    /// `run` phase of `secs`, with a final estimate `mean ± hw`.
    pub fn manifest(binary: &str, points: u64, secs: f64, mean: f64, hw: f64) -> RunManifest {
        let mut m = RunManifest::new(binary, "gcc-like", "8-wide", 4);
        m.points_processed = Some(points);
        m.phase("run", secs);
        m.set_estimate(mean, hw, true);
        m
    }

    /// A registry run indexed under `code_version` at `unix_ms`, whose
    /// run directory holds `manifest` and `stream`.
    pub fn registry_run(
        code_version: &str,
        unix_ms: u64,
        manifest: RunManifest,
        stream: &str,
    ) -> RegistryRun {
        let mut entry = IndexEntry::new(manifest.run_id.clone().unwrap_or_default(), "runs/r");
        entry.code_version = code_version.to_owned();
        entry.unix_ms = unix_ms;
        let artifacts = RunArtifacts::parse(Some(manifest), stream).expect("valid stream");
        RegistryRun { entry, dir: RunDir::new("runs/r"), artifacts }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::registry_run;
    use super::{analyze, analyze_profile, render_json, RunArtifacts};
    use spectral_telemetry::RunManifest;

    /// A two-worker online run as the previous stream format wrote it:
    /// `sched` and `profile_phase` lines, `shard_*` progress fields and
    /// `kept` on `profile_worker`.
    const PARENT_FORMAT: &str = concat!(
        "{\"type\":\"span\",\"name\":\"create.library\",\"tid\":0,\"depth\":0,\"t_us\":0,\
         \"dur_us\":404714}\n",
        "{\"type\":\"sched\",\"t_us\":404977,\"worker\":0,\"chunk_points\":8,\"steals\":0}\n",
        "{\"type\":\"sched\",\"t_us\":404980,\"worker\":0,\"prefetch_occupancy\":4}\n",
        "{\"type\":\"progress\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"t_us\":413032,\"worker\":0,\"config\":null,\"n\":8,\
         \"mean\":0.432375,\"half_width\":0.386,\"rel_half_width\":0.893,\"target_rel_err\":0.1,\
         \"eligible\":false,\"rel_half_width_95\":0.583,\"eligible_95\":false,\
         \"shard_points\":8,\"shard_busy_ns\":7986359,\"overshoot\":0}\n",
        "{\"type\":\"anomaly\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\"run\":\"online\",\
         \"t_us\":561562,\"worker\":1,\"point\":334,\"detail_start\":484063,\
         \"measure_start\":486063,\"kinds\":[\"slow_simulate\"],\"cpi\":1.322,\"mean\":0.49,\
         \"std_dev\":0.386,\"sigmas\":0,\"decode_ns\":53129,\"simulate_ns\":2805193}\n",
        "{\"type\":\"progress\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"t_us\":613032,\"worker\":1,\"config\":null,\"n\":16,\
         \"mean\":0.45,\"half_width\":0.04,\"rel_half_width\":0.089,\"target_rel_err\":0.1,\
         \"eligible\":false,\"rel_half_width_95\":0.07,\"eligible_95\":true,\
         \"shard_points\":8,\"shard_busy_ns\":8100000,\"overshoot\":0}\n",
        "{\"type\":\"profile_worker\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":1,\"t_us\":405624,\"dur_us\":436306,\"recorded\":29,\
         \"kept\":29,\"phases\":{\"claim\":{\"count\":2,\"ns\":25388},\
         \"prefetch_wait\":{\"count\":1,\"ns\":1169369},\"decode\":{\"count\":7,\"ns\":708131},\
         \"simulate\":{\"count\":8,\"ns\":6222500},\"merge_wait\":{\"count\":1,\"ns\":3200},\
         \"merge\":{\"count\":1,\"ns\":180286}}}\n",
        "{\"type\":\"profile_phase\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":1,\"phase\":\"merge_wait\",\"t_us\":613020,\"dur_us\":3}\n",
        "{\"type\":\"progress\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"t_us\":813032,\"worker\":0,\"config\":null,\"n\":24,\
         \"mean\":0.44,\"half_width\":0.03,\"rel_half_width\":0.068,\"target_rel_err\":0.1,\
         \"eligible\":true,\"rel_half_width_95\":0.05,\"eligible_95\":true,\
         \"shard_points\":16,\"shard_busy_ns\":15986359,\"overshoot\":2}\n",
        "{\"type\":\"profile_worker\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":0,\"t_us\":404972,\"dur_us\":432149,\"recorded\":50,\
         \"kept\":50,\"phases\":{\"claim\":{\"count\":3,\"ns\":19567},\
         \"prefetch_wait\":{\"count\":2,\"ns\":1156379},\"decode\":{\"count\":14,\"ns\":3759420},\
         \"simulate\":{\"count\":16,\"ns\":11070560},\"merge_wait\":{\"count\":2,\"ns\":3200},\
         \"merge\":{\"count\":2,\"ns\":180286}}}\n",
        "{\"type\":\"profile_phase\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":0,\"phase\":\"claim\",\"t_us\":404974,\"dur_us\":11}\n",
        "{\"type\":\"profile_run\",\"run_id\":\"b4339851efe76864-1\",\"seq\":1,\
         \"run\":\"online\",\"workers\":2,\"t_us\":404763,\"dur_us\":437800}\n",
    );

    /// `stream` without the record kinds and fields the profiler's
    /// aggregates replaced.
    fn strip_parent_format(stream: &str) -> String {
        let drop_field = |line: String, key: &str| {
            let tag = format!(",\"{key}\":");
            let Some(at) = line.find(&tag) else { return line };
            let rest = &line[at + tag.len()..];
            let end = rest.find([',', '}']).expect("a field ends before its record");
            format!("{}{}", &line[..at], &rest[end..])
        };
        stream
            .lines()
            .filter(|l| {
                !l.starts_with("{\"type\":\"sched\"")
                    && !l.starts_with("{\"type\":\"profile_phase\"")
            })
            .map(|l| {
                ["shard_points", "shard_busy_ns", "kept"].into_iter().fold(l.to_owned(), drop_field)
            })
            .map(|l| l + "\n")
            .collect()
    }

    #[test]
    fn a_parent_format_stream_reads_like_the_current_one() {
        let stripped = strip_parent_format(PARENT_FORMAT);
        for gone in ["sched", "profile_phase", "shard_", "kept"] {
            assert!(!stripped.contains(gone), "{gone} left in {stripped}");
        }
        let parent = RunArtifacts::parse(None, PARENT_FORMAT).expect("the parent format parses");
        let current = RunArtifacts::parse(None, &stripped).expect("the stripped copy parses");
        let (a, b) = (analyze(&parent), analyze(&current));
        let profiles = |r: &RunArtifacts| {
            r.profiles.iter().map(|p| analyze_profile(p, 100)).collect::<Vec<_>>()
        };
        assert_eq!(
            render_json(&a, None, None, 5, &profiles(&parent)),
            render_json(&b, None, None, 5, &profiles(&current))
        );
        let shards = &a.primary().expect("one series").shards;
        assert_eq!(shards, &b.primary().expect("one series").shards);
        assert_eq!(shards.workers, vec![(0, 16), (1, 8)]);
        assert_eq!(shards.busy, vec![(0, 15_986_359), (1, 8_100_000)]);
        assert_eq!(parent.profiles, current.profiles);
    }

    #[test]
    fn run_rate_prefers_run_phases_then_falls_back_to_all_phases() {
        let mut m = RunManifest::new("online", "gcc-like", "8-wide", 4);
        m.points_processed = Some(100);
        m.phase("create_library", 3.0).phase("run_serial", 0.5).phase("run_parallel", 1.5);
        // Library creation is not throughput: 100 points over 2 s of run*.
        assert_eq!(registry_run("v", 0, m, "").run_rate(), Some(50.0));

        let mut m = RunManifest::new("online", "gcc-like", "8-wide", 4);
        m.points_processed = Some(100);
        m.phase("create_library", 3.0).phase("analyze", 1.0);
        // No run* phase: 100 points over all 4 s.
        assert_eq!(registry_run("v", 0, m, "").run_rate(), Some(25.0));
    }
}
