//! Crash-safe run checkpoints: periodic sidecar snapshots of a run's
//! raw observations, and bit-identical resume.
//!
//! # Why raw observations
//!
//! Live-points are mutually independent, and every runner already
//! reduces its estimate by replaying raw per-index observations in
//! ascending index order (see `ChunkLog::into_ordered`). A checkpoint
//! therefore stores exactly that replay input: for each processed
//! live-point index, the raw `f64` observation(s) with their bit
//! patterns preserved. Resume replays the stored values through the
//! same `push` sequence an uninterrupted run would have executed and
//! re-simulates only the missing indices — so a resumed run's estimate
//! is **bit-identical** to an uninterrupted run with the same policy,
//! not merely statistically equivalent.
//!
//! # Integrity and identity
//!
//! The sidecar file is written via [`spectral_faultd::write_atomic`]
//! (temp file + fsync + rename): a crash mid-checkpoint leaves the
//! previous complete checkpoint, never a torn file. The payload carries
//! a CRC32 trailer, and the header pins the run identity — run kind,
//! benchmark, library content hash, and a fingerprint of the full
//! [`RunPolicy`](crate::RunPolicy). [`RunCheckpoint::load`] verifies
//! the CRC and the runners verify the identity: a corrupt, truncated,
//! or mismatched checkpoint fails with a one-line diagnostic
//! ([`CoreError::Checkpoint`]) — it never panics and never silently
//! restarts from zero.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spectral_codec::crc32;
use spectral_telemetry::{fnv1a64, CheckpointEvent, Counter};

use crate::error::CoreError;
use crate::runner::RunPolicy;

// Resume metrics: checkpoint files written, observations recorded into
// the live checkpoint, observations restored from a prior checkpoint
// instead of re-simulated, and checkpoint loads.
static TLM_CKPT_WRITES: Counter = Counter::new("core.resume.checkpoint_writes");
static TLM_RECORDED: Counter = Counter::new("core.resume.points_recorded");
static TLM_RESTORED: Counter = Counter::new("core.resume.points_restored");
static TLM_LOADS: Counter = Counter::new("core.resume.loads");

/// First line of every checkpoint sidecar file.
pub const CHECKPOINT_MAGIC: &str = "spectral-ckpt v1";

/// Which runner wrote a checkpoint. Resuming requires the same kind:
/// observation layouts differ (CPI, matched pair, per-machine sweep
/// row, CPI plus window position) and replaying one kind's data through
/// another would be silent corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// [`OnlineRunner`](crate::OnlineRunner): one CPI per point.
    Online,
    /// [`MatchedRunner`](crate::MatchedRunner): a `(base, experiment)`
    /// CPI pair per point.
    Matched,
    /// [`SweepRunner`](crate::SweepRunner): one CPI per machine per
    /// point.
    Sweep,
    /// [`StratifiedRunner`](crate::StratifiedRunner): a CPI and the
    /// measured window's start per point.
    Stratified,
}

impl RunKind {
    /// Stable on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::Online => "online",
            RunKind::Matched => "matched",
            RunKind::Sweep => "sweep",
            RunKind::Stratified => "stratified",
        }
    }

    /// The run's telemetry span, `run.<kind>`.
    pub(crate) fn span(self) -> &'static str {
        match self {
            RunKind::Online => "run.online",
            RunKind::Matched => "run.matched",
            RunKind::Sweep => "run.sweep",
            RunKind::Stratified => "run.stratified",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "online" => Some(RunKind::Online),
            "matched" => Some(RunKind::Matched),
            "sweep" => Some(RunKind::Sweep),
            "stratified" => Some(RunKind::Stratified),
            _ => None,
        }
    }
}

impl fmt::Display for RunKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fingerprint of a full [`RunPolicy`], pinned into every checkpoint.
///
/// Resume demands the *same* policy as the interrupted run — the
/// bit-identity guarantee is "identical command, restarted", so every
/// field participates (via the `Debug` rendering, which spells out all
/// of them) except [`RunPolicy::recovery`]: a crashed run and its
/// resume necessarily carry different recovery settings.
pub fn policy_fingerprint(policy: &RunPolicy) -> u64 {
    let policy = RunPolicy { recovery: Recovery::none(), ..policy.clone() };
    fnv1a64(format!("{policy:?}").as_bytes())
}

/// Fingerprint of a runner's machine configuration(s) via their `Debug`
/// rendering. Runners fold (XOR) this into
/// [`CheckpointSpec::policy_fp`] so a checkpoint also pins *what
/// hardware was being simulated* — resuming a matched-pair run against
/// a different experiment variant is an identity mismatch, not a
/// silently corrupted estimate.
pub fn config_fingerprint(configs: &impl fmt::Debug) -> u64 {
    fnv1a64(format!("{configs:?}").as_bytes())
}

/// The identity a checkpoint binds to: what was being run, against
/// which library, under which policy. Validated field-by-field on
/// resume so a mismatch yields a diagnostic naming the offending
/// field, not a corrupt estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Which runner wrote the checkpoint.
    pub kind: RunKind,
    /// Benchmark the run was sampling.
    pub benchmark: String,
    /// Content hash of the live-point library
    /// ([`LivePointLibrary::content_hash`](crate::LivePointLibrary::content_hash)).
    pub library_hash: u32,
    /// [`policy_fingerprint`] of the run's policy, XORed with the
    /// [`config_fingerprint`] of the runner's machine
    /// configuration(s).
    pub policy_fp: u64,
    /// `f64`s per observation: 1 (online), 2 (matched pair or
    /// stratified), or the sweep's machine count.
    pub arity: usize,
}

/// A run checkpoint: the [`CheckpointSpec`] identity plus every raw
/// observation recorded so far, keyed by live-point index.
///
/// Runners maintain one internally (see
/// [`Recovery`]); it is also directly loadable for
/// inspection — e.g. an experiment binary surfacing resume lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    spec: CheckpointSpec,
    obs: BTreeMap<u64, Vec<f64>>,
}

fn ckpt_err(path: &Path, reason: impl Into<String>) -> CoreError {
    CoreError::Checkpoint { path: path.to_path_buf(), reason: reason.into() }
}

impl RunCheckpoint {
    /// An empty checkpoint bound to `spec`.
    pub fn new(spec: CheckpointSpec) -> Self {
        RunCheckpoint { spec, obs: BTreeMap::new() }
    }

    /// The identity header.
    pub fn spec(&self) -> &CheckpointSpec {
        &self.spec
    }

    /// Number of live-points with recorded observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Whether no observations are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Record the observation row for live-point `index` (idempotent:
    /// re-recording an index overwrites with identical data).
    pub fn record(&mut self, index: u64, obs: &[f64]) {
        debug_assert_eq!(obs.len(), self.spec.arity);
        self.obs.insert(index, obs.to_vec());
    }

    /// The stored observation row for `index`, if any.
    pub fn get(&self, index: u64) -> Option<&[f64]> {
        self.obs.get(&index).map(|v| v.as_slice())
    }

    /// Serialize to the sidecar text format (see [`Self::load`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{CHECKPOINT_MAGIC}");
        let s = &self.spec;
        let _ = writeln!(
            out,
            "meta kind={} arity={} library={:08x} policy={:016x} bench={}",
            s.kind, s.arity, s.library_hash, s.policy_fp, s.benchmark
        );
        for (index, row) in &self.obs {
            let _ = write!(out, "o {index}");
            for v in row {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
            out.push('\n');
        }
        let crc = crc32::checksum(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out.into_bytes()
    }

    /// Write the checkpoint to `path` atomically (temp + fsync +
    /// rename, fault site `core.ckpt.write`): a crash at any instant
    /// leaves the previous checkpoint or this one, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        spectral_faultd::retry("core.ckpt.write", || {
            spectral_faultd::write_atomic("core.ckpt.write", path, &self.to_bytes())
        })
        .map_err(|e| ckpt_err(path, format!("write failed: {e}")))?;
        TLM_CKPT_WRITES.inc();
        CheckpointEvent { path: &path.to_string_lossy(), points: self.obs.len() as u64 }.emit();
        Ok(())
    }

    /// Load and verify a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Every failure — unreadable file, bad magic, CRC mismatch,
    /// truncation, malformed line — is a [`CoreError::Checkpoint`]
    /// whose display is a single line naming the file and the fault.
    /// This function never panics on arbitrary input and never returns
    /// an empty checkpoint for a corrupt file.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ckpt_err(path, format!("cannot read: {e}")))?;
        let body = text
            .strip_suffix('\n')
            .ok_or_else(|| ckpt_err(path, "truncated: missing final newline"))?;
        let (payload, crc_line) = body
            .rsplit_once('\n')
            .ok_or_else(|| ckpt_err(path, "truncated: no checksum trailer"))?;
        let stored = crc_line
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| ckpt_err(path, "truncated: malformed checksum trailer"))?;
        // The CRC covers the payload *including* its trailing newline,
        // exactly as `to_bytes` computed it.
        let mut covered = payload.to_string();
        covered.push('\n');
        let actual = crc32::checksum(covered.as_bytes());
        if actual != stored {
            return Err(ckpt_err(
                path,
                format!("corrupt: checksum mismatch (stored {stored:08x}, computed {actual:08x})"),
            ));
        }
        let mut lines = payload.lines();
        match lines.next() {
            Some(CHECKPOINT_MAGIC) => {}
            _ => return Err(ckpt_err(path, "not a spectral checkpoint (bad magic line)")),
        }
        let meta = lines
            .next()
            .and_then(|l| l.strip_prefix("meta "))
            .ok_or_else(|| ckpt_err(path, "corrupt: missing meta line"))?;
        let field = |key: &str| -> Result<&str, CoreError> {
            meta.split(' ')
                .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .ok_or_else(|| ckpt_err(path, format!("corrupt: meta line lacks '{key}='")))
        };
        let spec = CheckpointSpec {
            kind: RunKind::parse(field("kind")?)
                .ok_or_else(|| ckpt_err(path, "corrupt: unknown run kind in meta line"))?,
            arity: field("arity")?
                .parse()
                .map_err(|_| ckpt_err(path, "corrupt: bad arity in meta line"))?,
            library_hash: u32::from_str_radix(field("library")?, 16)
                .map_err(|_| ckpt_err(path, "corrupt: bad library hash in meta line"))?,
            policy_fp: u64::from_str_radix(field("policy")?, 16)
                .map_err(|_| ckpt_err(path, "corrupt: bad policy fingerprint in meta line"))?,
            // `bench=` is the final field; benchmark names never embed
            // spaces, so plain splitting recovers it.
            benchmark: field("bench")?.to_string(),
        };
        if spec.arity == 0 {
            return Err(ckpt_err(path, "corrupt: zero observation arity"));
        }
        let mut obs = BTreeMap::new();
        for (n, line) in lines.enumerate() {
            let bad = || ckpt_err(path, format!("corrupt: malformed observation line {}", n + 3));
            let rest = line.strip_prefix("o ").ok_or_else(bad)?;
            let mut words = rest.split(' ');
            let index: u64 = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
            let mut row = Vec::with_capacity(spec.arity);
            for w in words {
                let bits = u64::from_str_radix(w, 16).map_err(|_| bad())?;
                row.push(f64::from_bits(bits));
            }
            if row.len() != spec.arity {
                return Err(bad());
            }
            obs.insert(index, row);
        }
        TLM_LOADS.inc();
        Ok(RunCheckpoint { spec, obs })
    }
}

/// Crash-recovery configuration for a run, carried in
/// [`RunPolicy::recovery`]: where to checkpoint, what to resume from,
/// and (for tests and drills) a deterministic interruption point.
///
/// The default [`Recovery::none()`] costs nothing on the run's hot
/// path. With a checkpoint configured, the runner snapshots every
/// recorded observation to the sidecar every `every` fresh points;
/// with a resume source, previously recorded observations are replayed
/// instead of re-simulated, preserving the exact estimator push
/// sequence — see the module docs for the bit-identity argument.
///
/// # Example
///
/// Interrupt a run (here deterministically, via the
/// [`abort_after`](Recovery::abort_after) drill) and resume it to the
/// bit-identical estimate:
///
/// ```
/// use spectral_core::{
///     CoreError, CreationConfig, LivePointLibrary, OnlineRunner, Recovery, RunPolicy,
/// };
/// use spectral_uarch::MachineConfig;
///
/// let program = spectral_workloads::tiny().build();
/// let machine = MachineConfig::eight_way();
/// let cfg = CreationConfig::for_machine(&machine).with_sample_size(6);
/// let library = LivePointLibrary::create(&program, &cfg)?;
/// let runner = OnlineRunner::new(&library, machine);
/// let policy = RunPolicy { stop_at_target: false, ..RunPolicy::default() };
/// let ckpt = std::env::temp_dir().join(format!("doc-resume-{}.ckpt", std::process::id()));
///
/// // "Crash" after three points; the flushed sidecar survives.
/// let recovery = Recovery::none().checkpoint_to(&ckpt, 2).abort_after(3);
/// let err = runner.run(&program, &RunPolicy { recovery, ..policy.clone() }).unwrap_err();
/// assert!(matches!(err, CoreError::Interrupted { .. }));
///
/// // Restart: restored points replay, the rest simulate fresh.
/// let recovery = Recovery::none().resume_from(&ckpt);
/// let resumed = runner.run(&program, &RunPolicy { recovery, ..policy.clone() })?;
/// let baseline = runner.run(&program, &policy)?;
/// assert_eq!(resumed.mean().to_bits(), baseline.mean().to_bits());
/// std::fs::remove_file(&ckpt).ok();
/// # Ok::<(), spectral_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    pub(crate) checkpoint: Option<(PathBuf, usize)>,
    pub(crate) resume: Option<PathBuf>,
    pub(crate) abort_after: Option<u64>,
}

impl Recovery {
    /// No checkpointing, no resume — the default for plain runs.
    pub fn none() -> Self {
        Recovery::default()
    }

    /// Checkpoint to `path` every `every` freshly simulated points
    /// (clamped to at least 1). The final state is also flushed when
    /// the run completes or is interrupted by [`Self::abort_after`].
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some((path.into(), every.max(1)));
        self
    }

    /// Resume from the checkpoint at `path`. The file is loaded and
    /// validated against the run's identity when the run starts;
    /// any mismatch or corruption fails the run with a one-line
    /// [`CoreError::Checkpoint`] diagnostic.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Deterministically interrupt the run with
    /// [`CoreError::Interrupted`] after `n` freshly simulated points,
    /// flushing the checkpoint first. This is the in-process stand-in
    /// for `kill -9` used by the differential resume tests and by
    /// recovery drills; `SPECTRAL_FAULT_KILL` provides the real thing
    /// for spawned processes.
    pub fn abort_after(mut self, n: u64) -> Self {
        self.abort_after = Some(n.max(1));
        self
    }

    /// Whether this configuration does anything at all.
    pub fn is_active(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some() || self.abort_after.is_some()
    }
}

#[derive(Debug)]
struct CkptWriter {
    path: PathBuf,
    every: usize,
    state: Mutex<(RunCheckpoint, usize)>,
}

/// Live recovery state for one run: the restored observation map, the
/// in-flight checkpoint writer, and the interruption countdown. Shared
/// by reference across parallel workers.
#[derive(Debug)]
pub(crate) struct RecoverySession {
    restored: Option<RunCheckpoint>,
    writer: Option<CkptWriter>,
    abort_after: Option<u64>,
    fresh: AtomicU64,
}

impl RecoverySession {
    /// Validate `recovery` against the run identity and open the
    /// session: loads + verifies the resume checkpoint (if any) and
    /// seeds the checkpoint writer with the restored observations so
    /// the sidecar stays complete across repeated interruptions.
    pub fn start(recovery: &Recovery, spec: CheckpointSpec) -> Result<Self, CoreError> {
        let restored = match &recovery.resume {
            Some(path) => {
                let ckpt = RunCheckpoint::load(path)?;
                let found = ckpt.spec();
                let mismatch = |what: &str, expected: &dyn fmt::Display, got: &dyn fmt::Display| {
                    ckpt_err(
                        path,
                        format!(
                            "identity mismatch: {what} differs \
                             (checkpoint {got}, this run {expected}); refusing to resume"
                        ),
                    )
                };
                if found.kind != spec.kind {
                    return Err(mismatch("run kind", &spec.kind, &found.kind));
                }
                if found.benchmark != spec.benchmark {
                    return Err(mismatch("benchmark", &spec.benchmark, &found.benchmark));
                }
                if found.library_hash != spec.library_hash {
                    return Err(mismatch(
                        "library content hash",
                        &format_args!("{:08x}", spec.library_hash),
                        &format_args!("{:08x}", found.library_hash),
                    ));
                }
                if found.policy_fp != spec.policy_fp {
                    return Err(mismatch(
                        "run policy",
                        &format_args!("{:016x}", spec.policy_fp),
                        &format_args!("{:016x}", found.policy_fp),
                    ));
                }
                if found.arity != spec.arity {
                    return Err(mismatch("observation arity", &spec.arity, &found.arity));
                }
                Some(ckpt)
            }
            None => None,
        };
        let writer = recovery.checkpoint.as_ref().map(|(path, every)| CkptWriter {
            path: path.clone(),
            every: (*every).max(1),
            state: Mutex::new((
                restored.clone().unwrap_or_else(|| RunCheckpoint::new(spec.clone())),
                0,
            )),
        });
        Ok(RecoverySession {
            restored,
            writer,
            abort_after: recovery.abort_after,
            fresh: AtomicU64::new(0),
        })
    }

    /// The restored observation row for live-point `index`, if the
    /// resume checkpoint recorded one. Counts
    /// `core.resume.points_restored`.
    pub fn restored(&self, index: usize) -> Option<&[f64]> {
        let row = self.restored.as_ref()?.get(index as u64)?;
        TLM_RESTORED.inc();
        Some(row)
    }

    /// Whether `index` would be restored (no counter side effect) —
    /// used to exclude restored indices from decode prefetch.
    pub fn knows(&self, index: usize) -> bool {
        self.restored.as_ref().is_some_and(|c| c.get(index as u64).is_some())
    }

    /// Record one freshly simulated observation row, checkpointing on
    /// the configured cadence, and fire the interruption drill when
    /// armed.
    pub fn record(&self, index: usize, obs: &[f64]) -> Result<(), CoreError> {
        if let Some(w) = &self.writer {
            TLM_RECORDED.inc();
            let mut guard = w.state.lock().expect("checkpoint lock");
            let (ckpt, dirty) = &mut *guard;
            ckpt.record(index as u64, obs);
            *dirty += 1;
            if *dirty >= w.every {
                *dirty = 0;
                ckpt.save(&w.path)?;
            }
        }
        let fresh = self.fresh.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(n) = self.abort_after {
            if fresh >= n {
                self.flush()?;
                return Err(CoreError::Interrupted { processed: fresh });
            }
        }
        Ok(())
    }

    /// Flush the in-flight checkpoint if it holds unwritten
    /// observations.
    pub fn flush(&self) -> Result<(), CoreError> {
        if let Some(w) = &self.writer {
            let mut guard = w.state.lock().expect("checkpoint lock");
            let (ckpt, dirty) = &mut *guard;
            if *dirty > 0 {
                *dirty = 0;
                ckpt.save(&w.path)?;
            }
        }
        Ok(())
    }

    /// Final flush at run completion.
    pub fn finish(&self) -> Result<(), CoreError> {
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CheckpointSpec {
        CheckpointSpec {
            kind: RunKind::Online,
            benchmark: "tiny".into(),
            library_hash: 0xDEADBEEF,
            policy_fp: 0x0123_4567_89AB_CDEF,
            arity: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_bit_exact() {
        let mut ckpt = RunCheckpoint::new(spec());
        // Values chosen to stress bit-exactness: subnormal, negative
        // zero, a NaN payload, and an ordinary CPI.
        ckpt.record(0, &[1.2345678901234567]);
        ckpt.record(7, &[f64::from_bits(0x0000_0000_0000_0001)]);
        ckpt.record(3, &[-0.0]);
        ckpt.record(9, &[f64::from_bits(0x7FF8_0000_0000_1234)]);
        let path = tmp("roundtrip.ckpt");
        ckpt.save(&path).unwrap();
        let back = RunCheckpoint::load(&path).unwrap();
        assert_eq!(back.spec(), ckpt.spec());
        assert_eq!(back.len(), 4);
        for idx in [0u64, 3, 7, 9] {
            let a = ckpt.get(idx).unwrap();
            let b = back.get(idx).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "index {idx}");
            }
        }
    }

    #[test]
    fn missing_file_is_one_line_error() {
        let err = RunCheckpoint::load(Path::new("/nonexistent/nope.ckpt")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope.ckpt"), "{msg}");
        assert!(!msg.contains('\n'), "diagnostic must be one line: {msg}");
    }

    #[test]
    fn corrupt_crc_detected() {
        let ckpt = RunCheckpoint::new(spec());
        let path = tmp("crc.ckpt");
        let mut bytes = ckpt.to_bytes();
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("magic") || msg.contains("truncated"),
            "{msg}"
        );
        assert!(!msg.contains('\n'), "{msg}");
    }

    #[test]
    fn truncation_detected() {
        let mut ckpt = RunCheckpoint::new(spec());
        ckpt.record(0, &[1.0]);
        ckpt.record(1, &[2.0]);
        let bytes = ckpt.to_bytes();
        let path = tmp("trunc.ckpt");
        for cut in [1, bytes.len() / 3, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = RunCheckpoint::load(&path).unwrap_err();
            let msg = err.to_string();
            assert!(!msg.contains('\n'), "{msg}");
        }
    }

    #[test]
    fn identity_mismatch_refuses_resume() {
        let ckpt = RunCheckpoint::new(spec());
        let path = tmp("mismatch.ckpt");
        ckpt.save(&path).unwrap();
        let recovery = Recovery::none().resume_from(&path);
        let other = CheckpointSpec { library_hash: 0x1111_1111, ..spec() };
        let err = RecoverySession::start(&recovery, other).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("library content hash"), "{msg}");
        assert!(msg.contains("refusing to resume"), "{msg}");
        assert!(!msg.contains('\n'), "{msg}");
    }

    #[test]
    fn session_checkpoints_on_cadence_and_restores() {
        let path = tmp("cadence.ckpt");
        let _ = std::fs::remove_file(&path);
        let session =
            RecoverySession::start(&Recovery::none().checkpoint_to(&path, 2), spec()).unwrap();
        session.record(0, &[1.5]).unwrap();
        assert!(!path.exists(), "below cadence: no write yet");
        session.record(1, &[2.5]).unwrap();
        assert!(path.exists(), "cadence reached: checkpoint written");
        session.record(2, &[3.5]).unwrap();
        session.finish().unwrap();
        let ckpt = RunCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.len(), 3, "final flush captures the tail");

        let resumed = RecoverySession::start(&Recovery::none().resume_from(&path), spec()).unwrap();
        assert_eq!(resumed.restored(1), Some(&[2.5][..]));
        assert!(resumed.restored(5).is_none());
        assert!(resumed.knows(2) && !resumed.knows(5));
    }

    #[test]
    fn abort_after_interrupts_with_flushed_checkpoint() {
        let path = tmp("abort.ckpt");
        let _ = std::fs::remove_file(&path);
        let recovery = Recovery::none().checkpoint_to(&path, 1000).abort_after(3);
        let session = RecoverySession::start(&recovery, spec()).unwrap();
        session.record(0, &[1.0]).unwrap();
        session.record(1, &[2.0]).unwrap();
        let err = session.record(2, &[3.0]).unwrap_err();
        assert!(matches!(err, CoreError::Interrupted { processed: 3 }), "{err}");
        let ckpt = RunCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.len(), 3, "interruption flushes everything recorded so far");
    }
}
