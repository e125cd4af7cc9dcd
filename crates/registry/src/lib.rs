//! # spectral-registry — the cross-run telemetry registry
//!
//! Every other observability artifact in this workspace is *per-run*:
//! a run directory, a `BENCH_*.json`. Nothing connects runs
//! across invocations, so there is no perf trajectory and no way to ask
//! "did this commit make `online` slower?". This crate is that
//! connective tissue: an **append-only, on-disk run registry** that
//! experiment binaries (and the benches) append one record to at the
//! end of every run.
//!
//! ## On-disk layout
//!
//! ```text
//! <registry dir>/
//!   index.jsonl          # one RunRecord JSON object per line, append-only
//!   objects/
//!     3f/
//!       3fa9c1d2e4b57a86.json   # content-addressed artifacts (manifests)
//! ```
//!
//! * **`index.jsonl`** — the registry proper. Appends go through a
//!   single `O_APPEND` write of one newline-terminated line, so
//!   concurrent processes appending to a shared registry interleave
//!   whole records rather than corrupting each other. Records are never
//!   rewritten; consumers ([`Registry::load`]) see history in append
//!   order.
//! * **`objects/`** — a content-addressed store for bulky artifacts
//!   (full manifests with embedded metrics snapshots). The address is
//!   the FNV-1a 64 hash of the content, so identical artifacts
//!   deduplicate for free and records can reference them by relative
//!   path without coupling the index to their size.
//!
//! ## What a record carries
//!
//! A [`RunRecord`] distills one run for cross-run queries: the
//! collision-resistant `run_id` (see
//! [`spectral_telemetry::derive_run_id`]), a `code_version` label (the
//! `SPECTRAL_CODE_VERSION` environment variable — CI stamps commit ids
//! or `baseline`/`candidate` into it), what ran where (binary,
//! benchmark, machine, threads, seed), throughput (points processed,
//! run-phase seconds, the derived run rate), the final estimate, and
//! the convergence summaries distilled from the sampling-health stream
//! by the in-process tally ([`spectral_telemetry::take_run_summaries`]).
//!
//! `spectral-doctor trend` renders per-benchmark/per-machine time
//! series over these records, `doctor gate` turns a baseline set and a
//! candidate set into a statistical regression verdict, and
//! `doctor watch` tails a registry directory live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;

pub use record::{RunRecord, RECORD_VERSION};

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Environment variable naming the registry directory; when set, the
/// experiment harness appends to it even without `--registry`.
pub const REGISTRY_ENV: &str = "SPECTRAL_REGISTRY";

/// Environment variable labeling the running code version
/// (`code_version()` falls back to `"dev"` when unset).
pub const CODE_VERSION_ENV: &str = "SPECTRAL_CODE_VERSION";

/// The code-version label for new records: `SPECTRAL_CODE_VERSION`, or
/// `"dev"` when unset/empty. CI stamps `baseline` / `candidate` /
/// commit ids into the variable to make run-sets selectable by
/// `doctor gate`.
pub fn code_version() -> String {
    match std::env::var(CODE_VERSION_ENV) {
        Ok(v) if !v.is_empty() => v,
        _ => "dev".to_owned(),
    }
}

/// Registry failure: an I/O problem or a corrupt index line.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// `index.jsonl` line `line` (1-based) failed to parse.
    Parse {
        /// 1-based line number in `index.jsonl`.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o error: {e}"),
            RegistryError::Parse { line, message } => {
                write!(f, "registry index line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// Handle to one on-disk registry directory (see the module docs for
/// the layout). Cheap to construct; every operation re-opens the files
/// it touches, so handles can be held across long runs and shared
/// between processes.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

impl Registry {
    /// Open (creating if necessary) the registry at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Registry> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("objects"))?;
        Ok(Registry { dir })
    }

    /// Open the registry named by `SPECTRAL_REGISTRY`, if the variable
    /// is set and non-empty.
    pub fn from_env() -> std::io::Result<Option<Registry>> {
        match std::env::var_os(REGISTRY_ENV) {
            Some(dir) if !dir.is_empty() => Ok(Some(Registry::open(PathBuf::from(dir))?)),
            _ => Ok(None),
        }
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the append-only index.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join("index.jsonl")
    }

    /// Append one record to the index. The write is a single
    /// `O_APPEND` line followed by an fsync (fault site
    /// `registry.append`, retried with backoff on transient errors), so
    /// concurrent appenders interleave whole records and a crash after
    /// return cannot lose the record. A crash *during* the append can
    /// at worst leave one torn trailing line, which
    /// [`Registry::load`] recovers from.
    ///
    /// # Example
    ///
    /// ```
    /// use spectral_registry::{Registry, RunRecord};
    ///
    /// let dir = std::env::temp_dir().join(format!("doc-registry-{}", std::process::id()));
    /// let registry = Registry::open(&dir)?;
    /// let mut record = RunRecord::new("run", "online", "gcc-like", "8-way", 4);
    /// record.points_processed = Some(400);
    /// registry.append(&record)?;
    ///
    /// let records = registry.load().expect("index parses");
    /// assert_eq!(records.len(), 1);
    /// assert_eq!(records[0].binary, "online");
    /// std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn append(&self, record: &RunRecord) -> std::io::Result<()> {
        let mut line = record.to_json_line();
        line.push('\n');
        let path = self.index_path();
        repair_torn_tail(&path)?;
        spectral_faultd::retry("registry.append", || {
            spectral_faultd::append_durable("registry.append", &path, line.as_bytes())
        })
    }

    /// Store `bytes` in the content-addressed object store and return
    /// its registry-relative path (`objects/3f/3fa9c1….<ext>`).
    /// Identical content always maps to the same path; re-storing it is
    /// a no-op.
    pub fn store_artifact(&self, ext: &str, bytes: &[u8]) -> std::io::Result<String> {
        let hash = spectral_telemetry::fnv1a64(bytes);
        let name = format!("{hash:016x}");
        let rel = format!("objects/{}/{name}.{ext}", &name[..2]);
        let path = self.dir.join(&rel);
        if !path.exists() {
            fs::create_dir_all(path.parent().expect("object path has a parent"))?;
            // Temp + fsync + rename (fault site `registry.artifact`) so
            // a concurrent reader never sees a half-written artifact at
            // its final address and a crash leaves no torn object.
            spectral_faultd::retry("registry.artifact", || {
                spectral_faultd::write_atomic("registry.artifact", &path, bytes)
            })?;
        }
        Ok(rel)
    }

    /// Read an artifact previously stored via
    /// [`store_artifact`](Registry::store_artifact) by its
    /// registry-relative path.
    pub fn read_artifact(&self, rel: &str) -> std::io::Result<Vec<u8>> {
        fs::read(self.dir.join(rel))
    }

    /// Load every record in the index, in append order. An empty or
    /// absent index is an empty registry, not an error; a malformed
    /// line is a [`RegistryError::Parse`] naming its line number.
    ///
    /// **Torn-tail recovery:** a process killed mid-append can leave
    /// one partial final line with no trailing newline. That line is
    /// silently dropped — it was never durably committed — so a crashed
    /// appender can never wedge every future `doctor` invocation.
    /// A malformed line *inside* the index (newline-terminated) is
    /// still a hard parse error: that is corruption, not a torn append.
    pub fn load(&self) -> Result<Vec<RunRecord>, RegistryError> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let last = text.lines().count();
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match RunRecord::from_json(line) {
                Ok(record) => records.push(record),
                Err(_) if torn_tail && i + 1 == last => break,
                Err(message) => {
                    return Err(RegistryError::Parse { line: i + 1, message });
                }
            }
        }
        Ok(records)
    }
}

/// Truncate an unterminated final line left by a crashed appender, so
/// the next append never merges a new record into the torn fragment.
/// A well-formed (newline-terminated) index is left untouched. Only a
/// crash can produce a torn tail, so there is no live appender racing
/// the truncation.
fn repair_torn_tail(path: &Path) -> std::io::Result<()> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep as u64)?;
    f.sync_all()
}

/// Convenience: load all records from a registry directory.
pub fn load_records(dir: impl Into<PathBuf>) -> Result<Vec<RunRecord>, RegistryError> {
    Registry::open(dir)?.load()
}
