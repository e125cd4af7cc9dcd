//! # spectral-registry — the cross-run telemetry registry
//!
//! Every other observability artifact in this workspace is *per-run*:
//! a run directory, a `BENCH_*.json`. Nothing connects runs
//! across invocations, so there is no perf trajectory and no way to ask
//! "did this commit make `online` slower?". This crate is that
//! connective tissue: an **append-only index of run directories** that
//! experiment binaries (and the benches) append one line to at the end
//! of every run.
//!
//! ## On-disk layout
//!
//! ```text
//! <registry dir>/
//!   index.jsonl          # one IndexEntry JSON object per finished run, append-only
//!   runs/
//!     9f2a41c07d3be581/  # a plain run directory: run.jsonl, manifest.json, report.txt
//! ```
//!
//! * **`index.jsonl`** — the registry proper. Each line names one
//!   finished run: its `run_id` (the one its manifest carries), a
//!   `code_version` label, the append wall clock and the run directory
//!   (`dir`, relative to the registry for runs under `runs/`, absolute
//!   for a run kept elsewhere with `--out`). Appends go through a
//!   single `O_APPEND` write of one newline-terminated line, so
//!   concurrent processes appending to a shared registry interleave
//!   whole lines rather than corrupting each other. Lines are never
//!   rewritten; consumers ([`Registry::load`]) see history in append
//!   order. A directory a line names is not reused:
//!   [`Registry::run_dir_for`] refuses it to a new run, and a reader
//!   that finds no manifest or another run's manifest there reports the
//!   line rather than read it as this run.
//! * **`runs/<id>/`** — the run directories of runs that named the
//!   registry but no `--out` of their own
//!   ([`spectral_telemetry::RunDir`]). A directory without an index
//!   line belongs to a run that did not finish and is not listed.
//!
//! Everything else about a run — what ran where, its throughput, its
//! estimate and its convergence — is read from its run directory, the
//! same way `spectral-doctor analyze` reads any run. `doctor trend`
//! renders per-benchmark/per-machine time series over the indexed runs,
//! and `doctor gate` turns a baseline set and a candidate set into a
//! statistical regression verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use spectral_telemetry::{json_quote as quote, JsonValue, RunDir};

/// Environment variable naming the registry directory; when set, the
/// experiment harness appends to it even without `--registry`.
pub const REGISTRY_ENV: &str = "SPECTRAL_REGISTRY";

/// Environment variable labeling the running code version
/// (`code_version()` falls back to `"dev"` when unset).
pub const CODE_VERSION_ENV: &str = "SPECTRAL_CODE_VERSION";

/// The registry directory a process uses: `flag` (its `--registry`)
/// when given, else `SPECTRAL_REGISTRY` when set and non-empty.
pub fn registry_dir(flag: Option<&Path>) -> Option<PathBuf> {
    let env = || std::env::var_os(REGISTRY_ENV).filter(|v| !v.is_empty()).map(PathBuf::from);
    flag.map(Path::to_path_buf).or_else(env)
}

/// The `version` stamped into every index line this build writes and
/// the only one it reads.
const INDEX_VERSION: u64 = 2;

/// The code-version label for new index lines: `SPECTRAL_CODE_VERSION`,
/// or `"dev"` when unset/empty. CI stamps `baseline` / `candidate` /
/// commit ids into the variable to make run-sets selectable by
/// `doctor gate`.
pub fn code_version() -> String {
    match std::env::var(CODE_VERSION_ENV) {
        Ok(v) if !v.is_empty() => v,
        _ => "dev".to_owned(),
    }
}

/// Registry failure: an I/O problem, a bad index line, or a new run
/// aimed at an indexed run's directory.
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
    /// An index line already names the run directory a new run asked
    /// for ([`Registry::run_dir_for`]).
    Indexed {
        /// The indexed run in that directory.
        run_id: String,
        /// The directory.
        dir: PathBuf,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o error: {e}"),
            RegistryError::Parse { line, message } => {
                write!(f, "registry index line {line}: {message}")
            }
            RegistryError::Indexed { run_id, dir } => {
                write!(f, "{} already holds indexed run {run_id}", dir.display())
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

/// One `index.jsonl` line: a finished run and where its run directory
/// is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// The run's collision-resistant identifier, as its manifest
    /// carries it ([`spectral_telemetry::derive_run_id`]).
    pub run_id: String,
    /// Code-version label ([`code_version`]).
    pub code_version: String,
    /// Wall-clock at append time, milliseconds since the Unix epoch
    /// (the trend x-axis).
    pub unix_ms: u64,
    /// The run directory: relative to the registry, or absolute.
    pub dir: PathBuf,
}

impl IndexEntry {
    /// The entry for the finished run `run_id` in `dir`, stamped with
    /// the current [`code_version`] and wall clock.
    pub fn new(run_id: impl Into<String>, dir: impl Into<PathBuf>) -> IndexEntry {
        IndexEntry {
            run_id: run_id.into(),
            code_version: code_version(),
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            dir: dir.into(),
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"version\":{INDEX_VERSION},\"run_id\":{},\"code_version\":{},\"unix_ms\":{},\
             \"dir\":{}}}",
            quote(&self.run_id),
            quote(&self.code_version),
            self.unix_ms,
            quote(&self.dir.to_string_lossy()),
        )
    }

    /// Parse one index line, or say what is wrong with it: invalid
    /// JSON, a missing field, or a line of another format version.
    fn from_json(line: &str) -> Result<IndexEntry, String> {
        let doc = JsonValue::parse(line).map_err(|e| e.to_string())?;
        let version = doc.get("version").and_then(JsonValue::as_u64);
        if version != Some(INDEX_VERSION) {
            return Err(format!(
                "index format version {} is not {INDEX_VERSION}: the registry format changed \
                 (index lines now point at run directories; version 1 run records are not read)",
                version.map_or("(none)".to_owned(), |v| v.to_string())
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        Ok(IndexEntry {
            run_id: str_field("run_id")?,
            code_version: str_field("code_version")?,
            unix_ms: doc.get("unix_ms").and_then(JsonValue::as_u64).ok_or("missing 'unix_ms'")?,
            dir: PathBuf::from(str_field("dir")?),
        })
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
        fs::create_dir_all(&dir)?;
        Ok(Registry { dir })
    }

    /// Open the registry named by `SPECTRAL_REGISTRY`, if the variable
    /// is set and non-empty.
    pub fn from_env() -> std::io::Result<Option<Registry>> {
        registry_dir(None).map(Registry::open).transpose()
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the append-only index.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join("index.jsonl")
    }

    /// The run directory `runs/<id>` for a run that keeps no directory
    /// of its own.
    pub fn new_run(&self, id: &str) -> RunDir {
        RunDir::new(self.dir.join("runs").join(id))
    }

    /// The run directory for this process's run, to be indexed here:
    /// its `--out` directory `out` when given, else `runs/<id>`, `<id>`
    /// being the run-identity token ([`spectral_telemetry::process_token`]).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Indexed`] when an index line already names
    /// `out` (starting a run clears its directory), or a bad index.
    pub fn run_dir_for(&self, out: Option<&Path>) -> Result<RunDir, RegistryError> {
        let Some(out) = out else {
            return Ok(self.new_run(&format!("{:016x}", spectral_telemetry::process_token())));
        };
        let resolve = |p: &Path| fs::canonicalize(p).or_else(|_| std::path::absolute(p));
        let wanted = resolve(out)?;
        for entry in self.load()? {
            if resolve(&self.dir.join(&entry.dir))? == wanted {
                return Err(RegistryError::Indexed { run_id: entry.run_id, dir: out.into() });
            }
        }
        Ok(RunDir::new(out))
    }

    /// The index entry for the finished run `run_id` in `run`: the
    /// directory is named relative to the registry when it lies inside
    /// it (so a registry can be copied whole), by its absolute path
    /// otherwise.
    ///
    /// # Errors
    ///
    /// When the current directory, needed to make a path absolute,
    /// cannot be read.
    pub fn entry(&self, run_id: impl Into<String>, run: &RunDir) -> std::io::Result<IndexEntry> {
        let run = std::path::absolute(run.root())?;
        let dir = match run.strip_prefix(std::path::absolute(&self.dir)?) {
            Ok(inside) => inside.to_path_buf(),
            Err(_) => run,
        };
        Ok(IndexEntry::new(run_id, dir))
    }

    /// The run directory an index line names.
    pub fn run_dir(&self, entry: &IndexEntry) -> RunDir {
        RunDir::new(self.dir.join(&entry.dir))
    }

    /// Append one line to the index. Call it once the run's
    /// `manifest.json` is durable. The write is a single `O_APPEND`
    /// line followed by an fsync (fault site `registry.append`, retried
    /// with backoff on transient errors), so concurrent appenders
    /// interleave whole lines and a crash after return cannot lose the
    /// line. A crash *during* the append can at worst leave one torn
    /// trailing line, which [`Registry::load`] drops and the next
    /// append truncates away.
    ///
    /// # Example
    ///
    /// ```
    /// use spectral_registry::Registry;
    /// use spectral_telemetry::RunManifest;
    ///
    /// let dir = std::env::temp_dir().join(format!("doc-registry-{}", std::process::id()));
    /// let registry = Registry::open(&dir)?;
    /// let run = registry.new_run("9f2a41c07d3be581");
    /// std::fs::create_dir_all(run.root())?;
    /// let mut manifest = RunManifest::new("online", "gcc-like", "8", 4);
    /// manifest.run_id = Some("9f2a41c07d3be581-1".into());
    /// manifest.write(run.manifest(), None)?;
    /// registry.append(&registry.entry("9f2a41c07d3be581-1", &run)?)?;
    ///
    /// let entries = registry.load().expect("index parses");
    /// assert_eq!(entries.len(), 1);
    /// assert_eq!(entries[0].dir, std::path::Path::new("runs/9f2a41c07d3be581"));
    /// std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn append(&self, entry: &IndexEntry) -> std::io::Result<()> {
        let mut line = entry.to_json_line();
        line.push('\n');
        let path = self.index_path();
        repair_torn_tail(&path)?;
        spectral_faultd::retry("registry.append", || {
            spectral_faultd::append_durable("registry.append", &path, line.as_bytes())
        })
    }

    /// Load every index line, in append order. An empty or absent
    /// index is an empty registry, not an error. A malformed line or a
    /// line of another format version is a [`RegistryError::Parse`]
    /// naming its line number. Whether a line's directory still holds
    /// its run is for the reader of the directory to check
    /// (`spectral_doctor::load_registry`).
    ///
    /// **Torn-tail recovery:** a process killed mid-append can leave
    /// one partial final line with no trailing newline. That line is
    /// silently dropped — it was never durably committed — so a crashed
    /// appender can never wedge every future `doctor` invocation.
    /// A malformed line *inside* the index (newline-terminated) is
    /// still a hard parse error: that is corruption, not a torn append.
    pub fn load(&self) -> Result<Vec<IndexEntry>, RegistryError> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let last = text.lines().count();
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match IndexEntry::from_json(line) {
                Ok(entry) => entries.push(entry),
                Err(_) if torn_tail && i + 1 == last => break,
                Err(message) => return Err(RegistryError::Parse { line: i + 1, message }),
            }
        }
        Ok(entries)
    }
}

/// Truncate an unterminated final line left by a crashed appender, so
/// the next append never merges a new line into the torn fragment.
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
