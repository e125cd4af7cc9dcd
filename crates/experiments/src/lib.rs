//! # spectral-experiments — regenerating the paper's tables and figures
//!
//! One binary per table/figure of the evaluation (see DESIGN.md's
//! experiment index):
//!
//! | binary         | paper artifact |
//! |----------------|----------------|
//! | `fig4`         | Fig 4 — adaptive-warming (AW-MRRL) additional CPI bias |
//! | `fig5`         | Fig 5 — restricted live-state additional CPI bias |
//! | `fig7`         | Fig 7 — live-point size breakdown vs AW-MRRL checkpoints |
//! | `fig8`         | Fig 8 — checkpoint size & processing time vs max cache size |
//! | `table2`       | Table 2 — runtimes of all four methods |
//! | `table3`       | Table 3 — summary of warming approaches |
//! | `matched_pair` | §6.2 — matched-pair sample-size reduction factors |
//! | `online`       | §6.1 — random-order online convergence |
//!
//! All binaries accept:
//!
//! * `--benchmarks a,b,c` — run a named subset of the suite
//! * `--limit K` — first K suite benchmarks
//! * `--quick` — small preset (few benchmarks, fewer windows)
//! * `--windows N`, `--seeds S`, `--scale F` where meaningful
//! * `--threads T` — worker threads for library creation and runs
//!   (default: the host's available parallelism)
//! * `--library PATH` — open an existing on-disk library (either
//!   format) instead of re-creating one, where the binary supports it
//! * `--save-library PATH` — persist the library the binary used
//! * `--block N` — records per shared-dictionary block when writing v2
//! * `--dict on|off` — enable/disable block-shared LZSS dictionaries
//!   when writing v2 (default on)
//! * `--decode-cache N` — decoded-point LRU cache capacity in points
//!   (0 disables; default 256, also via `SPECTRAL_DECODE_CACHE`)
//! * `--target PCT` — early-termination relative-error target in
//!   percent, where the binary estimates one (default: the paper's 3)
//! * `--checkpoint PATH` — periodically write a crash-safe run
//!   checkpoint (temp + fsync + atomic rename) to PATH;
//!   `--checkpoint-every N` sets the flush cadence in fresh points
//!   (default 64)
//! * `--resume PATH` — restart an interrupted run from a checkpoint
//!   written by `--checkpoint`; resumed estimates are bit-identical to
//!   an uninterrupted run. Binaries that run many estimates
//!   (`matched_pair`, `stratified`) treat PATH as a prefix with one
//!   sidecar per run; binaries without a resumable run loop reject the
//!   recovery flags instead of silently restarting.
//! * `--out DIR` — leave the run in DIR: `run.jsonl` streams every span,
//!   sampling-health event and worker-timeline profile record as the
//!   run executes; on exit `report.txt` receives the stdout
//!   report and `manifest.json` the run manifest with the full metrics
//!   snapshot embedded. A reused DIR is cleared of an earlier run's
//!   files first. Feed DIR to `spectral-doctor analyze --run DIR`,
//!   while the run is going or after it finished.
//! * `--registry DIR` — index the run in the cross-run registry at DIR:
//!   without `--out` the run directory is `DIR/runs/<id>`, and on exit,
//!   once its manifest is written, one line naming the run id, code
//!   version and run directory is appended to `DIR/index.jsonl`; also
//!   enabled by the `SPECTRAL_REGISTRY` env var. Query the registry with
//!   `spectral-doctor trend` / `gate`, and any of its runs with
//!   `spectral-doctor analyze --run`.
//!
//! Binaries exit non-zero with a one-line `binary: error: …`
//! diagnostic on malformed arguments or I/O faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spectral_isa::Program;
use spectral_telemetry::{RunDir, RunManifest};
use spectral_workloads::{dynamic_length, suite, Benchmark};

/// An experiment-binary failure: a one-line diagnostic for stderr.
#[derive(Debug)]
pub struct ExpError(String);

impl ExpError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl Into<String>) -> ExpError {
        ExpError(m.into())
    }
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExpError {}

impl From<spectral_core::CoreError> for ExpError {
    fn from(e: spectral_core::CoreError) -> ExpError {
        ExpError(format!("simulation fault: {e}"))
    }
}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> ExpError {
        ExpError(format!("i/o error: {e}"))
    }
}

/// Attach file-path context to fallible I/O.
pub trait IoContext<T> {
    /// Wrap an error with `what` and the offending path.
    fn context(self, what: &str, path: &std::path::Path) -> Result<T, ExpError>;
}

impl<T, E: fmt::Display> IoContext<T> for Result<T, E> {
    fn context(self, what: &str, path: &std::path::Path) -> Result<T, ExpError> {
        self.map_err(|e| ExpError(format!("{what} {}: {e}", path.display())))
    }
}

/// Run an experiment binary body, mapping any failure to a one-line
/// stderr diagnostic and a non-zero exit code.
pub fn run_main(
    binary: &str,
    body: impl FnOnce(Args) -> Result<(), ExpError>,
) -> std::process::ExitCode {
    match Args::try_parse().and_then(body) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            // Keep what the run streamed before it failed.
            spectral_telemetry::flush_stream();
            eprintln!("{binary}: error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Parsed common command-line options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Explicit benchmark names (`--benchmarks`).
    pub benchmarks: Option<Vec<String>>,
    /// First-K limit (`--limit`).
    pub limit: Option<usize>,
    /// Quick preset (`--quick`).
    pub quick: bool,
    /// Windows per sample (`--windows`).
    pub windows: Option<u64>,
    /// Sample seeds / repetitions (`--seeds`).
    pub seeds: Option<u64>,
    /// Benchmark length scale factor (`--scale`).
    pub scale: Option<u64>,
    /// Machine selection: "8" (default) or "16" (`--machine`).
    pub machine: Option<String>,
    /// Worker-thread count for creation and runs (`--threads`; default
    /// = available parallelism).
    pub threads: Option<usize>,
    /// Existing on-disk library to open instead of creating
    /// (`--library`).
    pub library: Option<PathBuf>,
    /// Where to persist the library the binary used (`--save-library`).
    pub save_library: Option<PathBuf>,
    /// Records per shared-dictionary block when writing v2 (`--block`).
    pub block: Option<usize>,
    /// Block-shared LZSS dictionaries when writing v2 (`--dict on|off`;
    /// default on).
    pub dict: Option<bool>,
    /// Decoded-point LRU cache capacity (`--decode-cache`; 0 disables).
    pub decode_cache: Option<usize>,
    /// Relative-error target in percent (`--target`).
    pub target: Option<f64>,
    /// Checkpoint sidecar path for crash-safe runs (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Fresh points between checkpoint flushes (`--checkpoint-every`;
    /// default 64).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint file to resume an interrupted run from (`--resume`).
    pub resume: Option<PathBuf>,
    /// Run directory for the stream, report and manifest (`--out`; a
    /// registry's `runs/<id>` when [`Args::try_parse`] finds a registry
    /// but no `--out`).
    pub out: Option<PathBuf>,
    /// Cross-run registry directory (`--registry`).
    pub registry: Option<PathBuf>,
}

impl Args {
    /// Parse from `std::env::args`.
    ///
    /// # Errors
    ///
    /// Returns a usage diagnostic on unknown flags, missing values, or
    /// malformed integers, and an I/O diagnostic when the registry or
    /// the run directory cannot be started. A run that names a registry
    /// (`--registry` or `SPECTRAL_REGISTRY`) gets its run directory from
    /// [`Registry::run_dir_for`](spectral_registry::Registry::run_dir_for):
    /// `runs/<id>` under the registry without `--out`, and an error when
    /// an index line already names the `--out` directory. The run
    /// directory is started, which installs the run stream.
    pub fn try_parse() -> Result<Args, ExpError> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Self::try_parse_from(&argv)?;
        if let Some(capacity) = args.decode_cache {
            spectral_core::set_decode_cache_capacity(capacity);
        }
        if let Some(dir) = args.registry_dir() {
            let registry =
                spectral_registry::Registry::open(&dir).context("cannot open registry", &dir)?;
            let run = registry
                .run_dir_for(args.out.as_deref())
                .context("cannot start a run in registry", &dir)?;
            args.out = Some(run.root().to_path_buf());
        }
        if let Some(dir) = &args.out {
            RunDir::new(dir).start().context("cannot start run directory", dir)?;
        }
        Ok(args)
    }

    /// Parse from an explicit argument list (testable core of
    /// [`try_parse`](Self::try_parse); no side effects).
    ///
    /// # Errors
    ///
    /// Returns a usage diagnostic on unknown flags, missing values, or
    /// malformed integers.
    pub fn try_parse_from(argv: &[String]) -> Result<Args, ExpError> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| -> Result<&String, ExpError> {
                it.next().ok_or_else(|| ExpError(format!("{what} needs a value")))
            };
            fn int<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, ExpError> {
                v.parse().map_err(|_| ExpError(format!("{what}: expected an integer, got '{v}'")))
            }
            match a.as_str() {
                "--benchmarks" => {
                    args.benchmarks =
                        Some(value("--benchmarks")?.split(',').map(str::to_owned).collect())
                }
                "--limit" => args.limit = Some(int("--limit", value("--limit")?)?),
                "--quick" => args.quick = true,
                "--windows" => args.windows = Some(int("--windows", value("--windows")?)?),
                "--seeds" => args.seeds = Some(int("--seeds", value("--seeds")?)?),
                "--scale" => args.scale = Some(int("--scale", value("--scale")?)?),
                "--machine" => args.machine = Some(value("--machine")?.clone()),
                "--threads" => args.threads = Some(int("--threads", value("--threads")?)?),
                "--library" => args.library = Some(PathBuf::from(value("--library")?)),
                "--save-library" => {
                    args.save_library = Some(PathBuf::from(value("--save-library")?))
                }
                "--block" => {
                    let v: usize = int("--block", value("--block")?)?;
                    if v == 0 {
                        return Err(ExpError("--block: must be at least 1".into()));
                    }
                    args.block = Some(v);
                }
                "--dict" => {
                    args.dict = Some(match value("--dict")?.as_str() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(ExpError(format!(
                                "--dict: expected on or off, got '{other}'"
                            )))
                        }
                    })
                }
                "--decode-cache" => {
                    args.decode_cache = Some(int("--decode-cache", value("--decode-cache")?)?)
                }
                "--target" => {
                    let v = value("--target")?;
                    let pct: f64 = v.parse().map_err(|_| {
                        ExpError(format!("--target: expected a percentage, got '{v}'"))
                    })?;
                    if !(pct.is_finite() && pct > 0.0) {
                        return Err(ExpError(format!("--target: must be positive, got '{v}'")));
                    }
                    args.target = Some(pct);
                }
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--checkpoint-every" => {
                    let v: u64 = int("--checkpoint-every", value("--checkpoint-every")?)?;
                    if v == 0 {
                        return Err(ExpError("--checkpoint-every: must be at least 1".into()));
                    }
                    args.checkpoint_every = Some(v);
                }
                "--resume" => args.resume = Some(PathBuf::from(value("--resume")?)),
                "--out" => args.out = Some(PathBuf::from(value("--out")?)),
                "--registry" => args.registry = Some(PathBuf::from(value("--registry")?)),
                other => {
                    return Err(ExpError(format!(
                        "unknown argument {other} (flags: --benchmarks --limit --quick \
                         --windows --seeds --scale --machine --threads --library \
                         --save-library --block --dict --decode-cache --target \
                         --checkpoint --checkpoint-every --resume --out --registry)"
                    )))
                }
            }
        }
        Ok(args)
    }

    /// Effective repetition count (paper methodology: 5 samples;
    /// default here 3, quick 1).
    pub fn seed_count(&self, default: u64) -> u64 {
        self.seeds.unwrap_or(if self.quick { 1 } else { default })
    }

    /// Effective windows-per-sample.
    pub fn window_count(&self, default: u64) -> u64 {
        self.windows.unwrap_or(if self.quick { default / 3 } else { default })
    }

    /// Effective worker-thread count: `--threads` when given, otherwise
    /// the host's available parallelism.
    pub fn thread_count(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Effective relative-error target as a fraction: `--target`
    /// (percent) when given, otherwise `default` (a fraction, e.g. the
    /// paper's 0.03).
    pub fn target_rel_err(&self, default: f64) -> f64 {
        self.target.map_or(default, |pct| pct / 100.0)
    }

    /// The crash-recovery configuration selected by `--checkpoint`,
    /// `--checkpoint-every`, and `--resume` (default flush cadence: 64
    /// fresh points). [`Recovery::none`](spectral_core::Recovery::none)
    /// when no recovery flag was given.
    pub fn recovery(&self) -> spectral_core::Recovery {
        let mut r = spectral_core::Recovery::none();
        if let Some(path) = &self.checkpoint {
            r = r.checkpoint_to(path.clone(), self.checkpoint_every.unwrap_or(64) as usize);
        }
        if let Some(path) = &self.resume {
            r = r.resume_from(path.clone());
        }
        r
    }

    /// The recovery configuration for run `cell` of a binary that runs
    /// many estimates: `--checkpoint` and `--resume` name a path
    /// *prefix*, and the run's sidecar is `<prefix>.<cell>`. A cell the
    /// crashed invocation never reached has no sidecar and runs fresh;
    /// [`Self::check_resume_prefix`] catches a prefix that matches
    /// nothing.
    pub fn cell_recovery(&self, cell: &str) -> spectral_core::Recovery {
        let mut r = spectral_core::Recovery::none();
        if let Some(base) = &self.checkpoint {
            let every = self.checkpoint_every.unwrap_or(64) as usize;
            r = r.checkpoint_to(sidecar(base, cell), every);
        }
        if let Some(base) = &self.resume {
            let path = sidecar(base, cell);
            if path.exists() {
                r = r.resume_from(path);
            }
        }
        r
    }

    /// Fail when `--resume` names a prefix with no sidecar for any of
    /// `cells`, instead of silently restarting every run from zero.
    ///
    /// # Errors
    ///
    /// A diagnostic naming the prefix and an expected sidecar path.
    pub fn check_resume_prefix(&self, cells: &[String]) -> Result<(), ExpError> {
        let Some(base) = &self.resume else { return Ok(()) };
        if cells.iter().any(|cell| sidecar(base, cell).exists()) {
            return Ok(());
        }
        Err(ExpError(format!(
            "--resume {}: no checkpoint sidecars found for that prefix (expected files like {})",
            base.display(),
            sidecar(base, cells.first().map_or("", String::as_str)).display()
        )))
    }

    /// Stamp resume lineage into a run manifest: when `--resume` named
    /// a checkpoint, a `resumed_from` note records it so the manifest
    /// and `doctor analyze` can distinguish resumed runs from
    /// uninterrupted ones.
    pub fn stamp_recovery(&self, manifest: &mut RunManifest) {
        if let Some(ckpt) = &self.resume {
            manifest.note("resumed_from", ckpt.display().to_string());
        }
    }

    /// Reject `--checkpoint` / `--checkpoint-every` / `--resume` in a
    /// binary whose run loop is not resumable, instead of silently
    /// ignoring the flags and restarting from zero.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the binary whenever any recovery
    /// flag is present.
    pub fn reject_recovery_flags(&self, binary: &str) -> Result<(), ExpError> {
        if self.checkpoint.is_some() || self.checkpoint_every.is_some() || self.resume.is_some() {
            return Err(ExpError(format!(
                "{binary} does not support --checkpoint/--checkpoint-every/--resume \
                 (resumable binaries: online, matched_pair, stratified)"
            )));
        }
        Ok(())
    }
}

/// Run `cell`'s sidecar under the recovery prefix `base`:
/// `<base>.<cell>`.
fn sidecar(base: &Path, cell: &str) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".{cell}"));
    PathBuf::from(name)
}

impl Args {
    /// Resolve the selected machine configuration ("8" default, "16").
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on an unknown machine name.
    pub fn machine_config(&self) -> Result<spectral_uarch::MachineConfig, ExpError> {
        match self.machine.as_deref() {
            None | Some("8") => Ok(spectral_uarch::MachineConfig::eight_way()),
            Some("16") => Ok(spectral_uarch::MachineConfig::sixteen_way()),
            Some(other) => Err(ExpError(format!("unknown machine '{other}' (use 8 or 16)"))),
        }
    }

    /// The machine label for manifests ("8" or "16").
    pub fn machine_label(&self) -> &str {
        self.machine.as_deref().unwrap_or("8")
    }

    /// The paged-container write options selected by `--block` /
    /// `--dict` (defaults: 64-record blocks, dictionaries on).
    pub fn v2_options(&self) -> spectral_core::V2WriteOptions {
        let mut opts = spectral_core::V2WriteOptions::default();
        if let Some(points) = self.block {
            opts.block_points = points;
        }
        if let Some(dict) = self.dict {
            opts.dict = dict;
        }
        opts
    }

    /// Persist `library` to `path` as a paged v2 container written with
    /// the `--block` / `--dict` options.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the unwritable path.
    pub fn write_library(
        &self,
        library: &spectral_core::LivePointLibrary,
        path: &std::path::Path,
    ) -> Result<(), ExpError> {
        library.save_v2(path, &self.v2_options()).context("cannot save library", path)?;
        Ok(())
    }

    /// Start a run manifest for `binary` under these arguments,
    /// pre-filled with the machine label, thread count, and the quick /
    /// scale / windows / seeds settings as notes.
    pub fn manifest(&self, binary: &str, benchmark: &str) -> RunManifest {
        let mut m = RunManifest::new(binary, benchmark, self.machine_label(), self.thread_count());
        if self.quick {
            m.note("quick", "true");
        }
        if let Some(s) = self.scale {
            m.note("scale", s.to_string());
        }
        if let Some(w) = self.windows {
            m.note("windows", w.to_string());
        }
        if let Some(s) = self.seeds {
            m.note("seeds", s.to_string());
        }
        if let Some(c) = self.decode_cache {
            m.note("decode_cache", c.to_string());
        }
        m
    }

    /// The effective registry directory: `--registry` when given, else
    /// the `SPECTRAL_REGISTRY` environment variable (when non-empty).
    pub fn registry_dir(&self) -> Option<PathBuf> {
        spectral_registry::registry_dir(self.registry.as_deref())
    }

    /// Finish a run: stamp a collision-resistant `run_id` into the
    /// manifest and flush the run stream; write `report.txt`, then
    /// `manifest.json` with the metrics snapshot embedded, into the run
    /// directory (so a manifest there marks a finished run); then, when
    /// `--registry` / `SPECTRAL_REGISTRY` names a registry, append the
    /// run's index line.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the report or manifest cannot be
    /// written or the registry cannot be appended to.
    pub fn finish(&self, report: &Report, manifest: &mut RunManifest) -> Result<(), ExpError> {
        if manifest.run_id.is_none() {
            // Seeded from the manifest content so two binaries started
            // in the same instant still derive distinct ids; the seq
            // ordinal separates identical manifests within a process.
            manifest.run_id = Some(spectral_telemetry::derive_run_id(
                &manifest.to_json(),
                spectral_telemetry::next_run_seq(),
            ));
        }
        spectral_telemetry::flush_stream();
        let Some(run) = self.out.as_ref().map(RunDir::new) else { return Ok(()) };
        let path = run.report();
        std::fs::write(&path, report.text()).context("cannot write report", &path)?;
        let path = run.manifest();
        manifest
            .write(&path, Some(&spectral_telemetry::snapshot()))
            .context("cannot write manifest", &path)?;
        if let Some(dir) = self.registry_dir() {
            let registry =
                spectral_registry::Registry::open(&dir).context("cannot open registry", &dir)?;
            let run_id = manifest.run_id.clone().unwrap_or_default();
            let entry =
                registry.entry(run_id, &run).context("cannot locate run directory", run.root())?;
            registry.append(&entry).context("cannot append to registry", &dir)?;
        }
        Ok(())
    }
}

/// Record a library's identity in a run manifest: content hash,
/// container format version, and point count.
pub fn stamp_library(manifest: &mut RunManifest, library: &spectral_core::LivePointLibrary) {
    manifest.library_id = Some(format!("crc32:{:08x}", library.content_hash()));
    manifest.library_format = Some(u64::from(library.format_version()));
    manifest.library_points = Some(library.len() as u64);
}

/// A benchmark with its built program and measured dynamic length.
#[derive(Debug)]
pub struct BenchCase {
    /// The benchmark definition.
    pub bench: Benchmark,
    /// The built program image.
    pub program: Program,
    /// Committed-instruction count.
    pub len: u64,
}

impl BenchCase {
    /// Build and measure one benchmark.
    pub fn new(bench: Benchmark) -> BenchCase {
        let program = bench.build();
        let len = dynamic_length(&program);
        BenchCase { bench, program, len }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        self.bench.name()
    }
}

/// Load the benchmark set selected by `args`, optionally scaled.
///
/// # Errors
///
/// Returns a diagnostic naming the first unknown `--benchmarks` entry.
pub fn load_cases(args: &Args) -> Result<Vec<BenchCase>, ExpError> {
    let scale = args.scale.unwrap_or(1);
    let all = suite();
    let chosen: Vec<Benchmark> = match (&args.benchmarks, args.limit, args.quick) {
        (Some(names), _, _) => names
            .iter()
            .map(|n| {
                all.iter().find(|b| b.name() == n).cloned().ok_or_else(|| {
                    let known: Vec<&str> = all.iter().map(|b| b.name()).collect();
                    ExpError(format!("unknown benchmark '{n}' (known: {})", known.join(", ")))
                })
            })
            .collect::<Result<_, _>>()?,
        (None, Some(k), _) => all.into_iter().take(k).collect(),
        (None, None, true) => {
            // Representative quick set: one memory-bound, one branchy,
            // one FP, one call-heavy, one streaming.
            let names = ["mcf-like", "gcc-like", "swim-like", "perlbmk-like", "gzip-like"];
            all.into_iter().filter(|b| names.contains(&b.name())).collect()
        }
        (None, None, false) => all,
    };
    Ok(chosen
        .into_iter()
        .map(|b| BenchCase::new(if scale > 1 { b.scaled(scale) } else { b }))
        .collect())
}

/// Order-preserving parallel map: applies `f` to every item with up to
/// `threads` scoped workers (static stride sharding) and returns the
/// results in input order. Used by experiment binaries whose outer
/// per-benchmark loops are independent.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (f, slots) = (&f, &slots);
            scope.spawn(move || {
                let mut i = worker;
                while i < items.len() {
                    let r = f(&items[i]);
                    *slots[i].lock().expect("slot lock") = Some(r);
                    i += threads;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("worker filled slot"))
        .collect()
}

/// Wall-clock timing helper.
#[derive(Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Start timing.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Render a fixed-width text table to a string (one trailing newline
/// per line, none at the end).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out.pop();
    out
}

/// The stdout report of an experiment binary: every line and table is
/// printed as it is added and kept, so [`Args::finish`] can copy the
/// whole report into the run directory's `report.txt`.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
}

impl Report {
    /// Emit a text line (echoed to stdout immediately).
    pub fn line(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.text.push_str(&text);
        self.text.push('\n');
    }

    /// Emit a blank separator line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Emit a titled table (echoed to stdout immediately; empty `title`
    /// prints no caption line).
    pub fn table(&mut self, title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) {
        let title = title.into();
        if !title.is_empty() {
            self.line(title);
        }
        self.line(render_table(headers, &rows));
    }

    /// The report as printed to stdout.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Human-readable seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} m", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

/// Relative bias in percent.
pub fn bias_pct(estimate: f64, reference: f64) -> f64 {
    ((estimate - reference) / reference).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GB");
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(0.005), "5.0 ms");
        assert_eq!(fmt_secs(2.0), "2.00 s");
        assert_eq!(fmt_secs(90.0), "1.5 m");
        assert_eq!(fmt_secs(7200.0), "2.0 h");
    }

    #[test]
    fn bias_pct_symmetric() {
        assert!((bias_pct(1.03, 1.0) - 3.0).abs() < 1e-9);
        assert!((bias_pct(0.97, 1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(par_map(&items, 4, |&x| x * 2), expect);
        assert_eq!(par_map(&items, 1, |&x| x * 2), expect);
        assert_eq!(par_map(&items, 64, |&x| x * 2), expect);
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn bench_case_builds() {
        let c = BenchCase::new(spectral_workloads::tiny());
        assert!(c.len > 10_000);
        assert_eq!(c.name(), "tiny");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn try_parse_from_accepts_all_flags() {
        let a = Args::try_parse_from(&argv(&[
            "--benchmarks",
            "gcc-like,mcf-like",
            "--limit",
            "3",
            "--quick",
            "--windows",
            "50",
            "--seeds",
            "2",
            "--scale",
            "4",
            "--machine",
            "16",
            "--threads",
            "6",
            "--library",
            "lib.splp",
            "--save-library",
            "out.splp",
            "--block",
            "32",
            "--dict",
            "off",
            "--decode-cache",
            "512",
            "--target",
            "10",
            "--checkpoint",
            "c.ckpt",
            "--checkpoint-every",
            "32",
            "--resume",
            "r.ckpt",
            "--out",
            "run-dir",
            "--registry",
            "reg-dir",
        ]))
        .expect("valid argv");
        assert_eq!(a.benchmarks.as_deref(), Some(&["gcc-like".to_owned(), "mcf-like".into()][..]));
        assert_eq!(a.limit, Some(3));
        assert!(a.quick);
        assert_eq!(a.windows, Some(50));
        assert_eq!(a.seeds, Some(2));
        assert_eq!(a.scale, Some(4));
        assert_eq!(a.machine.as_deref(), Some("16"));
        assert_eq!(a.threads, Some(6));
        assert_eq!(a.library.as_deref(), Some(std::path::Path::new("lib.splp")));
        assert_eq!(a.save_library.as_deref(), Some(std::path::Path::new("out.splp")));
        assert_eq!(a.block, Some(32));
        assert_eq!(a.dict, Some(false));
        assert_eq!(a.decode_cache, Some(512));
        let opts = a.v2_options();
        assert_eq!(opts.block_points, 32);
        assert!(!opts.dict);
        assert_eq!(a.target, Some(10.0));
        assert!((a.target_rel_err(0.03) - 0.10).abs() < 1e-12);
        assert_eq!(a.checkpoint.as_deref(), Some(std::path::Path::new("c.ckpt")));
        assert_eq!(a.checkpoint_every, Some(32));
        assert_eq!(a.resume.as_deref(), Some(std::path::Path::new("r.ckpt")));
        let recovery = a.recovery();
        assert!(recovery.is_active());
        assert!(a.reject_recovery_flags("fig4").is_err());
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("run-dir")));
        assert_eq!(a.registry.as_deref(), Some(std::path::Path::new("reg-dir")));
        assert!(a.machine_config().is_ok());
    }

    #[test]
    fn try_parse_from_diagnoses_bad_input() {
        let e = Args::try_parse_from(&argv(&["--threads", "abc"])).unwrap_err();
        assert!(e.to_string().contains("--threads"), "{e}");
        assert!(e.to_string().contains("abc"), "{e}");
        let e = Args::try_parse_from(&argv(&["--windows"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
        let e = Args::try_parse_from(&argv(&["--out"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
        let e = Args::try_parse_from(&argv(&["--bogus"])).unwrap_err();
        assert!(e.to_string().contains("unknown argument --bogus"), "{e}");
        let e = Args::try_parse_from(&argv(&["--dict", "maybe"])).unwrap_err();
        assert!(e.to_string().contains("--dict"), "{e}");
        let e = Args::try_parse_from(&argv(&["--block", "0"])).unwrap_err();
        assert!(e.to_string().contains("--block"), "{e}");
        let e = Args::try_parse_from(&argv(&["--decode-cache", "x"])).unwrap_err();
        assert!(e.to_string().contains("--decode-cache"), "{e}");
        let e = Args::try_parse_from(&argv(&["--target", "-3"])).unwrap_err();
        assert!(e.to_string().contains("--target"), "{e}");
        let e = Args::try_parse_from(&argv(&["--checkpoint-every", "0"])).unwrap_err();
        assert!(e.to_string().contains("--checkpoint-every"), "{e}");
        let e = Args::try_parse_from(&argv(&["--resume"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
        assert!(Args::default().reject_recovery_flags("fig4").is_ok());
        assert!(Args::try_parse_from(&argv(&["--target", "nan"])).is_err());
        let a = Args { machine: Some("32".into()), ..Args::default() };
        assert!(a.machine_config().is_err());
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![vec!["a".to_owned(), "10".into()], vec!["longer-name".into(), "3".into()]];
        let text = render_table(&["name", "n"], &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("-----------"));
        assert_eq!(lines[2], "a            10");
        assert_eq!(lines[3], "longer-name  3");
    }

    #[test]
    fn report_text_is_what_stdout_saw() {
        let mut r = Report::default();
        r.line("header \"quoted\" line");
        r.table("caption", &["x", "y"], vec![vec!["1".to_owned(), "2".into()]]);
        r.blank();
        r.table("", &["z"], Vec::new());
        assert_eq!(r.text(), "header \"quoted\" line\ncaption\nx  y\n-  -\n1  2\n\nz\n-\n");
    }

    #[test]
    fn fresh_library_stamps_format_two() {
        use spectral_core::{CreationConfig, LivePointLibrary};
        use spectral_uarch::MachineConfig;
        let program = spectral_workloads::tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(4);
        let library = LivePointLibrary::create(&program, &cfg).unwrap();
        let mut m = Args::default().manifest("unit", "tiny");
        stamp_library(&mut m, &library);
        assert_eq!(m.library_format, Some(2));
        assert_eq!(m.library_points, Some(library.len() as u64));
    }

    #[test]
    fn manifest_carries_arg_notes() {
        let a = Args { quick: true, scale: Some(6), threads: Some(2), ..Args::default() };
        let m = a.manifest("unit", "tiny");
        let json = m.to_json();
        let v = spectral_telemetry::JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(v.get("binary").and_then(|b| b.as_str()), Some("unit"));
        assert_eq!(v.get("threads").and_then(|t| t.as_u64()), Some(2));
        let notes = v.get("notes").expect("notes object");
        assert_eq!(notes.get("quick").and_then(|q| q.as_str()), Some("true"));
        assert_eq!(notes.get("scale").and_then(|s| s.as_str()), Some("6"));
    }
}
