//! The run stream: one JSONL sink for every span, sampling-health
//! event and worker-timeline profile record of a run, and the run
//! directory that holds it.
//!
//! Each record is one line whose `type` field names its kind (`span`,
//! `progress`, `anomaly`, `checkpoint`, `profile_run`,
//! `profile_worker`) and whose `t_us` sits on one
//! timebase (microseconds since the first telemetry event in the
//! process). Readers skip kinds they do not know, so one stream serves
//! `spectral-doctor analyze`, `trend` and the `--perfetto` export alike.
//!
//! The sink is buffered; progress and checkpoint records flush it, so
//! a killed run's stream ends at its last one, and everything else is
//! flushed when the run finishes ([`flush_stream`]).
//!
//! [`RunDir::start`] installs the sink. Until then [`streaming`] is
//! false (a single relaxed load) and every emitter returns at once;
//! built without the `enabled` feature, it is always false.

use std::path::{Path, PathBuf};

/// The files of one run directory (the experiment binaries'
/// `--out DIR`), named in one place for the writer and the reader:
///
/// * `run.jsonl` — the run stream;
/// * `manifest.json` — the run manifest with its metrics snapshot,
///   written atomically when the run finishes;
/// * `report.txt` — the report the run printed to stdout.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// The run directory at `root` (which need not exist yet).
    pub fn new(root: impl Into<PathBuf>) -> RunDir {
        RunDir { root: root.into() }
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The run stream, `run.jsonl`.
    pub fn stream(&self) -> PathBuf {
        self.root.join("run.jsonl")
    }

    /// The run manifest, `manifest.json`.
    pub fn manifest(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The stdout report, `report.txt`.
    pub fn report(&self) -> PathBuf {
        self.root.join("report.txt")
    }

    /// Prepare the directory for a new run and install the run stream
    /// at [`stream`](Self::stream): create the directory, remove any
    /// manifest or report an earlier run left there, and truncate the
    /// stream. A run that dies therefore never leaves its stream beside
    /// an older run's manifest.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory, removing a stale file or
    /// creating the stream.
    pub fn start(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        for stale in [self.manifest(), self.report()] {
            match std::fs::remove_file(stale) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        imp::install(std::fs::File::create(self.stream())?);
        Ok(())
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::fs::File;
    use std::io::{BufWriter, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static ON: AtomicBool = AtomicBool::new(false);
    static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

    /// Whether a run stream is installed.
    #[inline]
    pub fn streaming() -> bool {
        ON.load(Ordering::Relaxed)
    }

    pub(super) fn install(file: File) {
        *SINK.lock().expect("run stream lock") = Some(BufWriter::new(file));
        ON.store(true, Ordering::Relaxed);
    }

    /// Append already-terminated JSONL text to the stream.
    pub(crate) fn write(lines: std::fmt::Arguments<'_>) {
        if let Some(w) = SINK.lock().expect("run stream lock").as_mut() {
            let _ = w.write_fmt(lines);
        }
    }

    /// [`write`], then flush everything buffered to the file: for the
    /// progress and checkpoint records a killed run must not lose.
    pub(crate) fn write_flushed(lines: std::fmt::Arguments<'_>) {
        if let Some(w) = SINK.lock().expect("run stream lock").as_mut() {
            let _ = w.write_fmt(lines);
            let _ = w.flush();
        }
    }

    /// Flush buffered records to the run stream.
    pub fn flush_stream() {
        if let Some(w) = SINK.lock().expect("run stream lock").as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    /// Always false (telemetry compiled out).
    #[inline(always)]
    pub fn streaming() -> bool {
        false
    }

    pub(super) fn install(_file: std::fs::File) {}

    /// No-op (telemetry compiled out).
    pub fn flush_stream() {}
}

pub use imp::{flush_stream, streaming};

#[cfg(feature = "enabled")]
pub(crate) use imp::{write, write_flushed};

/// Serializes the unit tests that install the sink or emit records:
/// all of them share process-wide state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh, empty temporary run directory for one unit test.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> RunDir {
    let root =
        std::env::temp_dir().join(format!("spectral_telemetry_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    RunDir::new(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_clears_what_an_earlier_run_left() {
        let _lock = test_lock();
        let dir = test_dir("start");
        std::fs::create_dir_all(dir.root()).unwrap();
        for path in [dir.stream(), dir.manifest(), dir.report()] {
            std::fs::write(path, "from an earlier run\n").unwrap();
        }
        dir.start().expect("start over an old run");
        assert!(!dir.manifest().exists(), "stale manifest removed");
        assert!(!dir.report().exists(), "stale report removed");
        assert_eq!(std::fs::read_to_string(dir.stream()).unwrap(), "", "stream truncated");
        assert_eq!(streaming(), crate::compiled_in());
        // A missing directory is created; starting twice is fine.
        let fresh = test_dir("start_fresh");
        fresh.start().expect("start in a new directory");
        fresh.start().expect("start again");
        assert!(fresh.stream().exists());
        for d in [dir, fresh] {
            let _ = std::fs::remove_dir_all(d.root());
        }
    }
}
