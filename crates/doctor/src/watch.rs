//! `doctor watch`: live run exposition — a rebuilt-per-frame snapshot
//! of a growing run stream or registry directory, rendered as an
//! in-place terminal dashboard and/or a Prometheus-style text
//! exposition.
//!
//! A frame is a pure function of the artifact's current contents. Over
//! a registry it is rebuilt from the indexed run directories each tick;
//! over a run stream the watch loop polls an [`EventsTail`] each tick —
//! reading only the bytes appended since the last frame, and re-seeking
//! to the start
//! when the file shrank (truncated in place or rotated) — and rebuilds
//! the frame from the accumulated complete lines. A live writer's last
//! line may be mid-append, so the tail holds it back until its newline
//! arrives, and the frame goes through the same one-pass parser
//! ([`RunArtifacts::parse`]) and [`analyze`](crate::analyze) as a
//! finished run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::PathBuf;

use spectral_telemetry::json_number as number;

use crate::{DoctorError, RegistryRun, RunArtifacts};

/// An incremental tail over a growing run stream: each [`poll`] reads
/// only the bytes appended since the last one and returns the
/// accumulated complete lines, so a long watch doesn't re-read the
/// whole file every frame.
///
/// The tail must outlive its writers: a file that doesn't exist yet (or
/// vanished mid-rotation) is an empty frame, and a file that *shrank*
/// (truncated in place, or rotated and recreated) re-seeks to offset 0
/// and rebuilds from the new contents instead of erroring or serving a
/// stale blend of old and new bytes.
///
/// [`poll`]: EventsTail::poll
#[derive(Debug)]
pub struct EventsTail {
    path: PathBuf,
    offset: u64,
    text: String,
}

impl EventsTail {
    /// Start a tail over `path` (which need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> EventsTail {
        EventsTail { path: path.into(), offset: 0, text: String::new() }
    }

    /// Read any appended bytes and return the accumulated file
    /// contents up to the last newline (a partial last line waits for
    /// the next poll). Never errors: missing files reset to an empty
    /// frame, shrunken files reset to offset 0 and re-read from the
    /// start.
    pub fn poll(&mut self) -> &str {
        let Ok(mut f) = std::fs::File::open(&self.path) else {
            self.offset = 0;
            self.text.clear();
            return "";
        };
        let len = f.metadata().map(|m| m.len()).unwrap_or(0);
        if len < self.offset {
            // Truncated or rotated: what we accumulated no longer
            // reflects the file. Start over from the new contents.
            self.offset = 0;
            self.text.clear();
        }
        if len > self.offset && f.seek(SeekFrom::Start(self.offset)).is_ok() {
            let mut buf = Vec::with_capacity((len - self.offset) as usize);
            if f.take(len - self.offset).read_to_end(&mut buf).is_ok() {
                self.offset += buf.len() as u64;
                self.text.push_str(&String::from_utf8_lossy(&buf));
            }
        }
        complete_lines(&self.text)
    }
}

/// `text` up to and including its last newline.
fn complete_lines(text: &str) -> &str {
    &text[..text.rfind('\n').map_or(0, |i| i + 1)]
}

/// The live state of one estimated series: the latest sample of its
/// diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesState {
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Process-wide run ordinal.
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: String,
    /// What the mean estimates.
    pub metric: String,
    /// Sweep configuration index, if any.
    pub config: Option<usize>,
    /// Points merged into the estimate so far.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Relative CI half-width at the policy confidence.
    pub rel_half_width: f64,
    /// The policy's relative-error target ε.
    pub target_rel_err: f64,
    /// Early-termination eligibility at the policy confidence.
    pub eligible: bool,
    /// Workers of the series' run (0 until they finish and write their
    /// `profile_worker` records).
    pub workers: usize,
    /// `(max − min) / max` over per-worker busy time (0 with fewer than
    /// two workers); `None` until the run's workers finish.
    pub busy_spread: Option<f64>,
    /// Anomalies observed in this series' run so far.
    pub anomalies: u64,
}

/// One snapshot of a watched artifact.
#[derive(Debug, Clone, Default)]
pub struct WatchFrame {
    /// Live series, ordered by (seq, run_id, run, metric, config).
    pub series: Vec<SeriesState>,
    /// Indexed runs (empty when watching a run stream).
    pub runs: Vec<RegistryRun>,
}

impl WatchFrame {
    /// Build a frame from a run stream's parsed records: the latest
    /// sample of every series [`analyze`](crate::analyze) finds, with
    /// the anomalies of its run.
    pub fn from_artifacts(artifacts: &RunArtifacts) -> WatchFrame {
        WatchFrame { series: series_states(artifacts), runs: Vec::new() }
    }

    /// Build a frame from a registry's runs: the run list verbatim, plus
    /// the series of the latest run per `(binary, benchmark, machine,
    /// threads)` tuple, as [`from_artifacts`](Self::from_artifacts)
    /// finds them in its stream (read by [`load_latest_streams`]).
    pub fn from_registry(runs: Vec<RegistryRun>) -> WatchFrame {
        let series = latest(&runs).into_iter().flat_map(|i| series_states(runs[i].artifacts()));
        WatchFrame { series: series.collect(), runs }
    }

    /// Render the in-place dashboard body (no ANSI control codes — the
    /// watch loop owns screen clearing).
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spectral-doctor watch — {} series, {} indexed run{}",
            self.series.len(),
            self.runs.len(),
            if self.runs.len() == 1 { "" } else { "s" }
        );
        for s in &self.series {
            let label = match s.config {
                Some(c) => format!("{} {} [config {c}]", s.run, s.metric),
                None => format!("{} {}", s.run, s.metric),
            };
            let shards = match s.busy_spread {
                Some(spread) => format!("workers={} busy-spread={:.0}%", s.workers, spread * 100.0),
                None => "workers=n/a busy-spread=n/a".to_owned(),
            };
            let _ = writeln!(
                out,
                "  [{label} #{seq}] n={n} mean={mean:.4} ±{rel:.2}% (target {tgt:.2}%) {state}  \
                 {shards} anomalies={a}",
                seq = s.seq,
                n = s.n,
                mean = s.mean,
                rel = s.rel_half_width * 100.0,
                tgt = s.target_rel_err * 100.0,
                state = if s.eligible { "ELIGIBLE" } else { "running" },
                a = s.anomalies,
            );
        }
        let tail = self.runs.len().saturating_sub(5);
        if !self.runs.is_empty() {
            let _ = writeln!(out, "recent runs:");
        }
        for r in &self.runs[tail..] {
            // Decode-cache effectiveness, when the run sampled it.
            let cache = match (cache_hits(r), r.counter(CACHE_MISSES)) {
                (Some(h), Some(m)) if h + m > 0 => {
                    format!(
                        " cache={:.0}% hit ({h}h/{m}m/{}e)",
                        h as f64 * 100.0 / (h + m) as f64,
                        r.counter(CACHE_EVICTIONS).unwrap_or(0)
                    )
                }
                _ => String::new(),
            };
            let (binary, benchmark, machine, threads) = r.key();
            let _ = writeln!(
                out,
                "  {binary}/{benchmark} on {machine} t{threads} [{}] rate={}{cache}",
                r.entry().code_version,
                r.run_rate().map_or("n/a".to_owned(), |v| format!("{v:.0} pts/s")),
            );
        }
        out
    }

    /// Render the frame as a Prometheus-style text exposition
    /// (`# HELP` / `# TYPE` headers, one labeled sample per line).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let series_labels = |s: &SeriesState| {
            format!(
                "run_id=\"{}\",run=\"{}\",metric=\"{}\",config=\"{}\",seq=\"{}\"",
                escape_label(&s.run_id),
                escape_label(&s.run),
                escape_label(&s.metric),
                s.config.map_or(String::new(), |c| c.to_string()),
                s.seq
            )
        };
        let mut gauge = |name: &str, help: &str, rows: Vec<(String, String)>| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, value) in rows {
                let _ = writeln!(out, "{name}{{{labels}}} {value}");
            }
        };
        let rows = |f: &dyn Fn(&SeriesState) -> String| -> Vec<(String, String)> {
            self.series.iter().map(|s| (series_labels(s), f(s))).collect()
        };
        gauge(
            "spectral_progress_points",
            "Points merged into the running estimate.",
            rows(&|s| s.n.to_string()),
        );
        gauge("spectral_progress_mean", "Running mean.", rows(&|s| number(s.mean)));
        gauge(
            "spectral_progress_rel_half_width",
            "Relative CI half-width at the policy confidence.",
            rows(&|s| number(s.rel_half_width)),
        );
        gauge(
            "spectral_progress_target_rel_err",
            "The policy's relative-error target.",
            rows(&|s| number(s.target_rel_err)),
        );
        gauge(
            "spectral_progress_eligible",
            "Early-termination eligibility (1 = eligible).",
            rows(&|s| if s.eligible { "1" } else { "0" }.to_owned()),
        );
        gauge(
            "spectral_shard_busy_spread",
            "(max-min)/max over per-worker busy time, once the run's workers finish.",
            self.series
                .iter()
                .filter_map(|s| Some((series_labels(s), number(s.busy_spread?))))
                .collect(),
        );
        gauge(
            "spectral_anomalies",
            "Anomalous live-points observed in the series' run.",
            rows(&|s| s.anomalies.to_string()),
        );
        let run_labels = |r: &RegistryRun| {
            let (binary, benchmark, machine, threads) = r.key();
            format!(
                "run_id=\"{}\",binary=\"{}\",benchmark=\"{}\",machine=\"{}\",\
                 threads=\"{threads}\",code_version=\"{}\"",
                escape_label(&r.entry().run_id),
                escape_label(&binary),
                escape_label(&benchmark),
                escape_label(&machine),
                escape_label(&r.entry().code_version),
            )
        };
        let run_rows = |f: &dyn Fn(&RegistryRun) -> Option<String>| -> Vec<(String, String)> {
            self.runs.iter().filter_map(|r| Some((run_labels(r), f(r)?))).collect()
        };
        gauge(
            "spectral_run_rate",
            "Run throughput in points per second.",
            run_rows(&|r| r.run_rate().map(number)),
        );
        gauge(
            "spectral_cache_hits",
            "Decoded-point cache hits over the run (core.lib.cache_hits).",
            run_rows(&|r| cache_hits(r).map(|v| v.to_string())),
        );
        gauge(
            "spectral_cache_misses",
            "Decoded-point cache misses over the run (core.lib.cache_misses).",
            run_rows(&|r| r.counter(CACHE_MISSES).map(|v| v.to_string())),
        );
        gauge(
            "spectral_cache_evictions",
            "Decoded-point cache evictions over the run (core.lib.cache_evictions).",
            run_rows(&|r| r.counter(CACHE_EVICTIONS).map(|v| v.to_string())),
        );
        gauge(
            "spectral_cache_hit_ratio",
            "Decoded-point cache hits over hits plus misses.",
            run_rows(&|r| match (cache_hits(r)?, r.counter(CACHE_MISSES)?) {
                (0, 0) => None,
                (h, m) => Some(number(h as f64 / (h + m) as f64)),
            }),
        );
        if !self.runs.is_empty() {
            let _ = writeln!(out, "# HELP spectral_runs_total Indexed runs seen.");
            let _ = writeln!(out, "# TYPE spectral_runs_total gauge");
            let _ = writeln!(out, "spectral_runs_total {}", self.runs.len());
        }
        out
    }
}

/// Read the streams of the latest run per tuple, the only runs whose
/// series a registry frame shows.
///
/// # Errors
///
/// A diagnostic naming a stream that cannot be read or parsed.
pub fn load_latest_streams(runs: &mut [RegistryRun]) -> Result<(), DoctorError> {
    latest(runs).into_iter().try_for_each(|i| runs[i].load_stream())
}

/// The index of the latest run of each tuple, in tuple order.
fn latest(runs: &[RegistryRun]) -> Vec<usize> {
    let mut latest = BTreeMap::new();
    for (i, r) in runs.iter().enumerate() {
        latest.insert(r.key(), i);
    }
    latest.into_values().collect()
}

const CACHE_HITS: &str = "core.lib.cache_hits";
const CACHE_MISSES: &str = "core.lib.cache_misses";
const CACHE_EVICTIONS: &str = "core.lib.cache_evictions";

/// A run's decode-cache hits. A counter registers on its first
/// increment, so a run that never hit has misses but no hits counter:
/// that is 0 hits, not an unsampled cache.
fn cache_hits(r: &RegistryRun) -> Option<u64> {
    r.counter(CACHE_HITS).or_else(|| r.counter(CACHE_MISSES).map(|_| 0))
}

/// The latest sample of every series [`analyze`](crate::analyze) finds
/// in `artifacts`, with the anomalies of its run.
fn series_states(artifacts: &RunArtifacts) -> Vec<SeriesState> {
    let diagnosis = crate::analyze(artifacts);
    diagnosis
        .series
        .iter()
        .filter_map(|s| {
            let last = s.last()?;
            let anomalies = diagnosis
                .anomalies
                .iter()
                .filter(|a| a.run_id == s.run_id && a.seq == s.seq && a.run == s.run)
                .count();
            Some(SeriesState {
                run_id: s.run_id.clone(),
                seq: s.seq,
                run: s.run.clone(),
                metric: s.metric.clone(),
                config: s.config,
                n: last.n,
                mean: last.mean,
                rel_half_width: last.rel_half_width,
                target_rel_err: s.target_rel_err,
                eligible: last.eligible,
                workers: s.shards.workers.len(),
                busy_spread: (!s.shards.busy.is_empty()).then_some(s.shards.busy_imbalance),
                anomalies: anomalies as u64,
            })
        })
        .collect()
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame of a stream's complete lines, as the watch loop
    /// builds it.
    fn frame(stream: &str) -> WatchFrame {
        let artifacts = RunArtifacts::parse(None, complete_lines(stream)).expect("valid lines");
        WatchFrame::from_artifacts(&artifacts)
    }

    const STREAM: &str = concat!(
        "{\"type\":\"progress\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"worker\":0,\"n\":8,\"mean\":1.52,\"rel_half_width\":0.4,\
         \"target_rel_err\":0.1,\"eligible\":false}\n",
        "{\"type\":\"span\",\"name\":\"decode\",\"t_us\":5,\"dur_us\":2}\n",
        "{\"type\":\"progress\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"worker\":1,\"n\":16,\"mean\":1.48,\"rel_half_width\":0.2,\
         \"target_rel_err\":0.1,\"eligible\":false}\n",
        "{\"type\":\"anomaly\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\"run\":\"online\",\
         \"worker\":0,\"point\":3}\n",
        "{\"type\":\"progress\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"worker\":0,\"n\":40,\"mean\":1.372,\"rel_half_width\":0.08,\
         \"target_rel_err\":0.1,\"eligible\":true}\n",
    );

    /// The two workers' records, written as they finish: busy time
    /// (prefetch_wait + decode + simulate) 2000 and 1000 ns.
    const WORKERS: &str = concat!(
        "{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":0,\"t_us\":1,\"dur_us\":9,\"recorded\":4,\
         \"phases\":{\"claim\":{\"count\":1,\"ns\":50},\"decode\":{\"count\":1,\"ns\":500},\
         \"simulate\":{\"count\":20,\"ns\":1500}}}\n",
        "{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":1,\"t_us\":1,\"dur_us\":9,\"recorded\":3,\
         \"phases\":{\"prefetch_wait\":{\"count\":1,\"ns\":200},\
         \"simulate\":{\"count\":20,\"ns\":800}}}\n",
    );

    /// A line mid-append: held back, not fatal.
    const PARTIAL: &str = "{\"type\":\"progress\",\"run_id\":\"aaaa0000";

    #[test]
    fn frame_distills_the_latest_state_per_series() {
        let frame = frame(&format!("{STREAM}{WORKERS}{PARTIAL}"));
        assert_eq!(frame.series.len(), 1);
        let s = &frame.series[0];
        assert_eq!(s.run_id, "aaaa000000000001-1");
        assert_eq!((s.n, s.eligible), (40, true));
        assert!((s.mean - 1.372).abs() < 1e-12);
        assert_eq!(s.workers, 2);
        assert_eq!(s.busy_spread, Some(0.5), "(2000-1000)/2000");
        assert_eq!(s.anomalies, 1);
        let dash = frame.dashboard();
        assert!(dash.contains("ELIGIBLE"), "{dash}");
        assert!(dash.contains("n=40"), "{dash}");
        assert!(dash.contains("workers=2 busy-spread=50%"), "{dash}");
    }

    #[test]
    fn a_running_series_has_no_shard_balance_yet() {
        let frame = frame(&format!("{STREAM}{PARTIAL}"));
        let s = &frame.series[0];
        assert_eq!((s.n, s.workers, s.busy_spread), (40, 0, None));
        let dash = frame.dashboard();
        assert!(dash.contains("workers=n/a busy-spread=n/a"), "{dash}");
        let prom = frame.prometheus();
        assert!(!prom.contains("spectral_shard_busy_spread"), "no sample, not 0: {prom}");
        assert!(prom.contains("spectral_progress_points{"), "{prom}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let frame = frame(&format!("{STREAM}{WORKERS}{PARTIAL}"));
        let prom = frame.prometheus();
        assert!(
            prom.contains(
                "spectral_progress_points{run_id=\"aaaa000000000001-1\",run=\"online\",\
                 metric=\"cpi\",config=\"\",seq=\"1\"} 40"
            ),
            "{prom}"
        );
        assert!(prom.contains("# TYPE spectral_progress_eligible gauge"), "{prom}");
        assert!(prom.contains("spectral_progress_eligible{") && prom.contains("} 1"), "{prom}");
        // Every non-comment line is `name{labels} value` or `name value`
        // with a parseable float value.
        for line in prom.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable sample: {line}");
            if let Some(open) = line.find('{') {
                assert!(line[open..].contains('}'), "unterminated labels: {line}");
            }
        }
    }

    #[test]
    fn tail_survives_truncation_and_rotation() {
        let path =
            std::env::temp_dir().join(format!("spectral_watch_tail_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut tail = EventsTail::new(&path);
        // Missing file: empty frame, not an error.
        assert_eq!(tail.poll(), "");
        // Appends accumulate incrementally.
        std::fs::write(&path, "line-1\n").unwrap();
        assert_eq!(tail.poll(), "line-1\n");
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut f, b"line-2\n").unwrap();
        drop(f);
        assert_eq!(tail.poll(), "line-1\nline-2\n");
        // Truncation mid-tail: shorter file ⇒ re-seek to 0, no stale mix.
        std::fs::write(&path, "new-1\n").unwrap();
        assert_eq!(tail.poll(), "new-1\n");
        // Rotation: the file vanishes, then a new one appears.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(tail.poll(), "");
        std::fs::write(&path, "rotated-1\n").unwrap();
        assert_eq!(tail.poll(), "rotated-1\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn registry_frames_surface_runs_and_convergence() {
        use crate::test_support::{manifest, registry_run};
        // Two workers whose busy times spread (2000 - 600) / 2000.
        let worker = |worker: u64, busy: u64| {
            format!(
                "{{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
                 \"run\":\"online\",\"worker\":{worker},\"t_us\":1,\"dur_us\":9,\
                 \"recorded\":1,\"phases\":{{\"simulate\":{{\"count\":20,\"ns\":{busy}}}}}}}\n"
            )
        };
        let progress = "{\"type\":\"progress\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
                        \"run\":\"online\",\"metric\":\"cpi\",\"worker\":1,\"n\":40,\
                        \"mean\":1.372,\"rel_half_width\":0.0299,\"target_rel_err\":0.03,\
                        \"eligible\":true}\n";
        let stream = [progress.to_owned(), worker(0, 2_000), worker(1, 600)].concat();
        let mut r =
            registry_run("dev", 1_000, manifest("online", 1_000, 0.5, 1.372, 0.041), &stream);
        r.entry.run_id = "aaaa000000000001-1".into();
        for (name, v) in [(CACHE_HITS, 750), (CACHE_MISSES, 250), (CACHE_EVICTIONS, 10)] {
            r.artifacts.counters.insert(name.to_owned(), v);
        }
        let frame = WatchFrame::from_registry(vec![r]);
        assert_eq!(frame.series.len(), 1);
        assert_eq!(frame.series[0].workers, 2);
        assert!((frame.series[0].busy_spread.expect("both workers finished") - 0.7).abs() < 1e-12);
        let prom = frame.prometheus();
        assert!(prom.contains("spectral_run_rate{"), "{prom}");
        assert!(prom.contains("spectral_runs_total 1"), "{prom}");
        // Decode-cache effectiveness is exported with HELP/TYPE headers.
        assert!(prom.contains("# HELP spectral_cache_hits "), "{prom}");
        assert!(prom.contains("# TYPE spectral_cache_hits gauge"), "{prom}");
        assert!(prom.contains("spectral_cache_hits{") && prom.contains("} 750"), "{prom}");
        assert!(prom.contains("# TYPE spectral_cache_hit_ratio gauge"), "{prom}");
        assert!(prom.contains("} 0.75"), "{prom}");
        // Every exported sample family carries HELP and TYPE lines.
        for line in prom.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().expect("sample name");
            assert!(prom.contains(&format!("# HELP {name} ")), "no HELP for {name}: {prom}");
            assert!(prom.contains(&format!("# TYPE {name} gauge")), "no TYPE for {name}: {prom}");
        }
        let dash = frame.dashboard();
        assert!(dash.contains("recent runs:"), "{dash}");
        assert!(dash.contains("rate=2000 pts/s"), "{dash}");
        assert!(dash.contains("cache=75% hit (750h/250m/10e)"), "{dash}");
    }

    #[test]
    fn a_run_that_never_hit_shows_a_zero_hit_rate() {
        use crate::test_support::{manifest, registry_run};
        let mut r = registry_run("dev", 1_000, manifest("online", 1_000, 0.5, 1.372, 0.041), "");
        // No `core.lib.cache_hits`: the counter never registered.
        for (name, v) in [(CACHE_MISSES, 5538), (CACHE_EVICTIONS, 5282)] {
            r.artifacts.counters.insert(name.to_owned(), v);
        }
        let frame = WatchFrame::from_registry(vec![r]);
        let dash = frame.dashboard();
        assert!(dash.contains("cache=0% hit (0h/5538m/5282e)"), "{dash}");
        let prom = frame.prometheus();
        let sample = |name: &str| {
            prom.lines()
                .find(|l| l.starts_with(&format!("{name}{{")))
                .and_then(|l| l.rsplit_once(' '))
                .map(|(_, v)| v.to_owned())
        };
        assert_eq!(sample("spectral_cache_hits").as_deref(), Some("0"), "{prom}");
        assert_eq!(sample("spectral_cache_hit_ratio").as_deref(), Some("0"), "{prom}");
        assert_eq!(sample("spectral_cache_misses").as_deref(), Some("5538"), "{prom}");
    }
}
