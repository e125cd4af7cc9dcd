//! `spectral-doctor` — sampling-health analysis and cross-run
//! regression tracking.
//!
//! ```text
//! spectral-doctor analyze --run DIR [--baseline-run DIR]
//!                         [--json report.json] [--perfetto trace.chrome.json]
//!                         [--top N] [--check] [--max-imbalance PCT]
//! spectral-doctor trend   --registry DIR [--json PATH] [--binary NAME]
//!                         [--benchmark NAME] [--machine NAME] [--last N]
//! spectral-doctor gate    --registry DIR [--baseline LABEL] [--candidate LABEL]
//!                         [--max-regress PCT] [--json PATH]
//! spectral-doctor watch   (--run DIR | --registry DIR) [--prom FILE]
//!                         [--interval MS] [--once | --frames N]
//! spectral-doctor profile --run DIR [--json PATH] [--perfetto PATH]
//!                         [--record-cost-ns N]
//! ```
//!
//! `--run DIR` names a run directory an experiment binary wrote with
//! `--out DIR`. `analyze` prints the per-run text diagnosis to stdout
//! (`--json` / `--perfetto` additionally write reports; `--check` exits
//! non-zero on a run that exhausted its library without converging).
//!
//! `trend` renders per-benchmark/per-machine sparkline time series over
//! the runs a registry indexes, each read from its run directory (so
//! `analyze --run <registry>/runs/<id>` works on any of them too);
//! `gate` compares a baseline run-set against a
//! candidate run-set and exits 0 on pass, 2 on regression, 1 on error —
//! the CI contract; `watch` tails a growing run stream or registry
//! directory, redrawing an in-place dashboard each `--interval` and
//! optionally writing a Prometheus-style text exposition to `--prom`;
//! for all three, `--registry` falls back to the `SPECTRAL_REGISTRY`
//! environment variable when the flag is omitted — the same contract
//! the experiment binaries use for appending. `--help` / `-h` prints
//! the usage summary and exits 0 for every subcommand;
//! `profile` attributes each worker's wall-clock to scheduler/decode/
//! simulate/merge phases from the run stream's profile records, reporting
//! contention, stragglers, a critical-path estimate, and the profiler's
//! own overhead (priced at a clock-probe-measured per-record cost, or
//! `--record-cost-ns` for reproducible output).

use std::path::PathBuf;
use std::process::ExitCode;

use spectral_doctor::{
    analyze, analyze_profile, diff_runs, exhausted_without_convergence, gate, load_latest_streams,
    load_registry, measure_record_cost_ns, read_stream, render_gate_json, render_gate_text,
    render_json, render_profile_json, render_profile_text, render_text, render_trend_json,
    render_trend_text, trend, DoctorError, EventsTail, GateConfig, RegistryRun, RunArtifacts,
    WatchFrame,
};
use spectral_registry::registry_dir;
use spectral_telemetry::RunDir;

#[derive(Debug, Default)]
struct AnalyzeCli {
    run: Option<RunDir>,
    baseline_run: Option<RunDir>,
    json: Option<PathBuf>,
    perfetto: Option<PathBuf>,
    top: usize,
    check: bool,
    max_imbalance: Option<f64>,
}

const USAGE: &str = "spectral-doctor analyze --run DIR [--baseline-run DIR] [--json PATH] \
                     [--perfetto PATH] [--top N] [--check] [--max-imbalance PCT]\n\
                     spectral-doctor trend --registry DIR [--json PATH] [--binary NAME] \
                     [--benchmark NAME] [--machine NAME] [--last N]\n\
                     spectral-doctor gate --registry DIR [--baseline LABEL] \
                     [--candidate LABEL] [--max-regress PCT] [--json PATH]\n\
                     spectral-doctor watch (--run DIR | --registry DIR) [--prom FILE] \
                     [--interval MS] [--once | --frames N]\n\
                     spectral-doctor profile --run DIR [--json PATH] [--perfetto PATH] \
                     [--record-cost-ns N]";

/// A flag-value iterator shared by every subcommand parser.
struct Args<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Args<'a> {
        Args { it: argv.iter() }
    }

    fn next(&mut self) -> Option<&'a String> {
        self.it.next()
    }

    fn value(&mut self, flag: &str) -> Result<&'a String, DoctorError> {
        self.it.next().ok_or_else(|| DoctorError::msg(format!("{flag} needs a value")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, DoctorError> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| DoctorError::msg(format!("{flag}: expected {what}, got {v}")))
    }
}

fn parse_analyze(argv: &[String]) -> Result<AnalyzeCli, DoctorError> {
    let mut cli = AnalyzeCli { top: 3, ..AnalyzeCli::default() };
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--run" => cli.run = Some(RunDir::new(args.value("--run")?)),
            "--baseline-run" => cli.baseline_run = Some(RunDir::new(args.value("--baseline-run")?)),
            "--json" => cli.json = Some(PathBuf::from(args.value("--json")?)),
            "--perfetto" => cli.perfetto = Some(PathBuf::from(args.value("--perfetto")?)),
            "--top" => cli.top = args.parsed("--top", "an integer")?,
            "--check" => cli.check = true,
            "--max-imbalance" => {
                let pct: f64 = args.parsed("--max-imbalance", "a percentage")?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(DoctorError::msg(format!(
                        "--max-imbalance: percentage must be in 0..=100, got {pct}"
                    )));
                }
                cli.max_imbalance = Some(pct);
            }
            other => {
                return Err(DoctorError::msg(format!("unknown argument {other}\nusage: {USAGE}")))
            }
        }
    }
    if cli.run.is_none() {
        return Err(DoctorError::msg(format!("--run is required\nusage: {USAGE}")));
    }
    if cli.max_imbalance.is_some() && !cli.check {
        return Err(DoctorError::msg("--max-imbalance only applies with --check"));
    }
    Ok(cli)
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), DoctorError> {
    std::fs::write(path, text)
        .map_err(|e| DoctorError::msg(format!("cannot write {}: {e}", path.display())))
}

/// Convert a run stream into a Chrome trace at `path`: spans,
/// convergence counters, anomaly instants, and each worker's lifetime
/// under its run bracket.
fn write_perfetto(path: &PathBuf, stream: &str) -> Result<(), DoctorError> {
    let chrome = spectral_telemetry::chrome_trace(stream)
        .map_err(|e| DoctorError::msg(format!("cannot convert trace: {}", e.message)))?;
    write_file(path, &chrome)
}

fn run_analyze(cli: &AnalyzeCli) -> Result<Vec<String>, DoctorError> {
    let run = cli.run.as_ref().expect("validated in parse_analyze");
    let artifacts = RunArtifacts::load(run)?;
    if cli.check && artifacts.manifest.is_none() {
        return Err(DoctorError::msg(format!(
            "--check needs {} (the convergence verdict); did the run finish?",
            run.manifest().display()
        )));
    }
    let diagnosis = analyze(&artifacts);

    let diff = match &cli.baseline_run {
        Some(base) => Some(diff_runs(&artifacts, &RunArtifacts::load(base)?)?),
        None => None,
    };

    print!("{}", render_text(&diagnosis, artifacts.manifest.as_ref(), diff.as_ref(), cli.top));

    if let Some(path) = &cli.json {
        write_file(
            path,
            &render_json(&diagnosis, artifacts.manifest.as_ref(), diff.as_ref(), cli.top),
        )?;
    }
    if let Some(path) = &cli.perfetto {
        write_perfetto(path, &read_stream(run)?)?;
    }

    let mut failures: Vec<String> = Vec::new();
    if cli.check {
        if artifacts.manifest.as_ref().is_some_and(exhausted_without_convergence) {
            failures.push("library exhausted without convergence".to_owned());
        }
        if let Some(pct) = cli.max_imbalance {
            // Busy time is the scheduler-quality signal: point counts
            // can balance while busy time does not.
            for s in &diagnosis.series {
                let spread = s.shards.busy_imbalance;
                if spread * 100.0 > pct {
                    failures.push(format!(
                        "{} {} worker busy-time imbalance {:.1}% exceeds --max-imbalance {pct}%",
                        s.run,
                        s.metric,
                        spread * 100.0
                    ));
                }
            }
        }
    }
    Ok(failures)
}

fn analyze_main(argv: &[String]) -> ExitCode {
    match parse_analyze(argv).and_then(|cli| run_analyze(&cli)) {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            for f in &failures {
                eprintln!("spectral-doctor: check failed: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("spectral-doctor: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn registry_runs(cli: Option<&PathBuf>) -> Result<Vec<RegistryRun>, DoctorError> {
    let dir = registry_dir(cli.map(PathBuf::as_path)).ok_or_else(|| {
        DoctorError::msg(format!("--registry is required (or set SPECTRAL_REGISTRY)\n{USAGE}"))
    })?;
    load_registry(&dir)
}

fn trend_main(argv: &[String]) -> ExitCode {
    let run = || -> Result<(), DoctorError> {
        let mut registry = None;
        let mut json = None;
        let (mut binary, mut benchmark, mut machine) = (None, None, None);
        let mut last: Option<usize> = None;
        let mut args = Args::new(argv);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--registry" => registry = Some(PathBuf::from(args.value("--registry")?)),
                "--json" => json = Some(PathBuf::from(args.value("--json")?)),
                "--binary" => binary = Some(args.value("--binary")?.clone()),
                "--benchmark" => benchmark = Some(args.value("--benchmark")?.clone()),
                "--machine" => machine = Some(args.value("--machine")?.clone()),
                "--last" => last = Some(args.parsed("--last", "an integer")?),
                other => {
                    return Err(DoctorError::msg(format!("unknown argument {other}\n{USAGE}")))
                }
            }
        }
        let mut runs = registry_runs(registry.as_ref())?;
        runs.retain(|r| {
            let m = r.manifest();
            binary.as_ref().is_none_or(|b| &m.binary == b)
                && benchmark.as_ref().is_none_or(|b| &m.benchmark == b)
                && machine.as_ref().is_none_or(|name| &m.machine == name)
        });
        runs.iter_mut().try_for_each(RegistryRun::load_stream)?;
        let mut series = trend(&runs);
        if let Some(n) = last {
            for s in &mut series {
                let drop = s.points.len().saturating_sub(n);
                s.points.drain(..drop);
            }
        }
        print!("{}", render_trend_text(&series));
        if let Some(path) = &json {
            write_file(path, &render_trend_json(&series))?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spectral-doctor trend: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn gate_main(argv: &[String]) -> ExitCode {
    let run = || -> Result<bool, DoctorError> {
        let mut registry = None;
        let mut json = None;
        let mut cfg = GateConfig::default();
        let mut args = Args::new(argv);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--registry" => registry = Some(PathBuf::from(args.value("--registry")?)),
                "--baseline" => cfg.baseline = args.value("--baseline")?.clone(),
                "--candidate" => cfg.candidate = args.value("--candidate")?.clone(),
                "--max-regress" => {
                    cfg.max_regress = args.parsed("--max-regress", "a percentage")?;
                    if !(0.0..=100.0).contains(&cfg.max_regress) {
                        return Err(DoctorError::msg(format!(
                            "--max-regress: percentage must be in 0..=100, got {}",
                            cfg.max_regress
                        )));
                    }
                }
                "--json" => json = Some(PathBuf::from(args.value("--json")?)),
                other => {
                    return Err(DoctorError::msg(format!("unknown argument {other}\n{USAGE}")))
                }
            }
        }
        let verdict = gate(&registry_runs(registry.as_ref())?, &cfg)?;
        print!("{}", render_gate_text(&verdict, &cfg));
        if let Some(path) = &json {
            write_file(path, &render_gate_json(&verdict, &cfg))?;
        }
        Ok(verdict.pass())
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // Exit 2 distinguishes "a regression was detected" from
        // "the gate itself failed to run" (exit 1) for CI pipelines.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("spectral-doctor gate: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn watch_main(argv: &[String]) -> ExitCode {
    let run = || -> Result<(), DoctorError> {
        let mut dir: Option<RunDir> = None;
        let mut registry: Option<PathBuf> = None;
        let mut prom: Option<PathBuf> = None;
        let mut interval_ms: u64 = 1_000;
        let mut frames: Option<u64> = None;
        let mut args = Args::new(argv);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--run" => dir = Some(RunDir::new(args.value("--run")?)),
                "--registry" => registry = Some(PathBuf::from(args.value("--registry")?)),
                "--prom" => prom = Some(PathBuf::from(args.value("--prom")?)),
                "--interval" => interval_ms = args.parsed("--interval", "milliseconds")?,
                "--once" => frames = Some(1),
                "--frames" => frames = Some(args.parsed("--frames", "an integer")?),
                other => {
                    return Err(DoctorError::msg(format!("unknown argument {other}\n{USAGE}")))
                }
            }
        }
        // With neither source flag given, fall back to the
        // SPECTRAL_REGISTRY environment variable like trend/gate do.
        let registry =
            if dir.is_none() && registry.is_none() { registry_dir(None) } else { registry };
        if dir.is_some() == registry.is_some() {
            return Err(DoctorError::msg(
                "watch needs exactly one of --run DIR or --registry DIR \
                 (or the SPECTRAL_REGISTRY environment variable)",
            ));
        }
        let total = frames.unwrap_or(u64::MAX);
        let in_place = total > 1;
        // Incremental tail over the run stream: each frame reads only
        // appended bytes, and a truncated or rotated file re-seeks
        // instead of erroring — a run that hasn't produced the stream
        // yet is an empty frame, because watch outlives writers.
        let mut tail = dir.map(|r| (EventsTail::new(r.stream()), r.stream()));
        for i in 0..total {
            let frame = match (&mut tail, &registry) {
                (Some((tail, path)), None) => {
                    let artifacts = RunArtifacts::parse(None, tail.poll())
                        .map_err(|e| DoctorError::msg(format!("{}: {e}", path.display())))?;
                    WatchFrame::from_artifacts(&artifacts)
                }
                (None, Some(dir)) => {
                    let mut runs = load_registry(dir)?;
                    load_latest_streams(&mut runs)?;
                    WatchFrame::from_registry(runs)
                }
                _ => unreachable!("validated above"),
            };
            if in_place {
                // Clear + home, then redraw over the previous frame.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", frame.dashboard());
            if let Some(path) = &prom {
                write_file(path, &frame.prometheus())?;
            }
            if i + 1 < total {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spectral-doctor watch: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile_main(argv: &[String]) -> ExitCode {
    let run = || -> Result<(), DoctorError> {
        let mut dir: Option<RunDir> = None;
        let mut json: Option<PathBuf> = None;
        let mut perfetto: Option<PathBuf> = None;
        let mut record_cost_ns: Option<u64> = None;
        let mut args = Args::new(argv);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--run" => dir = Some(RunDir::new(args.value("--run")?)),
                "--json" => json = Some(PathBuf::from(args.value("--json")?)),
                "--perfetto" => perfetto = Some(PathBuf::from(args.value("--perfetto")?)),
                "--record-cost-ns" => {
                    record_cost_ns = Some(args.parsed("--record-cost-ns", "nanoseconds")?);
                }
                other => {
                    return Err(DoctorError::msg(format!("unknown argument {other}\n{USAGE}")))
                }
            }
        }
        let dir = dir.ok_or_else(|| DoctorError::msg(format!("--run is required\n{USAGE}")))?;
        let text = read_stream(&dir)?;
        let runs = RunArtifacts::parse(None, &text)
            .map_err(|e| DoctorError::msg(format!("{}: {e}", dir.stream().display())))?
            .profiles;
        if runs.is_empty() {
            return Err(DoctorError::msg(format!(
                "{}: no profile records (built without telemetry?)",
                dir.stream().display()
            )));
        }
        let cost = record_cost_ns.unwrap_or_else(measure_record_cost_ns);
        let reports: Vec<_> = runs.iter().map(|r| analyze_profile(r, cost)).collect();
        for report in &reports {
            print!("{}", render_profile_text(report));
        }
        if let Some(path) = &json {
            write_file(path, &render_profile_json(&reports))?;
        }
        if let Some(out) = &perfetto {
            write_perfetto(out, &text)?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spectral-doctor profile: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` / `-h` works uniformly on every subcommand (and bare):
    // print the usage summary to stdout and exit 0.
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {USAGE}");
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("analyze") => analyze_main(&argv[1..]),
        Some("trend") => trend_main(&argv[1..]),
        Some("gate") => gate_main(&argv[1..]),
        Some("watch") => watch_main(&argv[1..]),
        Some("profile") => profile_main(&argv[1..]),
        _ => {
            eprintln!("spectral-doctor: error: expected a subcommand\nusage: {USAGE}");
            ExitCode::FAILURE
        }
    }
}
