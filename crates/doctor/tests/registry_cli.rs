//! CLI-level tests for the registry-backed subcommands: `trend` renders
//! a trajectory from an on-disk registry, `gate` turns baseline vs
//! candidate run-sets into exit codes CI can branch on, and `watch
//! --once --prom` emits a parseable Prometheus text exposition.
//!
//! Runs are synthesized as run directories with controlled run rates,
//! indexed through the `spectral-registry` API, so regression verdicts
//! are deterministic; the companion test in
//! `crates/experiments/tests/registry.rs` covers the same registry
//! populated by real experiment invocations.

use std::path::PathBuf;
use std::process::Command;

use spectral_registry::Registry;
use spectral_telemetry::{JsonValue, RunDir, RunManifest};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spectral_doctor_cli_{}_{name}", std::process::id()))
}

/// One synthetic online run with a controlled throughput: 1000 points
/// in one `run` phase of `1000 / rate` seconds, indexed under
/// `code_version` at `unix_ms`.
struct Run {
    code_version: &'static str,
    seq: u64,
    rate: f64,
    unix_ms: u64,
}

fn record(code_version: &'static str, seq: u64, rate: f64, unix_ms: u64) -> Run {
    Run { code_version, seq, rate, unix_ms }
}

/// A fresh registry at `dir` holding `runs`, each in its own run
/// directory under `runs/`.
fn build_registry(dir: &PathBuf, runs: &[Run]) -> Registry {
    let _ = std::fs::remove_dir_all(dir);
    let registry = Registry::open(dir).expect("open registry");
    for r in runs {
        let run_id = format!("{:016x}-{}", 0xfeed_0000_0000_0000u64 | r.seq, r.seq);
        let mut m = RunManifest::new("online", "gcc-like", "8-wide", 4);
        m.run_id = Some(run_id.clone());
        m.seed = Some(42);
        m.points_processed = Some(1000);
        m.phase("run", 1000.0 / r.rate);
        let run = registry.new_run(&run_id);
        std::fs::create_dir_all(run.root()).expect("create run directory");
        m.write(run.manifest(), None).expect("write manifest");
        std::fs::write(run.stream(), "").expect("write stream");
        let mut entry = registry.entry(run_id, &run).expect("index entry");
        entry.code_version = r.code_version.to_owned();
        entry.unix_ms = r.unix_ms;
        registry.append(&entry).expect("append index line");
    }
    registry
}

/// A run stream whose primary series first becomes eligible at `n`
/// points.
fn eligible_stream(run_id: &str, n: u64) -> String {
    format!(
        "{{\"type\":\"progress\",\"run_id\":\"{run_id}\",\"seq\":1,\"run\":\"online\",\
         \"metric\":\"cpi\",\"t_us\":100,\"worker\":0,\"n\":{n},\"mean\":1.2,\
         \"half_width\":0.03,\"rel_half_width\":0.025,\"target_rel_err\":0.03,\
         \"eligible\":true}}\n"
    )
}

fn doctor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spectral-doctor"))
}

#[test]
fn gate_exit_codes_track_the_regression_verdict() {
    let dir = temp_path("gate");
    // Baseline at ~2000 pts/s; candidate within jitter — must pass.
    build_registry(
        &dir,
        &[
            record("baseline", 1, 2000.0, 100),
            record("baseline", 2, 2020.0, 200),
            record("baseline", 3, 1990.0, 300),
            record("candidate", 4, 1995.0, 400),
            record("candidate", 5, 2010.0, 500),
            record("candidate", 6, 2005.0, 600),
        ],
    );
    let out = doctor()
        .args(["gate", "--baseline", "baseline", "--candidate", "candidate"])
        .args(["--max-regress", "10", "--registry"])
        .arg(&dir)
        .output()
        .expect("run gate");
    assert_eq!(
        out.status.code(),
        Some(0),
        "same-rate sets must pass: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // Candidate 25% slower than baseline: regression, exit code 2.
    build_registry(
        &dir,
        &[
            record("baseline", 1, 2000.0, 100),
            record("baseline", 2, 2020.0, 200),
            record("candidate", 3, 1500.0, 300),
            record("candidate", 4, 1510.0, 400),
        ],
    );
    let json = temp_path("gate.json");
    let out = doctor()
        .args(["gate", "--baseline", "baseline", "--candidate", "candidate"])
        .args(["--max-regress", "10", "--registry"])
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(2), "a 25% rate drop must exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).expect("read gate json"))
        .expect("gate --json output parses");
    assert_eq!(doc.get("pass").and_then(JsonValue::as_bool), Some(false));
    assert!(doc.get("failures").and_then(JsonValue::as_arr).is_some_and(|f| !f.is_empty()));

    // A selector that matches nothing is an operational error (exit 1),
    // not a silent pass.
    let out = doctor()
        .args(["gate", "--baseline", "no-such-version", "--candidate", "candidate"])
        .arg("--registry")
        .arg(&dir)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(1), "empty baseline set must be an error");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&json);
}

#[test]
fn trend_renders_a_multi_point_trajectory() {
    let dir = temp_path("trend");
    let registry = build_registry(
        &dir,
        &[
            record("v1", 1, 1800.0, 1_000),
            record("v2", 2, 1900.0, 2_000),
            record("v3", 3, 2100.0, 3_000),
        ],
    );
    // The latest run's stream shows when it converged.
    let latest = registry.load().expect("index loads").remove(2);
    std::fs::write(registry.run_dir(&latest).stream(), eligible_stream(&latest.run_id, 36))
        .expect("write stream");
    let out = doctor().arg("trend").arg("--registry").arg(&dir).output().expect("run trend");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("online"), "series label names the binary: {stdout}");
    assert!(stdout.contains("run rate"), "{stdout}");

    let json = temp_path("trend.json");
    let out = doctor()
        .arg("trend")
        .arg("--registry")
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run trend --json");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).expect("read trend json"))
        .expect("trend --json output parses");
    let series = doc.get("series").and_then(JsonValue::as_arr).expect("series array");
    assert_eq!(series.len(), 1, "one (binary, benchmark, machine, threads) tuple");
    let points = series[0].get("points").and_then(JsonValue::as_arr).expect("points");
    assert_eq!(points.len(), 3, "every record becomes a trajectory point");
    let rates: Vec<f64> =
        points.iter().filter_map(|p| p.get("run_rate").and_then(JsonValue::as_f64)).collect();
    assert_eq!(rates, vec![1800.0, 1900.0, 2100.0], "chronological order");
    let converged: Vec<u64> = points
        .iter()
        .filter_map(|p| p.get("points_to_convergence").and_then(JsonValue::as_u64))
        .collect();
    assert_eq!(converged, vec![1000, 1000, 36], "read from each run's stream");

    // --last trims to the most recent points.
    let out = doctor()
        .args(["trend", "--last", "2", "--registry"])
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run trend --last");
    assert!(out.status.success());
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let points = doc.get("series").and_then(JsonValue::as_arr).unwrap()[0]
        .get("points")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(points.len(), 2);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&json);
}

/// Every non-comment exposition line must be `name{labels} value` (or
/// `name value`) with a finite float value.
fn assert_prometheus_parses(text: &str) -> usize {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = name_part.split('{').next().expect("metric name");
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("non-float value in line: {line}"));
        assert!(v.is_finite(), "non-finite sample in line: {line}");
        samples += 1;
    }
    samples
}

#[test]
fn watch_once_emits_parseable_prometheus_exposition() {
    // Run-directory mode: two progress strides and one anomaly.
    let run = RunDir::new(temp_path("watch_run"));
    std::fs::create_dir_all(run.root()).expect("create run directory");
    let progress = |n: u64, mean: f64| {
        format!(
            "{{\"type\":\"progress\",\"run_id\":\"feed5eed00000001-1\",\"seq\":1,\
             \"run\":\"online\",\"metric\":\"cpi\",\"t_us\":100,\"worker\":0,\"config\":null,\
             \"n\":{n},\"mean\":{mean},\"half_width\":0.05,\"rel_half_width\":0.04,\
             \"target_rel_err\":0.03,\"eligible\":false,\"rel_half_width_95\":0.02,\
             \"eligible_95\":true,\"overshoot\":0}}"
        )
    };
    let anomaly = "{\"type\":\"anomaly\",\"run_id\":\"feed5eed00000001-1\",\"seq\":1,\
                   \"run\":\"online\",\"t_us\":120,\"worker\":0,\"point\":7,\
                   \"detail_start\":0,\"measure_start\":0,\"kinds\":[\"cpi_outlier\"],\
                   \"cpi\":9.0,\"mean\":1.2,\"std_dev\":0.2,\"sigmas\":6.5,\
                   \"decode_ns\":10,\"simulate_ns\":20}";
    let stream = format!("{}\n{}\n{anomaly}\n", progress(20, 1.25), progress(40, 1.22));
    std::fs::write(run.stream(), stream).expect("write stream fixture");

    let prom = temp_path("watch.prom");
    let out = doctor()
        .args(["watch", "--once", "--run"])
        .arg(run.root())
        .arg("--prom")
        .arg(&prom)
        .output()
        .expect("run watch");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("spectral-doctor watch"), "{stdout}");
    assert!(stdout.contains("n=40"), "dashboard shows the latest stride: {stdout}");

    let text = std::fs::read_to_string(&prom).expect("read exposition");
    assert!(text.contains("spectral_progress_points"), "{text}");
    assert!(text.contains("spectral_anomalies"), "{text}");
    assert!(assert_prometheus_parses(&text) >= 5, "several samples expected:\n{text}");

    // Registry mode: indexed runs surface as spectral_run_rate samples.
    let dir = temp_path("watch_registry");
    let registry =
        build_registry(&dir, &[record("v1", 1, 2000.0, 1_000), record("v2", 2, 2100.0, 2_000)]);
    // Series come from the latest run's stream; an older run's stream
    // is not read at all, so not even a garbled one fails the frame.
    let entries = registry.load().expect("index loads");
    std::fs::write(registry.run_dir(&entries[0]).stream(), "not json\n").expect("garble");
    std::fs::write(registry.run_dir(&entries[1]).stream(), eligible_stream(&entries[1].run_id, 36))
        .expect("write stream");
    let out = doctor()
        .args(["watch", "--once", "--registry"])
        .arg(&dir)
        .arg("--prom")
        .arg(&prom)
        .output()
        .expect("run watch --registry");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&prom).expect("read exposition");
    assert!(text.contains("spectral_run_rate"), "{text}");
    assert!(text.contains("spectral_runs_total"), "{text}");
    assert!(assert_prometheus_parses(&text) >= 3, "{text}");
    assert!(text.contains(&format!("spectral_progress_points{{run_id=\"{}\"", entries[1].run_id)));

    let _ = std::fs::remove_dir_all(run.root());
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_works_on_every_subcommand() {
    for sub in [
        &["--help"][..],
        &["analyze", "--help"],
        &["trend", "-h"],
        &["gate", "--help"],
        &["watch", "--help"],
        &["profile", "-h"],
    ] {
        let out = doctor().args(sub).output().expect("run --help");
        assert_eq!(out.status.code(), Some(0), "{sub:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{sub:?}: {stdout}");
        assert!(stdout.contains("spectral-doctor watch"), "usage covers watch: {stdout}");
    }
}

#[test]
fn registry_env_var_substitutes_for_the_flag() {
    let dir = temp_path("env_registry");
    build_registry(&dir, &[record("v1", 1, 2000.0, 1_000), record("v2", 2, 2100.0, 2_000)]);

    let out =
        doctor().arg("trend").env("SPECTRAL_REGISTRY", &dir).output().expect("run trend via env");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("run rate"));

    let out = doctor()
        .args(["watch", "--once"])
        .env("SPECTRAL_REGISTRY", &dir)
        .output()
        .expect("run watch via env");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Without the flag or the variable, the error says how to fix it.
    let out = doctor().arg("trend").env_remove("SPECTRAL_REGISTRY").output().expect("run trend");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SPECTRAL_REGISTRY"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_surfaces_resume_lineage() {
    // A manifest carrying a `resumed_from` note renders a lineage line.
    let run = RunDir::new(temp_path("lineage"));
    std::fs::create_dir_all(run.root()).expect("create run directory");
    let mut m = spectral_telemetry::RunManifest::new("online", "gcc-like", "8", 1);
    m.note("resumed_from", "out/online.ckpt");
    m.write(run.manifest(), None).expect("write manifest");
    std::fs::write(run.stream(), "").expect("write empty stream");

    let out = doctor().args(["analyze", "--run"]).arg(run.root()).output().expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from checkpoint out/online.ckpt"),
        "lineage line expected: {stdout}"
    );

    let _ = std::fs::remove_dir_all(run.root());
}
