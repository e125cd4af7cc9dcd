//! CLI-level tests: `trend` renders a trajectory from an on-disk
//! registry, `gate` turns baseline vs candidate run-sets into exit codes
//! CI can branch on, and `analyze` reads a run directory, finished or
//! still being written.
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

#[test]
fn help_works_on_every_subcommand() {
    for sub in [&["--help"][..], &["analyze", "--help"], &["trend", "-h"], &["gate", "--help"]] {
        let out = doctor().args(sub).output().expect("run --help");
        assert_eq!(out.status.code(), Some(0), "{sub:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{sub:?}: {stdout}");
        for covered in ["analyze", "trend", "gate"] {
            let line = format!("spectral-doctor {covered} ");
            assert!(stdout.contains(&line), "usage covers {covered}: {stdout}");
        }
    }
    // `analyze` carries the wall-clock attribution; there is no other
    // per-run view.
    for sub in [&["watch", "--once"][..], &["watch", "--help"], &["profile", "-h"]] {
        let out = doctor().args(sub).output().expect("run a removed subcommand");
        assert_eq!(out.status.code(), Some(1), "{sub:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{sub:?}: {stderr}");
        assert!(!stderr.contains(&format!("spectral-doctor {} ", sub[0])), "{stderr}");
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
        .args(["gate", "--baseline", "v1", "--candidate", "v2"])
        .env("SPECTRAL_REGISTRY", &dir)
        .output()
        .expect("run gate via env");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // Without the flag or the variable, the error says how to fix it.
    let out = doctor().arg("trend").env_remove("SPECTRAL_REGISTRY").output().expect("run trend");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SPECTRAL_REGISTRY"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A progress record of run `feed5eed00000001-1` at `n` points, as the
/// sink writes it (without its newline).
fn progress(n: u64) -> String {
    format!(
        "{{\"type\":\"progress\",\"run_id\":\"feed5eed00000001-1\",\"seq\":1,\
         \"run\":\"online\",\"metric\":\"cpi\",\"t_us\":100,\"worker\":0,\"config\":null,\
         \"n\":{n},\"mean\":1.25,\"half_width\":0.05,\"rel_half_width\":0.04,\
         \"target_rel_err\":0.03,\"eligible\":false,\"rel_half_width_95\":0.02,\
         \"eligible_95\":true,\"overshoot\":0}}"
    )
}

#[test]
fn analyze_reads_a_live_runs_torn_tail() {
    // A run still going (or killed) can end mid-record: the sink is
    // buffered and writes a record in pieces.
    let run = RunDir::new(temp_path("torn_tail"));
    std::fs::create_dir_all(run.root()).expect("create run directory");
    let anomaly = "{\"type\":\"anomaly\",\"run_id\":\"feed5eed00000001-1\",\"seq\":1,\
                   \"run\":\"online\",\"t_us\":120,\"worker\":0,\"point\":7,";
    let stream = format!("{}\n{}\n{anomaly}", progress(20), progress(40));
    std::fs::write(run.stream(), stream).expect("write stream fixture");

    let out = doctor().args(["analyze", "--run"]).arg(run.root()).output().expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("convergence (online cpi, run #1):"), "{stdout}");
    assert!(stdout.contains("0.0400 → 0.0400 (target 0.0300)"), "{stdout}");
    assert!(stdout.contains("anomalies: 0 total"), "the torn record is not one yet: {stdout}");

    let _ = std::fs::remove_dir_all(run.root());
}

#[test]
fn analyze_names_a_garbled_complete_line() {
    let run = RunDir::new(temp_path("garbled"));
    std::fs::create_dir_all(run.root()).expect("create run directory");
    let stream = format!("{}\n{{\"type\":\"progress\",\"n\":\n{}\n", progress(20), progress(40));
    std::fs::write(run.stream(), stream).expect("write stream fixture");

    let out = doctor().args(["analyze", "--run"]).arg(run.root()).output().expect("run analyze");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("run.jsonl: line 2: "), "{stderr}");

    let _ = std::fs::remove_dir_all(run.root());
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
