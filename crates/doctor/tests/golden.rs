//! End-to-end golden test: run a real seeded online experiment into a
//! run directory, then diagnose it through the doctor library and the
//! `spectral-doctor` binary, goldening the `--json` report shape.
//!
//! Everything lives in one test function: the run stream is a
//! process-wide singleton, so sequential phases share it by starting a
//! new run directory between runs.

use std::path::{Path, PathBuf};
use std::process::Command;

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral_doctor::{analyze, diff_runs, RunArtifacts};
use spectral_telemetry::{JsonValue, RunDir, RunManifest};
use spectral_uarch::MachineConfig;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spectral_doctor_{}_{name}", std::process::id()))
}

/// A fresh run directory with the run stream installed in it.
fn start_run(name: &str) -> RunDir {
    let dir = RunDir::new(temp_path(name));
    let _ = std::fs::remove_dir_all(dir.root());
    dir.start().expect("start run directory");
    dir
}

fn write_manifest(path: &Path, est: &spectral_core::Estimate, library_points: u64) {
    let mut m = RunManifest::new("online", "tiny", "8", 1);
    m.library_points = Some(library_points);
    m.points_processed = Some(est.processed() as u64);
    m.phase("run", 0.25);
    m.set_estimate(est.mean(), est.half_width(), est.reached_target());
    m.write(path, None).expect("write manifest");
}

#[test]
fn seeded_run_diagnoses_end_to_end() {
    let program = spectral_workloads::tiny().build();
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(35);
    let library = LivePointLibrary::create(&program, &cfg).expect("create library");
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    // A loose target the run converges to partway, low sigma so the
    // anomaly stream is populated, and no early stop so points past
    // convergence (wasted work) exist for the doctor to report.
    let policy = RunPolicy {
        target_rel_err: 0.5,
        stop_at_target: false,
        anomaly_sigma: 0.25,
        merge_stride: 4,
        ..RunPolicy::default()
    };

    let run = start_run("run");
    let est = runner.run(&program, &policy).expect("online run");
    spectral_telemetry::flush_stream();
    write_manifest(&run.manifest(), &est, library.len() as u64);
    assert_eq!(est.processed(), library.len(), "stop_at_target=false is exhaustive");
    assert!(est.reached_target(), "a 50% target converges partway");

    // Library-level diagnosis.
    let artifacts = RunArtifacts::load(&run).expect("load artifacts");
    assert!(!artifacts.progress.is_empty(), "merge-stride progress records were emitted");
    let diagnosis = analyze(&artifacts);
    let series = diagnosis.primary().expect("one cpi series");
    assert_eq!((series.run.as_str(), series.metric.as_str()), ("online", "cpi"));
    assert!(series.converged, "final record is eligible at 50%");
    let first = series.first_eligible.expect("converged run has a first-eligible stride");
    assert!(series.trajectory[first].n >= 30, "n >= 30 floor gates eligibility");
    assert!(series.wasted_points > 0, "exhaustive run wastes points past convergence");
    assert!(
        diagnosis.anomalies.len() >= 3,
        "a 0.25 sigma threshold flags several of {} points (got {})",
        est.processed(),
        diagnosis.anomalies.len()
    );
    for a in diagnosis.top_anomalies(3) {
        assert!((a.point as usize) < library.len(), "anomaly carries a library point id");
        assert!(!a.kinds.is_empty());
    }

    // Binary: --json report, golden shape.
    let report = temp_path("report.json");
    let chrome = temp_path("chrome.json");
    let out = Command::new(env!("CARGO_BIN_EXE_spectral-doctor"))
        .args(["analyze", "--run"])
        .arg(run.root())
        .arg("--json")
        .arg(&report)
        .arg("--perfetto")
        .arg(&chrome)
        .arg("--check")
        .output()
        .expect("run spectral-doctor");
    assert!(
        out.status.success(),
        "doctor must pass --check on a converged run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("first eligible at n="), "text report names the stride: {stdout}");
    assert!(stdout.contains("wasted points past convergence"), "{stdout}");

    let doc = JsonValue::parse(&std::fs::read_to_string(&report).expect("read report"))
        .expect("report is valid JSON");
    assert_eq!(doc.get("version").and_then(JsonValue::as_u64), Some(1));
    let series = doc.get("series").and_then(JsonValue::as_arr).expect("series array");
    assert_eq!(series.len(), 1);
    let s = &series[0];
    assert_eq!(s.get("run").and_then(JsonValue::as_str), Some("online"));
    assert_eq!(s.get("metric").and_then(JsonValue::as_str), Some("cpi"));
    assert!(s.get("seq").and_then(JsonValue::as_u64).is_some_and(|v| v >= 1));
    assert!(s.get("shards").and_then(|sh| sh.get("workers")).is_some());
    assert_eq!(s.get("converged").and_then(JsonValue::as_bool), Some(true));
    let first = s.get("first_eligible").expect("first_eligible present");
    assert!(first.get("stride").and_then(JsonValue::as_u64).is_some_and(|v| v >= 1));
    assert!(first.get("n").and_then(JsonValue::as_u64).is_some_and(|v| v >= 30));
    assert!(s.get("wasted_points").and_then(JsonValue::as_u64).is_some_and(|v| v > 0));
    assert!(s.get("trajectory").and_then(JsonValue::as_arr).is_some_and(|t| t.len() >= 2));
    let anomalies = doc.get("anomalies").expect("anomalies section");
    assert!(anomalies.get("total").and_then(JsonValue::as_u64).is_some_and(|v| v >= 3));
    let top = anomalies.get("top").and_then(JsonValue::as_arr).expect("top array");
    assert_eq!(top.len(), 3, "top-3 anomalous points");
    for a in top {
        assert!(a.get("point").and_then(JsonValue::as_u64).is_some());
        assert!(a.get("measure_start").and_then(JsonValue::as_u64).is_some());
    }
    assert_eq!(
        doc.get("check")
            .and_then(|c| c.get("exhausted_without_convergence"))
            .and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(doc.get("diff"), Some(&JsonValue::Null));
    // The wall-clock attribution closes the report: one entry per
    // profiled run (the serial run is profiled too).
    let profile = doc.get("profile").and_then(JsonValue::as_arr).expect("profile array");
    assert_eq!(profile.len(), 1, "one profiled run in the stream");
    assert_eq!(profile.len(), artifacts.profiles.len(), "one entry per profiled run");
    for (entry, run) in profile.iter().zip(&artifacts.profiles) {
        assert_eq!(entry.get("seq").and_then(JsonValue::as_u64), Some(run.seq));
        assert_eq!(entry.get("run").and_then(JsonValue::as_str), Some(run.run.as_str()));
        assert!(entry.get("aggregate").and_then(JsonValue::as_arr).is_some_and(|a| !a.is_empty()));
    }
    assert!(stdout.contains("aggregate attribution"), "{stdout}");

    // Perfetto export carries convergence counters from the events.
    let chrome_doc = JsonValue::parse(&std::fs::read_to_string(&chrome).expect("read chrome"))
        .expect("chrome trace is valid JSON");
    assert!(chrome_doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .is_some_and(|e| !e.is_empty()));

    // Parallel run: shard report sees every worker.
    let par_run = start_run("par_run");
    let par = runner.run_parallel(&program, &policy, 4).expect("parallel run");
    spectral_telemetry::flush_stream();
    write_manifest(&par_run.manifest(), &par, library.len() as u64);
    let par_artifacts = RunArtifacts::load(&par_run).expect("load");
    let par_diag = analyze(&par_artifacts);
    assert_eq!(par_diag.series.len(), 1, "one parallel run, one series");
    let par_shards = &par_diag.primary().expect("parallel series").shards;
    assert_eq!(par_shards.workers.len(), 4, "all four workers wrote their profile record");
    let total: u64 = par_shards.workers.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, library.len() as u64, "shard points partition the library");

    // Two-run diff: same machine twice is within noise.
    let diff = diff_runs(&par_artifacts, &artifacts).expect("diff with manifests");
    assert!(!diff.significant, "same machine twice must not regress");
    assert_eq!(diff.points_delta, Some(0));

    // --check gate: an exhausted, non-converged manifest fails.
    let bad_run = RunDir::new(temp_path("bad_run"));
    std::fs::create_dir_all(bad_run.root()).expect("create run directory");
    std::fs::copy(run.stream(), bad_run.stream()).expect("copy the run stream");
    let mut m = RunManifest::new("online", "tiny", "8", 1);
    m.library_points = Some(library.len() as u64);
    m.points_processed = Some(library.len() as u64);
    m.set_estimate(est.mean(), est.half_width(), false);
    m.write(bad_run.manifest(), None).expect("write manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_spectral-doctor"))
        .args(["analyze", "--run"])
        .arg(bad_run.root())
        .arg("--check")
        .output()
        .expect("run spectral-doctor");
    assert!(!out.status.success(), "--check must fail an exhausted non-converged run");

    for p in [report, chrome] {
        let _ = std::fs::remove_file(p);
    }
    for d in [run, par_run, bad_run] {
        let _ = std::fs::remove_dir_all(d.root());
    }
}
