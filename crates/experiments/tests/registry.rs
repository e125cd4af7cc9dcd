//! End-to-end registry population: two real seeded `online` invocations
//! with `--registry` leave two indexed run directories, and the
//! `doctor trend` machinery renders a two-point trajectory from them.
//! This is the acceptance path for cross-run perf tracking; the
//! deterministic exit-code tests live in
//! `crates/doctor/tests/registry_cli.rs`. A run directory reused by a
//! later run never reports that run under the first run's label.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use spectral_registry::{CODE_VERSION_ENV, REGISTRY_ENV};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spectral_exp_{}_{name}", std::process::id()))
}

#[test]
fn two_online_invocations_build_a_queryable_trend() {
    let dir = temp_dir("registry");
    let _ = std::fs::remove_dir_all(&dir);

    // Same seeded quick configuration twice, labeled baseline/candidate
    // the way CI's registry-gate job stamps run-sets.
    for version in ["baseline", "candidate"] {
        let out = Command::new(env!("CARGO_BIN_EXE_online"))
            .args(["--quick", "--windows", "40", "--target", "10", "--registry"])
            .arg(&dir)
            .env(CODE_VERSION_ENV, version)
            .output()
            .expect("run online");
        assert!(
            out.status.success(),
            "online --registry failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut runs = spectral_doctor::load_registry(&dir).expect("load registry");
    assert_eq!(runs.len(), 2, "one indexed run per invocation");
    assert_ne!(runs[0].entry().run_id, runs[1].entry().run_id, "run ids are collision-resistant");
    assert_ne!(runs[0].entry().dir, runs[1].entry().dir, "one run directory per invocation");
    for (r, version) in runs.iter().zip(["baseline", "candidate"]) {
        assert!(r.entry().dir.starts_with("runs"), "{:?} lies under the registry", r.entry().dir);
        assert_eq!(r.entry().code_version, version, "SPECTRAL_CODE_VERSION labels the run-set");
        assert_eq!(
            r.manifest().run_id.as_deref(),
            Some(r.entry().run_id.as_str()),
            "manifest and index agree on the run id"
        );
        assert_eq!(r.manifest().binary, "online");
        assert!(r.run_rate().is_some_and(|rate| rate > 0.0), "run phases yield a throughput");
        assert_eq!(r.manifest().points_processed, Some(40), "early-termination pass hit the cap");
        assert!(r.manifest().estimate.is_some());
        assert!(r.artifacts().progress.is_empty(), "the stream is read on request only");
    }
    for r in &mut runs {
        r.load_stream().expect("the run stream reads");
        let diagnosis = spectral_doctor::analyze(r.artifacts());
        assert!(!diagnosis.series.is_empty(), "the run stream carries the convergence");
        let run = spectral_telemetry::RunDir::new(dir.join(&r.entry().dir));
        let full = spectral_doctor::RunArtifacts::load(&run).expect("the run directory loads");
        assert!(!full.profiles.is_empty(), "an online run streams profile records");
        let full = spectral_doctor::analyze(&full);
        for (view, full) in diagnosis.series.iter().zip(&full.series) {
            assert!(!view.shards.workers.is_empty(), "a finished run has a shard report");
            assert_eq!(view.shards, full.shards, "a registry view reads the same shard balance");
        }
        assert_eq!(diagnosis.series.len(), full.series.len());
        let manifest = std::fs::read_to_string(run.manifest()).expect("read the manifest");
        let manifest = spectral_telemetry::JsonValue::parse(&manifest).expect("manifest parses");
        let counters = manifest.get("metrics").and_then(|m| m.get("counters"));
        assert!(
            counters.and_then(|c| c.get("core.run.points")).is_some(),
            "manifest embeds the metrics snapshot"
        );
    }

    // The two invocations form one two-point trend series.
    let series = spectral_doctor::trend(&runs);
    assert_eq!(series.len(), 1, "same binary/benchmark/machine/threads tuple");
    assert_eq!(series[0].points.len(), 2, "two invocations, two trajectory points");
    assert!(series[0].points.iter().all(|p| p.run_rate.is_some()));
    let text = spectral_doctor::render_trend_text(&series);
    assert!(text.contains("run rate"), "{text}");
    assert!(text.contains("2 runs"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One quick `online` run labelled `version`, with extra arguments.
fn online(version: &str, args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_online"))
        .args(["--quick", "--windows", "40", "--target", "10"])
        .args(args)
        .env(CODE_VERSION_ENV, version)
        .env_remove(REGISTRY_ENV)
        .output()
        .expect("run online")
}

#[test]
fn a_reused_out_directory_never_shows_under_the_first_label() {
    let dir = temp_dir("reuse_registry");
    let out = temp_dir("reuse_out");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
    let with_registry =
        [Path::new("--out"), &out, Path::new("--registry"), &dir].map(Path::as_os_str);
    let first = online("first", &with_registry);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let first_run = spectral_doctor::load_registry(&dir).expect("load registry").remove(0);

    // The registry refuses a second run into the directory its line
    // names, before the run clears it.
    let second = online("second", &with_registry);
    assert!(!second.status.success(), "a second run into an indexed --out is refused");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains(&first_run.entry().run_id), "{stderr}");
    let runs = spectral_doctor::load_registry(&dir).expect("the registry still loads");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].entry().code_version, "first");
    assert_eq!(runs[0].manifest().run_id, first_run.manifest().run_id, "the first run is intact");

    // A run that names no registry cannot be refused; the reader then
    // reports the line instead of the new run under the label "first".
    let unindexed = online("second", &[Path::new("--out").as_os_str(), out.as_os_str()]);
    assert!(unindexed.status.success(), "{}", String::from_utf8_lossy(&unindexed.stderr));
    let message = spectral_doctor::load_registry(&dir).expect_err("reused dir").to_string();
    assert!(message.contains(&first_run.entry().run_id), "{message}");
    assert!(message.contains("the manifest of run"), "{message}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}
