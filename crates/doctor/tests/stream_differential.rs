//! Differential test for the run stream: turning it on (spans,
//! sampling-health events and worker-timeline profiles together) must
//! leave a seeded 2-thread online run's estimates bit-identical, the
//! stream must carry exactly one per-worker timing record per worker,
//! and the attribution `spectral-doctor analyze` reports from it must
//! cover ≥95% of run wall-clock.
//!
//! Everything lives in one test function: the run stream is a
//! process-wide singleton and installing it is one-way, so the arm
//! without it has to run first.

use std::process::Command;

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral_doctor::{analyze, analyze_profile, render_text, RunArtifacts};
use spectral_telemetry::{JsonValue, RunDir};
use spectral_uarch::MachineConfig;

#[test]
fn run_stream_is_bit_identical_and_attributes_wall_clock() {
    let program = spectral_workloads::tiny().build();
    // Enough points that the run's fixed costs (thread spawn, join,
    // the deterministic replay) stay well under the 5% unattributed
    // budget even on a contended test host.
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(192);
    let library = LivePointLibrary::create(&program, &cfg).expect("create library");
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    // Exhaustive policy: every live-point is processed regardless of
    // worker interleaving, and the final estimate is the deterministic
    // index-ordered replay — so two runs compare bit for bit.
    let policy = RunPolicy { target_rel_err: 1e-12, stop_at_target: false, ..RunPolicy::default() };

    assert!(!spectral_telemetry::streaming(), "no run stream installed yet");
    let unprofiled = runner.run_parallel(&program, &policy, 2).expect("unprofiled run");

    let dir = RunDir::new(
        std::env::temp_dir().join(format!("spectral_doctor_diff_{}", std::process::id())),
    );
    dir.start().expect("install the run stream");
    assert!(spectral_telemetry::streaming(), "run stream installed");
    let profiled = runner.run_parallel(&program, &policy, 2).expect("profiled run");
    spectral_telemetry::flush_stream();

    // The differential: writing spans, events and profiles must not
    // perturb the estimate in any bit.
    assert_eq!(profiled.processed(), unprofiled.processed());
    assert_eq!(
        profiled.mean().to_bits(),
        unprofiled.mean().to_bits(),
        "the run stream changed the estimate: {} vs {}",
        profiled.mean(),
        unprofiled.mean()
    );
    assert_eq!(
        profiled.half_width().to_bits(),
        unprofiled.half_width().to_bits(),
        "the run stream changed the half-width"
    );

    // Every record kind of the run is in the one stream, and the
    // per-interval ones are gone.
    let text = std::fs::read_to_string(dir.stream()).expect("read run stream");
    let has = |kind: &str| {
        let tag = format!("{{\"type\":\"{kind}\"");
        text.lines().any(|l| l.starts_with(&tag))
    };
    for kind in ["span", "progress", "profile_run", "profile_worker"] {
        assert!(has(kind), "no {kind} record in the stream");
    }
    for kind in ["sched", "profile_phase"] {
        assert!(!has(kind), "a {kind} record in the stream");
    }
    let worker_records =
        text.lines().filter(|l| l.starts_with("{\"type\":\"profile_worker\"")).count();

    // Attribution through the doctor library.
    let artifacts = RunArtifacts::parse(None, &text).expect("parse run stream");
    let runs = &artifacts.profiles;
    assert_eq!(runs.len(), 1, "exactly the profiled run is in the stream");
    let run = &runs[0];
    assert_eq!(run.run, "online");
    assert_eq!(run.declared_workers, 2, "run bracket declares its workers");
    assert_eq!(run.workers.len(), run.declared_workers, "every declared worker reported");
    assert_eq!(worker_records, run.workers.len(), "one profile_worker record per worker");

    // The shard balance comes from those records: its points are the
    // processed count.
    let diagnosis = analyze(&artifacts);
    let shards = &diagnosis.primary().expect("one series").shards;
    assert_eq!(shards.workers.len(), 2);
    let points: u64 = shards.workers.iter().map(|&(_, n)| n).sum();
    assert_eq!(points, profiled.processed() as u64, "shard points sum to the processed count");

    let report = analyze_profile(run, 100);
    assert!(
        report.attributed_pct >= 95.0,
        "attribution covers only {:.1}% of run wall-clock",
        report.attributed_pct
    );
    let simulate = report
        .aggregate
        .iter()
        .find(|a| a.phase == "simulate")
        .expect("simulate appears in the aggregate attribution");
    assert!(simulate.count > 0 && simulate.ns > 0, "simulate intervals were recorded");
    assert!(
        report.overhead.pct_of_wall < 3.0,
        "self-estimated profiler overhead {:.3}% exceeds 3% of run wall",
        report.overhead.pct_of_wall
    );
    let rendered = render_text(&diagnosis, None, None, 3, std::slice::from_ref(&report));
    assert!(rendered.contains("aggregate attribution"), "{rendered}");
    assert!(rendered.contains("profiler overhead:"), "{rendered}");

    // Same verdict through the CLI.
    let json_path =
        std::env::temp_dir().join(format!("spectral_doctor_diff_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_spectral-doctor"))
        .args(["analyze", "--run"])
        .arg(dir.root())
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run spectral-doctor analyze");
    assert!(
        out.status.success(),
        "doctor analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aggregate attribution"), "{stdout}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json_path).expect("read report"))
        .expect("report is valid JSON");
    let cli_runs = doc.get("profile").and_then(JsonValue::as_arr).expect("profile array");
    assert_eq!(cli_runs.len(), 1);
    let att = cli_runs[0].get("attributed_pct").and_then(JsonValue::as_f64).expect("attributed");
    assert!(att >= 95.0, "CLI reports {att:.1}% attributed");
    let overhead = cli_runs[0]
        .get("overhead")
        .and_then(|o| o.get("pct_of_wall"))
        .and_then(JsonValue::as_f64)
        .expect("overhead");
    assert!(overhead < 3.0, "CLI reports {overhead:.3}% profiler overhead");

    let _ = std::fs::remove_dir_all(dir.root());
    let _ = std::fs::remove_file(&json_path);
}
