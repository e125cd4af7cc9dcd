//! A stratified run reports its convergence through the run stream,
//! like every other runner: with a run directory started, a parallel
//! stratified run leaves `progress` records whose last `n` is the
//! number of points it processed.
//!
//! The run stream is process-wide state, so this test has its own
//! binary.

use spectral::core::{CreationConfig, LivePointLibrary, RunPolicy, StratifiedRunner};
use spectral::telemetry::{flush_stream, JsonValue, RunDir};
use spectral::uarch::MachineConfig;
use spectral::workloads::tiny;

#[test]
fn stratified_runs_emit_progress_events() {
    let run = RunDir::new(
        std::env::temp_dir().join(format!("spectral_stratified_events_{}", std::process::id())),
    );
    run.start().expect("start the run directory");

    let program = tiny().build();
    let mut cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(60);
    cfg.unit_len = 500;
    cfg.warm_len = 1000;
    let library = LivePointLibrary::create(&program, &cfg).expect("library");
    let est = StratifiedRunner::new(&library, MachineConfig::eight_way(), 2)
        .run_parallel(&program, &RunPolicy::default(), 2)
        .expect("stratified run");
    flush_stream();

    let stream = std::fs::read_to_string(run.stream()).expect("read the run stream");
    let progress: Vec<JsonValue> = stream
        .lines()
        .map(|l| JsonValue::parse(l).expect("every stream line is JSON"))
        .filter(|r| r.get("type").and_then(JsonValue::as_str) == Some("progress"))
        .collect();
    assert!(
        progress.iter().any(|r| r.get("run").and_then(JsonValue::as_str) == Some("stratified")
            && r.get("metric").and_then(JsonValue::as_str) == Some("cpi")
            && r.get("n").and_then(JsonValue::as_u64) == Some(est.processed() as u64)),
        "no stratified progress record with n = {} among {} progress records",
        est.processed(),
        progress.len()
    );
    let _ = std::fs::remove_dir_all(run.root());
}
