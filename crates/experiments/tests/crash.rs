//! Process-level crash drills: real experiment binaries killed by the
//! fault harness (`SPECTRAL_FAULT_KILL` aborts the process at a named
//! I/O site, simulating `kill -9`) must leave every on-disk structure
//! either old or new — never torn — and a killed checkpointing run must
//! resume to the same printed estimate an uninterrupted run produces.
//!
//! The in-process differential suite (`tests/resume.rs`)
//! pins bit-identity; this suite pins the end-to-end operator story:
//! crash the binary for real, restart it with `--resume`, read the same
//! answer.

use std::path::PathBuf;
use std::process::{Command, Output};

use spectral_core::{LivePointLibrary, RunCheckpoint};
use spectral_doctor::RunArtifacts;
use spectral_registry::{IndexEntry, Registry};
use spectral_telemetry::{JsonValue, RunDir, RunManifest};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spectral_crash_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small, fully deterministic `online` invocation.
fn online(extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_online"));
    cmd.args(["--quick", "--windows", "30", "--target", "10"]).args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn online")
}

fn final_estimate_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with("final estimate"))
        .unwrap_or_else(|| panic!("no final-estimate line in:\n{stdout}"))
        .to_string()
}

#[test]
fn killed_checkpointing_run_resumes_to_the_same_estimate() {
    let dir = temp_dir("resume");
    let ckpt = dir.join("online.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    // Leg 1: checkpoint every 3 points, SIGKILL at the 5th probe of the
    // checkpoint-write site — mid-run, after at least one durable
    // snapshot.
    let killed = online(
        &["--checkpoint", ckpt_s, "--checkpoint-every", "3"],
        &[("SPECTRAL_FAULT_KILL", "core.ckpt.write:5")],
    );
    assert!(!killed.status.success(), "kill must abort the process");
    let snapshot = RunCheckpoint::load(&ckpt).expect("checkpoint on disk is loadable, not torn");
    assert!(!snapshot.is_empty(), "the crashed run made durable progress");

    // Leg 2: same command, resumed. Leg 3: clean uninterrupted run.
    let resumed = online(&["--checkpoint", ckpt_s, "--resume", ckpt_s], &[]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let clean = online(&[], &[]);
    assert!(clean.status.success());
    assert_eq!(
        final_estimate_line(&resumed),
        final_estimate_line(&clean),
        "resumed run must print the identical final estimate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The manifest of an indexed run.
fn indexed_manifest(registry: &Registry, entry: &IndexEntry) -> RunManifest {
    let path = registry.run_dir(entry).manifest();
    RunManifest::from_json(&std::fs::read_to_string(&path).expect("manifest readable"))
        .expect("manifest parses")
}

#[test]
fn kill_around_registry_append_leaves_zero_or_one_committed_records() {
    // Kill *before* the index append: no index line. Kill *after* the
    // durable append: exactly one. Both leave a loadable index.
    for (site, expected) in [("registry.append", 0usize), ("registry.append.post", 1)] {
        let dir = temp_dir(&format!("reg_{expected}"));
        let out = online(
            &["--registry", dir.to_str().unwrap()],
            &[("SPECTRAL_FAULT_KILL", &format!("{site}:1"))],
        );
        assert!(!out.status.success(), "kill at {site} must abort");
        let registry = Registry::open(&dir).expect("registry dir intact");
        let entries = registry.load().expect("index never torn");
        assert_eq!(entries.len(), expected, "kill at {site}");
        // The killed run's directory is there either way, and an indexed
        // run's manifest is complete and carries the index line's id.
        assert_eq!(std::fs::read_dir(dir.join("runs")).expect("runs/").count(), 1);
        for e in &entries {
            assert_eq!(indexed_manifest(&registry, e).run_id.as_deref(), Some(e.run_id.as_str()));
        }

        // The next clean run appends over whatever the crash left.
        let out = online(&["--registry", dir.to_str().unwrap()], &[]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let entries = registry.load().expect("index loads after recovery append");
        assert_eq!(entries.len(), expected + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn short_write_tears_only_the_index_tail_and_heals_on_next_append() {
    let dir = temp_dir("short");
    // Force every index append to stop short and fail: the binary exits
    // with an error and the index ends in a torn partial record.
    let out = online(
        &["--registry", dir.to_str().unwrap()],
        &[("SPECTRAL_FAULT_SHORT", "registry.append:1"), ("SPECTRAL_FAULT_RETRIES", "1")],
    );
    assert!(!out.status.success(), "short-write injection must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault"), "diagnostic names the injection: {stderr}");

    let registry = Registry::open(&dir).unwrap();
    let entries = registry.load().expect("torn tail is dropped, not fatal");
    assert_eq!(entries.len(), 0, "the partial line is not surfaced");

    // A clean append repairs the tail; the new line is intact.
    let out = online(&["--registry", dir.to_str().unwrap()], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let entries = registry.load().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(indexed_manifest(&registry, &entries[0]).binary, "online");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_fsync_and_rename_never_leaves_a_torn_container_or_manifest() {
    // v2 container save: killed in the torn-state window (temp durable,
    // destination not yet renamed) the destination must simply not
    // exist; a clean rerun produces a complete, openable container.
    let dir = temp_dir("rename");
    let lib = dir.join("tiny.splp");
    let out = online(
        &["--save-library", lib.to_str().unwrap()],
        &[("SPECTRAL_FAULT_KILL", "library.v2.save.rename:1")],
    );
    assert!(!out.status.success());
    assert!(!lib.exists(), "no torn container at the destination");

    let out = online(&["--save-library", lib.to_str().unwrap()], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    LivePointLibrary::open(&lib).expect("rerun leaves a complete container");

    // Run manifest: same protocol, same guarantee.
    let run = RunDir::new(dir.join("run"));
    let out = online(
        &["--out", run.root().to_str().unwrap()],
        &[("SPECTRAL_FAULT_KILL", "telemetry.manifest.write.rename:1")],
    );
    assert!(!out.status.success());
    assert!(!run.manifest().exists(), "no torn manifest at the destination");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_in_a_reused_out_dir_leaves_no_older_manifest() {
    // A finished run leaves its stream, report and manifest.
    let dir = temp_dir("reused_out");
    let run = RunDir::new(dir.join("run"));
    let out_arg = ["--out", run.root().to_str().unwrap()];
    let first = online(&out_arg, &[]);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let report = std::fs::read_to_string(run.report()).expect("report.txt written");
    assert_eq!(report, String::from_utf8_lossy(&first.stdout), "report.txt is the stdout");
    let manifest = std::fs::read_to_string(run.manifest()).expect("manifest.json written");
    RunManifest::from_json(&manifest).expect("manifest parses");
    // Every event record carries its process's run-id token.
    let run_token = |stream: &str| -> String {
        stream
            .lines()
            .filter_map(|l| JsonValue::parse(l).ok()?.get("run_id")?.as_str().map(str::to_owned))
            .next()
            .expect("the stream carries event records")[..16]
            .to_owned()
    };
    let first_token = run_token(&std::fs::read_to_string(run.stream()).expect("stream written"));

    // A second run into the same directory dies before its manifest
    // lands: the first run's manifest must not survive beside the new
    // stream.
    let killed = online(&out_arg, &[("SPECTRAL_FAULT_KILL", "telemetry.manifest.write.rename:1")]);
    assert!(!killed.status.success(), "kill must abort the process");
    assert!(!run.manifest().exists(), "no manifest of the earlier run is left behind");
    let stream = std::fs::read_to_string(run.stream()).expect("new stream");
    assert_ne!(run_token(&stream), first_token, "the killed run's own records");
    assert!(!stream.contains(&first_token), "the earlier run's records were truncated away");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_checkpointing_run_keeps_its_run_stream() {
    // The run stream is buffered, but every checkpoint and progress
    // record flushes it. Each checkpoint save probes its write site
    // twice (the retry, then the atomic write), so a kill at the 21st
    // probe lands in the 11th save: the run keeps the records of the
    // ten checkpoints it made durable and the progress among them.
    let dir = temp_dir("killed_stream");
    let run = RunDir::new(dir.join("run"));
    let ckpt = dir.join("online.ckpt");
    let killed = Command::new(env!("CARGO_BIN_EXE_online"))
        .args(["--quick", "--windows", "200", "--threads", "2", "--out"])
        .arg(run.root())
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--checkpoint-every", "3"])
        .env("SPECTRAL_FAULT_KILL", "core.ckpt.write:21")
        .output()
        .expect("spawn online");
    assert!(!killed.status.success(), "kill must abort the process");
    // Records the run wrote after its last flush may be torn; the doctor
    // reads every complete line.
    let artifacts = RunArtifacts::load(&run).expect("the kept stream loads");
    let checkpoints = &artifacts.checkpoints;
    assert!(checkpoints.len() >= 4, "{} checkpoint records kept", checkpoints.len());
    let last = checkpoints.last().expect("checkpoints");
    let snapshot = RunCheckpoint::load(&ckpt).expect("the last durable checkpoint");
    assert_eq!(last.points, snapshot.len() as u64, "the last record names the file's snapshot");
    assert!(
        artifacts.progress.iter().any(|p| p.t_us <= last.t_us),
        "progress before the last checkpoint is kept ({} records)",
        artifacts.progress.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_resumable_binaries_reject_recovery_flags_with_a_diagnostic() {
    for (bin, name) in
        [(env!("CARGO_BIN_EXE_fig4"), "fig4"), (env!("CARGO_BIN_EXE_table2"), "table2")]
    {
        let out = Command::new(bin)
            .args(["--quick", "--resume", "nope.ckpt"])
            .output()
            .expect("spawn binary");
        assert!(!out.status.success(), "{name} must reject --resume");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "diagnostic names the binary: {stderr}");
        assert!(stderr.contains("resumable binaries"), "{stderr}");
    }
}

#[test]
fn matched_pair_resume_with_bad_prefix_errors_instead_of_restarting() {
    let dir = temp_dir("mp_prefix");
    let missing = dir.join("never-created.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_matched_pair"))
        .args(["--quick", "--limit", "1", "--windows", "12"])
        .args(["--resume", missing.to_str().unwrap()])
        .output()
        .expect("spawn matched_pair");
    assert!(!out.status.success(), "bad resume prefix must not silently restart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no checkpoint sidecars found"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
