//! Differential resume tests: a run interrupted at an arbitrary point
//! and resumed from its checkpoint must produce estimates **bit
//! identical** to the same run never having been interrupted — serial
//! and parallel (1/2/4 threads), for all four runner kinds.
//!
//! Interruption uses [`Recovery::abort_after`], the deterministic
//! in-process stand-in for `kill -9` (the experiments crate exercises
//! real SIGKILL via `SPECTRAL_FAULT_KILL`). Corruption cases mirror the
//! corrupt-container suite: arbitrary truncation or a single bit-flip
//! of a checkpoint sidecar must surface as a one-line typed error —
//! never a panic, never a silent restart from zero.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use spectral_core::{
    CoreError, CreationConfig, LivePointLibrary, MatchedRunner, OnlineRunner, Recovery,
    RunCheckpoint, RunPolicy, StratifiedRunner, SweepRunner,
};
use spectral_uarch::MachineConfig;
use spectral_workloads::{tiny, Benchmark};

fn bench() -> &'static Benchmark {
    static B: OnceLock<Benchmark> = OnceLock::new();
    B.get_or_init(tiny)
}

fn library() -> &'static LivePointLibrary {
    static LIB: OnceLock<LivePointLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let p = bench().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(12);
        LivePointLibrary::create(&p, &cfg).expect("fixture library")
    })
}

/// Exhaustive policy: parallel early termination stops at a
/// scheduling-dependent point, so the cross-thread differential runs
/// process the whole library. A small merge stride keeps the batching
/// machinery engaged even on the tiny fixture.
fn exhaustive() -> RunPolicy {
    RunPolicy { stop_at_target: false, merge_stride: 3, ..RunPolicy::default() }
}

/// `policy` with `recovery`.
fn with(policy: &RunPolicy, recovery: Recovery) -> RunPolicy {
    RunPolicy { recovery, ..policy.clone() }
}

/// Fresh sidecar path in the per-process temp dir.
fn ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spectral-resume-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_bits(label: &str, a: f64, b: f64) {
    assert_eq!(a.to_bits(), b.to_bits(), "{label}: {a} vs {b}");
}

/// Interrupt after `kill_at` fresh points, then resume to completion;
/// both legs run through `run` (serial when `threads == None`). Returns
/// the resumed estimate for comparison against an uninterrupted run.
fn interrupted_then_resumed_online(
    runner: &OnlineRunner,
    policy: &RunPolicy,
    threads: Option<usize>,
    kill_at: u64,
    path: &PathBuf,
) -> spectral_core::Estimate {
    let program = bench().build();
    let crash = with(policy, Recovery::none().checkpoint_to(path, 2).abort_after(kill_at));
    let err = match threads {
        Some(t) => runner.run_parallel(&program, &crash, t).unwrap_err(),
        None => runner.run(&program, &crash).unwrap_err(),
    };
    assert!(matches!(err, CoreError::Interrupted { .. }), "expected interruption, got: {err}");
    let resume = with(policy, Recovery::none().checkpoint_to(path, 2).resume_from(path));
    match threads {
        Some(t) => runner.run_parallel(&program, &resume, t).unwrap(),
        None => runner.run(&program, &resume).unwrap(),
    }
}

#[test]
fn online_serial_resume_is_bit_identical() {
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    for kill_at in [1u64, 5, 10] {
        let path = ckpt(&format!("online-serial-{kill_at}.ckpt"));
        let resumed = interrupted_then_resumed_online(&runner, &policy, None, kill_at, &path);
        assert_bits("mean", baseline.mean(), resumed.mean());
        assert_bits("half_width", baseline.half_width(), resumed.half_width());
        assert_eq!(baseline.processed(), resumed.processed(), "kill at {kill_at}");
    }
}

#[test]
fn online_parallel_resume_is_bit_identical_all_threads() {
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    for threads in [1usize, 2, 4] {
        let path = ckpt(&format!("online-par-{threads}.ckpt"));
        let resumed = interrupted_then_resumed_online(&runner, &policy, Some(threads), 5, &path);
        assert_bits("mean", baseline.mean(), resumed.mean());
        assert_bits("half_width", baseline.half_width(), resumed.half_width());
        assert_eq!(
            baseline.processed(),
            resumed.processed(),
            "x{threads}: processed-set must match the uninterrupted run"
        );
    }
}

#[test]
fn online_survives_repeated_interruptions() {
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    let path = ckpt("online-repeated.ckpt");

    // Crash, resume-and-crash-again, then resume to completion: the
    // sidecar is re-seeded with restored observations on every leg, so
    // progress accumulates monotonically across crashes.
    let first = Recovery::none().checkpoint_to(&path, 2).abort_after(3);
    assert!(runner.run(&program, &with(&policy, first)).is_err());
    let n_first = RunCheckpoint::load(&path).unwrap().len();
    let second = Recovery::none().checkpoint_to(&path, 2).resume_from(&path).abort_after(3);
    assert!(runner.run(&program, &with(&policy, second)).is_err());
    let n_second = RunCheckpoint::load(&path).unwrap().len();
    assert!(n_second > n_first, "second leg must extend the checkpoint ({n_first}->{n_second})");

    let last = Recovery::none().checkpoint_to(&path, 2).resume_from(&path);
    let resumed = runner.run(&program, &with(&policy, last)).unwrap();
    assert_bits("mean", baseline.mean(), resumed.mean());
    assert_bits("half_width", baseline.half_width(), resumed.half_width());
    assert_eq!(baseline.processed(), resumed.processed());
}

#[test]
fn matched_resume_is_bit_identical_serial_and_parallel() {
    let base = MachineConfig::eight_way();
    let experiment = base.clone().with_mem_latency(200);
    let runner = MatchedRunner::new(library(), base, experiment);
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    for threads in [None, Some(1usize), Some(2), Some(4)] {
        let label = threads.map_or("serial".into(), |t| format!("x{t}"));
        let path = ckpt(&format!("matched-{label}.ckpt"));
        let crash = with(&policy, Recovery::none().checkpoint_to(&path, 2).abort_after(4));
        let err = match threads {
            Some(t) => runner.run_parallel(&program, &crash, t).unwrap_err(),
            None => runner.run(&program, &crash).unwrap_err(),
        };
        assert!(matches!(err, CoreError::Interrupted { .. }), "{err}");
        let resume = with(&policy, Recovery::none().resume_from(&path));
        let resumed = match threads {
            Some(t) => runner.run_parallel(&program, &resume, t).unwrap(),
            None => runner.run(&program, &resume).unwrap(),
        };
        assert_bits("delta_mean", baseline.delta_mean(), resumed.delta_mean());
        assert_bits("delta_half_width", baseline.delta_half_width(), resumed.delta_half_width());
        assert_bits("base mean", baseline.pair().base().mean(), resumed.pair().base().mean());
        assert_eq!(baseline.processed(), resumed.processed(), "{label}");
    }
}

#[test]
fn sweep_resume_is_bit_identical_serial_and_parallel() {
    let m = MachineConfig::eight_way();
    let machines = vec![m.clone(), m.clone().with_mem_latency(120), m.with_mem_latency(200)];
    let runner = SweepRunner::new(library(), machines);
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    for threads in [None, Some(2usize), Some(4)] {
        let label = threads.map_or("serial".into(), |t| format!("x{t}"));
        let path = ckpt(&format!("sweep-{label}.ckpt"));
        let crash = with(&policy, Recovery::none().checkpoint_to(&path, 2).abort_after(4));
        let err = match threads {
            Some(t) => runner.run_parallel(&program, &crash, t).unwrap_err(),
            None => runner.run(&program, &crash).unwrap_err(),
        };
        assert!(matches!(err, CoreError::Interrupted { .. }), "{err}");
        let resume = with(&policy, Recovery::none().resume_from(&path));
        let resumed = match threads {
            Some(t) => runner.run_parallel(&program, &resume, t).unwrap(),
            None => runner.run(&program, &resume).unwrap(),
        };
        let (a, b) = (baseline.estimates(), resumed.estimates());
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_bits(&format!("machine {i} mean"), x.mean(), y.mean());
            assert_bits(&format!("machine {i} half_width"), x.half_width(), y.half_width());
            assert_eq!(x.processed(), y.processed(), "{label} machine {i}");
        }
    }
}

#[test]
fn stratified_resume_is_bit_identical_serial_and_parallel() {
    let runner = StratifiedRunner::new(library(), MachineConfig::eight_way(), 3);
    let program = bench().build();
    let policy = exhaustive();
    let baseline = runner.run(&program, &policy).unwrap();
    for threads in [None, Some(1usize), Some(2), Some(4)] {
        let label = threads.map_or("serial".into(), |t| format!("x{t}"));
        let path = ckpt(&format!("stratified-{label}.ckpt"));
        let crash = with(&policy, Recovery::none().checkpoint_to(&path, 2).abort_after(4));
        let err = match threads {
            Some(t) => runner.run_parallel(&program, &crash, t).unwrap_err(),
            None => runner.run(&program, &crash).unwrap_err(),
        };
        assert!(matches!(err, CoreError::Interrupted { .. }), "{err}");
        let resume = with(&policy, Recovery::none().resume_from(&path));
        let resumed = match threads {
            Some(t) => runner.run_parallel(&program, &resume, t).unwrap(),
            None => runner.run(&program, &resume).unwrap(),
        };
        assert_bits("mean", baseline.mean(), resumed.mean());
        assert_bits("half_width", baseline.half_width(), resumed.half_width());
        assert_eq!(baseline.processed(), resumed.processed(), "{label}");
    }
}

// --- Identity: a checkpoint never resumes under a different run. ---

/// An online checkpoint produced by an interrupted run, for feeding to
/// mismatched resumes.
fn interrupted_online_ckpt() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = ckpt("identity-source.ckpt");
        let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
        let program = bench().build();
        let crash = with(&exhaustive(), Recovery::none().checkpoint_to(&path, 2).abort_after(4));
        assert!(runner.run(&program, &crash).is_err());
        path
    })
}

#[test]
fn resume_with_different_policy_refuses() {
    let path = interrupted_online_ckpt();
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
    let program = bench().build();
    let mut other = with(&exhaustive(), Recovery::none().resume_from(path));
    other.merge_stride = 5;
    let err = runner.run(&program, &other).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("refusing to resume"), "{msg}");
    assert!(!msg.contains('\n'), "one-line diagnostic: {msg}");
}

#[test]
fn resume_with_different_machine_refuses() {
    let path = interrupted_online_ckpt();
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way().with_mem_latency(200));
    let program = bench().build();
    let policy = with(&exhaustive(), Recovery::none().resume_from(path));
    let err = runner.run(&program, &policy).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("refusing to resume"), "{msg}");
}

#[test]
fn resume_with_different_runner_kind_refuses() {
    let path = interrupted_online_ckpt();
    let base = MachineConfig::eight_way();
    let runner = MatchedRunner::new(library(), base.clone(), base.with_mem_latency(200));
    let program = bench().build();
    let policy = with(&exhaustive(), Recovery::none().resume_from(path));
    let err = runner.run(&program, &policy).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("run kind") && msg.contains("refusing to resume"), "{msg}");
}

#[test]
fn resume_from_missing_or_corrupt_checkpoint_never_silently_restarts() {
    let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
    let program = bench().build();
    let policy = exhaustive();

    let missing = ckpt("never-written.ckpt");
    let err =
        runner.run(&program, &with(&policy, Recovery::none().resume_from(&missing))).unwrap_err();
    assert!(matches!(err, CoreError::Checkpoint { .. }), "{err}");

    let garbled = ckpt("garbled.ckpt");
    std::fs::write(&garbled, b"spectral-ckpt v1\nmeta nonsense\ncrc 00000000\n").unwrap();
    let err =
        runner.run(&program, &with(&policy, Recovery::none().resume_from(&garbled))).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, CoreError::Checkpoint { .. }), "{msg}");
    assert!(!msg.contains('\n'), "one-line diagnostic: {msg}");
}

// --- Corruption: mirror of the corrupt-container suite. ---

/// Bytes of a real checkpoint written by an interrupted parallel run.
fn ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = ckpt("proptest-source.ckpt");
        let runner = OnlineRunner::new(library(), MachineConfig::eight_way());
        let program = bench().build();
        let crash = with(&exhaustive(), Recovery::none().checkpoint_to(&path, 1).abort_after(6));
        assert!(runner.run_parallel(&program, &crash, 2).is_err());
        std::fs::read(&path).expect("checkpoint bytes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_checkpoint_is_typed_error_never_panic(cut in 0usize..(1usize << 12)) {
        let bytes = ckpt_bytes();
        let cut = cut % bytes.len(); // strictly shorter than the original
        let path = ckpt("proptest-trunc.ckpt");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        let msg = err.to_string();
        prop_assert!(matches!(err, CoreError::Checkpoint { .. }), "{}", msg);
        prop_assert!(!msg.contains('\n'), "one-line diagnostic: {}", msg);
    }

    #[test]
    fn bit_flipped_checkpoint_is_typed_error_never_panic(
        offset in 0usize..(1usize << 12),
        bit in 0u8..8,
    ) {
        let mut bytes = ckpt_bytes().to_vec();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        let path = ckpt("proptest-flip.ckpt");
        std::fs::write(&path, &bytes).unwrap();
        // CRC32 detects every single-bit payload flip; flips in the
        // trailer or final newline break the trailer parse instead.
        let err = RunCheckpoint::load(&path).unwrap_err();
        let msg = err.to_string();
        prop_assert!(matches!(err, CoreError::Checkpoint { .. }), "{}", msg);
        prop_assert!(!msg.contains('\n'), "one-line diagnostic: {}", msg);
    }
}
