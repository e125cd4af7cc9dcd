//! End-to-end workflow tests spanning every crate: the paper's §6.3
//! experiment procedure (create → shuffle → store → baseline →
//! comparative studies) exercised through the public API.

use spectral::core::{
    CreationConfig, LivePointLibrary, MatchedRunner, OnlineRunner, RunPolicy, StateScope,
    V2WriteOptions,
};
use spectral::stats::{SampleDesign, SystematicDesign};
use spectral::uarch::MachineConfig;
use spectral::workloads::{dynamic_length, tiny, Benchmark, Kernel, Schedule};

fn small_library(program: &spectral::isa::Program) -> LivePointLibrary {
    let mut cfg = CreationConfig::default().with_sample_size(40);
    cfg.unit_len = 500;
    cfg.warm_len = 1500;
    LivePointLibrary::create(program, &cfg).expect("library creation")
}

#[test]
fn full_experiment_procedure() {
    // Steps 1-5 of Figure 6, on the tiny benchmark.
    let program = tiny().build();
    let library = small_library(&program);
    assert!(library.len() >= 30);

    // Step 3: the library is stored as one compressed container.
    let path = std::env::temp_dir().join("spectral_e2e.splp");
    library.save_v2(&path, &V2WriteOptions::default()).expect("save");
    let library = LivePointLibrary::open(&path).expect("open");
    std::fs::remove_file(&path).ok();

    // Step 4: baseline measurement with online confidence.
    let baseline = OnlineRunner::new(&library, MachineConfig::eight_way())
        .run(&program, &RunPolicy { max_points: Some(40), ..RunPolicy::default() })
        .expect("baseline run");
    assert!(baseline.mean() > 0.1 && baseline.mean() < 20.0);

    // Step 5: a comparative study against the 16-way machine from the
    // same library (the default creation bounds cover both).
    let outcome =
        MatchedRunner::new(&library, MachineConfig::eight_way(), MachineConfig::sixteen_way())
            .run(&program, &RunPolicy::default())
            .expect("matched run");
    assert!(outcome.processed() >= 30);
}

#[test]
fn sixteen_way_absolute_run_from_default_library() {
    let program = tiny().build();
    let library = small_library(&program);
    let est = OnlineRunner::new(&library, MachineConfig::sixteen_way())
        .run(&program, &RunPolicy { max_points: Some(35), ..RunPolicy::default() })
        .expect("16-way run");
    assert!(est.processed() >= 30);
    assert!(est.mean() > 0.05 && est.mean() < 20.0);
}

#[test]
fn dedicated_library_rejects_oversized_machine() {
    let program = tiny().build();
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(5);
    let library = LivePointLibrary::create(&program, &cfg).expect("library");
    let err = OnlineRunner::new(&library, MachineConfig::sixteen_way())
        .run(&program, &RunPolicy::default());
    assert!(err.is_err(), "16-way hierarchy exceeds an 8-way-only library");
}

#[test]
fn restricted_scope_changes_wrong_path_only() {
    // Restricted live-state must reproduce correct-path execution
    // exactly; only wrong-path scheduling may differ. CPI deltas should
    // therefore be small but the committed counts identical.
    let bench = Benchmark::new(
        "rswp",
        "restricted-scope fixture with mispredicts and memory",
        vec![
            Kernel::RandomAccess { words: 1 << 14, count: 300 },
            Kernel::Branchy {
                count: 300,
                predictability: spectral::workloads::Predictability::Random,
            },
        ],
        Schedule::Interleaved,
        200_000,
        5,
    );
    let program = bench.build();
    let windows = SystematicDesign::new(1000, 2000).windows(dynamic_length(&program), 25, 3);
    let full_cfg = CreationConfig::for_machine(&MachineConfig::eight_way());
    let full = LivePointLibrary::create_with_windows(&program, &full_cfg, &windows).unwrap();
    let restricted = LivePointLibrary::create_with_windows(
        &program,
        &full_cfg.clone().with_scope(StateScope::Restricted),
        &windows,
    )
    .unwrap();

    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    let ef = OnlineRunner::new(&full, MachineConfig::eight_way()).run(&program, &policy).unwrap();
    let er =
        OnlineRunner::new(&restricted, MachineConfig::eight_way()).run(&program, &policy).unwrap();
    assert_eq!(ef.processed(), er.processed());
    let rel = (ef.mean() - er.mean()).abs() / ef.mean();
    assert!(rel < 0.10, "restricted scope shifted CPI by {:.1}%", rel * 100.0);
}

#[test]
fn library_shuffle_preserves_content() {
    let program = tiny().build();
    let mut library = small_library(&program);
    let mut starts: Vec<u64> =
        (0..library.len()).map(|i| library.get(i).unwrap().window.measure_start).collect();
    library.shuffle(99);
    let mut starts2: Vec<u64> =
        (0..library.len()).map(|i| library.get(i).unwrap().window.measure_start).collect();
    starts.sort_unstable();
    starts2.sort_unstable();
    assert_eq!(starts, starts2, "shuffle must be a permutation");
}

#[test]
fn estimate_means_are_order_independent() {
    // Unbiasedness mechanics: any processing order yields the same
    // exhaustive mean (paper §6.1's sub-sample argument).
    let program = tiny().build();
    let mut library = small_library(&program);
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    let a = OnlineRunner::new(&library, MachineConfig::eight_way()).run(&program, &policy).unwrap();
    library.shuffle(12345);
    let b = OnlineRunner::new(&library, MachineConfig::eight_way()).run(&program, &policy).unwrap();
    assert!((a.mean() - b.mean()).abs() < 1e-12);
}

#[test]
fn persistence_does_not_change_results() {
    // Saving and loading a library must reproduce identical simulations
    // (the on-disk container is the paper's distribution format).
    let program = tiny().build();
    let library = small_library(&program);
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    let before =
        OnlineRunner::new(&library, MachineConfig::eight_way()).run(&program, &policy).unwrap();

    let bytes = library.to_bytes().unwrap();
    let reloaded = LivePointLibrary::from_bytes(&bytes).unwrap();
    let after =
        OnlineRunner::new(&reloaded, MachineConfig::eight_way()).run(&program, &policy).unwrap();

    assert_eq!(before.processed(), after.processed());
    assert_eq!(before.mean(), after.mean(), "byte-identical records, identical results");
}
