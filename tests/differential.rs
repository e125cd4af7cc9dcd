//! Differential guard for the per-point kernel optimisations.
//!
//! The pre-decode / index-wakeup / scratch-buffer work (DecodedProgram,
//! ready-queue issue, `decompress_into`) must not change any simulated
//! result. This test pins every experiment-visible statistic for a
//! fixed seed and configuration to golden values captured from the
//! unoptimised kernel: the compressed library bytes, each live-point's
//! full `WindowStats`, and the online/sweep estimates derived from
//! them. Any behavioural drift in the kernel shows up as a digest
//! mismatch here before it can silently bias an experiment.
//!
//! The parallel tests extend the same guard over the run driver:
//! exhaustive parallel runs (online, matched, sweep, stratified) must
//! reproduce the serial results bit-for-bit at every thread count, and
//! a one-thread run must stop exactly where the serial run stops.
//!
//! To regenerate the goldens after an *intentional* behaviour change,
//! run with `SPECTRAL_DIFF_PRINT=1 cargo test --release --test
//! differential -- --nocapture` and paste the printed constants.

mod common;

use spectral_codec::crc32;
use spectral_core::{
    simulate_live_point, CreationConfig, LivePointLibrary, MatchedRunner, OnlineRunner, RunPolicy,
    StratifiedRunner, SweepRunner, V2WriteOptions,
};
use spectral_uarch::{MachineConfig, WindowStats};
use spectral_workloads::tiny;

/// Same workload/shape as the scaling bench: tiny benchmark, 8-way
/// machine, 24-point library, default creation seed.
const POINTS: u64 = 24;

/// CRC-like FNV-1a fold over 64-bit words: stable, dependency-free, and
/// sensitive to every bit of every field.
fn fold(digest: &mut u64, word: u64) {
    *digest ^= word;
    *digest = digest.wrapping_mul(0x100_0000_01B3);
}

fn stats_digest(digest: &mut u64, s: &WindowStats) {
    for w in [
        s.committed,
        s.cycles,
        s.wrong_path_fetched,
        s.mispredicts,
        s.loads,
        s.stores,
        s.l1d_misses,
        s.l2_misses,
        s.l1i_misses,
        s.dtlb_misses,
    ] {
        fold(digest, w);
    }
}

fn setup() -> (spectral_isa::Program, LivePointLibrary) {
    let program = tiny().build();
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(POINTS);
    let library = LivePointLibrary::create(&program, &cfg).expect("fixture library");
    (program, library)
}

fn exhaustive() -> RunPolicy {
    RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() }
}

// Golden values captured from the pre-optimisation kernel (seed
// 0x5EC7, tiny workload, eight-way machine, 24 points).
const GOLDEN_CONTENT_HASH: u32 = 0x0F52D33F;
const GOLDEN_STATS_DIGEST: u64 = 0x7E6D2628D2DD13C2;
const GOLDEN_POINT0: [u64; 10] = [1000, 344, 11, 1, 328, 0, 0, 0, 0, 0];
const GOLDEN_RUN_MEAN_BITS: u64 = 0x3FE0_DD2F_1A9F_BE77;
const GOLDEN_RUN_VARIANCE_BITS: u64 = 0x3FC3_97E7_F208_43C1;
const GOLDEN_RUN_PROCESSED: usize = 24;
const GOLDEN_SWEEP_MEAN_BITS: [u64; 3] =
    [0x3FE0_DD2F_1A9F_BE77, 0x3FE2_3078_263A_B597, 0x3FE2_06D3_A06D_3A07];
/// CRC32 of the whole file `save_v2` writes for the fixture with
/// [`dict_opts`]: six four-point dictionary blocks.
const GOLDEN_DICT_IMAGE_CRC: u32 = 0xBA48_1ADC;

fn print_mode() -> bool {
    std::env::var_os("SPECTRAL_DIFF_PRINT").is_some()
}

/// Dictionary blocks of four points: the 24-point fixture fills six,
/// each with its own sampled dictionary.
fn dict_opts() -> V2WriteOptions {
    V2WriteOptions { block_points: 4, ..V2WriteOptions::default() }
}

#[test]
fn library_bytes_are_bit_identical() {
    let (_, library) = setup();
    let hash = library.content_hash();
    if print_mode() {
        println!("const GOLDEN_CONTENT_HASH: u32 = 0x{hash:08X};");
        return;
    }
    assert_eq!(hash, GOLDEN_CONTENT_HASH, "compressed library bytes changed");
}

#[test]
fn window_stats_are_bit_identical() {
    let (program, library) = setup();
    let machine = MachineConfig::eight_way();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut point0: Option<WindowStats> = None;
    for i in 0..library.len() {
        let lp = library.get(i).expect("decode");
        let stats = simulate_live_point(&lp, &program, &machine).expect("simulate");
        stats_digest(&mut digest, &stats);
        if i == 0 {
            point0 = Some(stats);
        }
    }
    let p0 = point0.expect("non-empty library");
    let p0_fields = [
        p0.committed,
        p0.cycles,
        p0.wrong_path_fetched,
        p0.mispredicts,
        p0.loads,
        p0.stores,
        p0.l1d_misses,
        p0.l2_misses,
        p0.l1i_misses,
        p0.dtlb_misses,
    ];
    if print_mode() {
        println!("const GOLDEN_STATS_DIGEST: u64 = 0x{digest:016X};");
        println!("const GOLDEN_POINT0: [u64; 10] = {p0_fields:?};");
        return;
    }
    assert_eq!(p0_fields, GOLDEN_POINT0, "point 0 WindowStats changed");
    assert_eq!(digest, GOLDEN_STATS_DIGEST, "per-point WindowStats changed");
}

#[test]
fn online_estimate_is_bit_identical() {
    let (program, library) = setup();
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    let est = runner.run(&program, &exhaustive()).expect("run");
    let mean = est.mean().to_bits();
    let var = est.estimator().variance().to_bits();
    if print_mode() {
        println!("const GOLDEN_RUN_MEAN_BITS: u64 = 0x{mean:016X};");
        println!("const GOLDEN_RUN_VARIANCE_BITS: u64 = 0x{var:016X};");
        println!("const GOLDEN_RUN_PROCESSED: usize = {};", est.processed());
        return;
    }
    assert_eq!(est.processed(), GOLDEN_RUN_PROCESSED);
    assert_eq!(mean, GOLDEN_RUN_MEAN_BITS, "online mean changed");
    assert_eq!(var, GOLDEN_RUN_VARIANCE_BITS, "online variance changed");
}

#[test]
fn parallel_online_is_bit_identical_at_any_thread_count() {
    // The run driver replays observations in index order after the
    // join, so an exhaustive parallel run must reproduce the serial
    // goldens exactly — whatever the thread count.
    let (program, library) = setup();
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    for threads in [1usize, 2, 4] {
        let policy = exhaustive();
        let est = runner.run_parallel(&program, &policy, threads).expect("parallel run");
        assert_eq!(est.processed(), GOLDEN_RUN_PROCESSED, "x{threads}");
        assert_eq!(
            est.mean().to_bits(),
            GOLDEN_RUN_MEAN_BITS,
            "x{threads}: parallel mean drifted from the serial golden"
        );
        assert_eq!(
            est.estimator().variance().to_bits(),
            GOLDEN_RUN_VARIANCE_BITS,
            "x{threads}: parallel variance drifted from the serial golden"
        );
    }
}

#[test]
fn parallel_trajectory_matches_serial_exactly() {
    let (program, library) = setup();
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    let policy = RunPolicy { trajectory_stride: 5, ..exhaustive() };
    let serial = runner.run(&program, &policy).expect("serial run");
    assert!(!serial.trajectory().is_empty(), "stride 5 over 24 points records samples");
    for threads in [2usize, 4] {
        let parallel = runner.run_parallel(&program, &policy, threads).expect("parallel run");
        assert_eq!(
            serial.trajectory(),
            parallel.trajectory(),
            "x{threads}: replayed trajectory must equal the serial one bit-for-bit"
        );
        assert_eq!(serial.half_width().to_bits(), parallel.half_width().to_bits());
    }
}

#[test]
fn parallel_matched_is_bit_identical() {
    let (program, library) = setup();
    let base = MachineConfig::eight_way();
    let experiment = base.clone().with_mem_latency(200);
    let runner = MatchedRunner::new(&library, base, experiment);
    let serial = runner.run(&program, &exhaustive()).expect("serial matched run");
    for threads in [2usize, 4] {
        let parallel =
            runner.run_parallel(&program, &exhaustive(), threads).expect("parallel matched run");
        assert_eq!(parallel.processed(), serial.processed(), "x{threads}");
        assert_eq!(
            parallel.delta_mean().to_bits(),
            serial.delta_mean().to_bits(),
            "x{threads}: matched delta mean drifted"
        );
        assert_eq!(
            parallel.delta_half_width().to_bits(),
            serial.delta_half_width().to_bits(),
            "x{threads}: matched delta half-width drifted"
        );
    }
}

#[test]
fn parallel_sweep_is_bit_identical() {
    let (program, library) = setup();
    let machine = MachineConfig::eight_way();
    let machines = vec![
        machine.clone(),
        machine.clone().with_mem_latency(200),
        machine.clone().with_queues(64, 32),
    ];
    let sweep = SweepRunner::new(&library, machines);
    for threads in [2usize, 4] {
        let out = sweep.run_parallel(&program, &exhaustive(), threads).expect("parallel sweep");
        let means: Vec<u64> = out.estimates().iter().map(|e| e.mean().to_bits()).collect();
        assert_eq!(means, GOLDEN_SWEEP_MEAN_BITS, "x{threads}: sweep means drifted");
    }
}

#[test]
fn parallel_stratified_is_bit_identical() {
    let (program, library) = setup();
    let runner = StratifiedRunner::new(&library, MachineConfig::eight_way(), 3);
    let serial = runner.run(&program, &exhaustive()).expect("serial stratified run");
    assert_eq!(serial.processed(), library.len());
    for threads in [2usize, 4] {
        let parallel =
            runner.run_parallel(&program, &exhaustive(), threads).expect("parallel stratified");
        assert_eq!(parallel.processed(), serial.processed(), "x{threads}");
        assert_eq!(
            parallel.mean().to_bits(),
            serial.mean().to_bits(),
            "x{threads}: stratified mean drifted"
        );
        assert_eq!(
            parallel.half_width().to_bits(),
            serial.half_width().to_bits(),
            "x{threads}: stratified half-width drifted"
        );
    }
}

#[test]
fn one_thread_stops_where_serial_stops() {
    // Early-stopping runs: a one-thread run checks the stop rule after
    // every point, as the serial run does, so it stops at the same n
    // with the same bits — not at the next merge stride.
    let program = tiny().build();
    let mut cfg = CreationConfig::default().with_sample_size(40);
    cfg.unit_len = 500;
    cfg.warm_len = 1500;
    let library = LivePointLibrary::create(&program, &cfg).expect("fixture library");
    let m = MachineConfig::eight_way();
    let slow = m.clone().with_mem_latency(200);
    for (experiment, target_rel_err) in [(m.clone(), 0.03), (slow, 0.2)] {
        let runner = MatchedRunner::new(&library, m.clone(), experiment);
        let policy = RunPolicy { target_rel_err, ..RunPolicy::default() };
        let serial = runner.run(&program, &policy).expect("serial matched run");
        let one = runner.run_parallel(&program, &policy, 1).expect("one-thread matched run");
        assert!(serial.reached_target(), "the policy stops early");
        assert_eq!(one.processed(), serial.processed(), "matched: stop point moved");
        assert_eq!(one.delta_mean().to_bits(), serial.delta_mean().to_bits());
        assert_eq!(one.delta_half_width().to_bits(), serial.delta_half_width().to_bits());
    }
    let runner = OnlineRunner::new(&library, m);
    for target_rel_err in [0.5, 0.9] {
        let policy = RunPolicy { target_rel_err, ..RunPolicy::default() };
        let serial = runner.run(&program, &policy).expect("serial online run");
        let one = runner.run_parallel(&program, &policy, 1).expect("one-thread online run");
        assert!(serial.reached_target(), "the policy stops early");
        assert_eq!(one.processed(), serial.processed(), "online: stop point moved");
        assert_eq!(one.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(one.half_width().to_bits(), serial.half_width().to_bits());
    }
}

#[test]
fn v2_container_preserves_the_content_hash_golden() {
    // A dictionary-less v2 save re-frames the exact v1 record bodies,
    // so the stored content hash — and the hash recomputed by the
    // re-opened paged library — must equal the v1 golden.
    let (_, library) = setup();
    let path = std::env::temp_dir().join(format!("spectral_diff_v2_{}.splp", std::process::id()));
    let opts = V2WriteOptions { dict: false, ..V2WriteOptions::default() };
    let summary = library.save_v2(&path, &opts).expect("save v2");
    assert_eq!(summary.content_hash, GOLDEN_CONTENT_HASH, "v2 stored hash drifted");
    let paged = LivePointLibrary::open(&path).expect("open v2");
    assert_eq!(paged.format_version(), 2);
    assert_eq!(paged.content_hash(), GOLDEN_CONTENT_HASH, "v2 reopened hash drifted");
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_decoded_points_reproduce_the_run_goldens() {
    // Points decoded through the paged backing (dictionary compression
    // included) must drive the online runner to the exact serial and
    // parallel goldens — format v2 cannot perturb any simulated result.
    let (program, library) = setup();
    let path = std::env::temp_dir().join(format!("spectral_diff_v2d_{}.splp", std::process::id()));
    library.save_v2(&path, &V2WriteOptions::default()).expect("save v2 dict");
    let paged = LivePointLibrary::open(&path).expect("open v2");
    let runner = OnlineRunner::new(&paged, MachineConfig::eight_way());
    let est = runner.run(&program, &exhaustive()).expect("serial run on v2");
    assert_eq!(est.processed(), GOLDEN_RUN_PROCESSED);
    assert_eq!(est.mean().to_bits(), GOLDEN_RUN_MEAN_BITS, "v2 serial mean drifted");
    assert_eq!(
        est.estimator().variance().to_bits(),
        GOLDEN_RUN_VARIANCE_BITS,
        "v2 serial variance drifted"
    );
    for threads in [2usize, 4] {
        let est = runner.run_parallel(&program, &exhaustive(), threads).expect("parallel on v2");
        assert_eq!(est.processed(), GOLDEN_RUN_PROCESSED, "x{threads}");
        assert_eq!(est.mean().to_bits(), GOLDEN_RUN_MEAN_BITS, "x{threads}: v2 mean drifted");
        assert_eq!(
            est.estimator().variance().to_bits(),
            GOLDEN_RUN_VARIANCE_BITS,
            "x{threads}: v2 variance drifted"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dict_round_trip_restores_the_canonical_image() {
    // Saving with shared dictionaries and reading back must restore the
    // exact canonical image `to_bytes` returns — records in processing
    // order, one dictionary-less block — because dictionary records
    // decompress and deterministically recompress to their original
    // plain streams.
    let (_, library) = setup();
    let v1 = library.to_bytes().expect("v1 bytes");
    let path = std::env::temp_dir().join(format!("spectral_diff_v2r_{}.splp", std::process::id()));
    library.save_v2(&path, &V2WriteOptions::default()).expect("save v2 dict");
    let paged = LivePointLibrary::open(&path).expect("open v2");
    assert_eq!(paged.to_bytes().expect("back to v1"), v1, "v1→v2→v1 bytes drifted");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dict_image_is_bit_identical() {
    // Every byte of a dictionary save is pinned: the sampled
    // dictionaries, every record compressed against its block's
    // dictionary, the footer and the trailer.
    let (_, library) = setup();
    let path = std::env::temp_dir().join(format!("spectral_diff_v2g_{}.splp", std::process::id()));
    library.save_v2(&path, &dict_opts()).expect("save v2 dict");
    let crc = crc32::checksum(&std::fs::read(&path).expect("read image"));
    let blocks = LivePointLibrary::open_header(&path).expect("header").blocks;
    std::fs::remove_file(&path).ok();
    if print_mode() {
        println!("const GOLDEN_DICT_IMAGE_CRC: u32 = 0x{crc:08X};");
        return;
    }
    assert_eq!(blocks, 6);
    assert_eq!(crc, GOLDEN_DICT_IMAGE_CRC, "dictionary image bytes changed");
}

#[test]
fn streamed_creation_writes_the_dict_image_at_any_thread_count() {
    // Creation streamed to a file compresses each record once, against
    // its block's dictionary, on the creation's worker threads; the
    // file must equal the in-memory library's dictionary save byte for
    // byte, whatever the worker count.
    let program = tiny().build();
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(POINTS);
    for threads in [1usize, 2, 4] {
        let path = std::env::temp_dir()
            .join(format!("spectral_diff_v2c{threads}_{}.splp", std::process::id()));
        let lib =
            LivePointLibrary::create_parallel_to_path(&program, &cfg, threads, &path, &dict_opts())
                .expect("streamed creation");
        let crc = crc32::checksum(&std::fs::read(&path).expect("read image"));
        std::fs::remove_file(&path).ok();
        assert_eq!(lib.len(), POINTS as usize, "x{threads}");
        if !print_mode() {
            assert_eq!(crc, GOLDEN_DICT_IMAGE_CRC, "x{threads}: streamed image drifted");
        }
    }
}

#[test]
fn v1_input_reproduces_the_goldens() {
    // A legacy v1 container is re-framed on read without decompressing
    // a record, so it keeps the content hash golden, decodes to the same
    // points, and drives the online runner to the run goldens.
    let (program, library) = setup();
    let v1 = LivePointLibrary::from_bytes(&common::v1_bytes(&library)).expect("read v1");
    assert_eq!(v1.content_hash(), GOLDEN_CONTENT_HASH, "v1 input hash drifted");
    assert_eq!(v1.len(), library.len());
    for i in 0..v1.len() {
        let (got, want) = (v1.get(i).expect("v1 decode"), library.get(i).expect("decode"));
        assert_eq!(got.to_der(), want.to_der(), "point {i} differs");
    }
    let est = OnlineRunner::new(&v1, MachineConfig::eight_way())
        .run(&program, &exhaustive())
        .expect("run on v1 input");
    assert_eq!(est.processed(), GOLDEN_RUN_PROCESSED);
    assert_eq!(est.mean().to_bits(), GOLDEN_RUN_MEAN_BITS, "v1 input mean drifted");
    assert_eq!(
        est.estimator().variance().to_bits(),
        GOLDEN_RUN_VARIANCE_BITS,
        "v1 input variance drifted"
    );
}

#[test]
fn sweep_estimates_are_bit_identical() {
    let (program, library) = setup();
    let machine = MachineConfig::eight_way();
    let machines = vec![
        machine.clone(),
        machine.clone().with_mem_latency(200),
        machine.clone().with_queues(64, 32),
    ];
    let sweep = SweepRunner::new(&library, machines);
    let out = sweep.run(&program, &exhaustive()).expect("sweep");
    let means: Vec<u64> = out.estimates().iter().map(|e| e.mean().to_bits()).collect();
    if print_mode() {
        println!("const GOLDEN_SWEEP_MEAN_BITS: [u64; 3] = {means:#018X?};");
        return;
    }
    assert_eq!(means, GOLDEN_SWEEP_MEAN_BITS, "sweep means changed");
}
