//! Library container benchmark: legacy v1 stream input vs paged v2.
//!
//! The fixture is a ~3000-point library grown by self-merging a real
//! 24-point tiny-benchmark library (quick mode stays at ~768 points),
//! persisted three ways: v1 (framed here, since libraries only read
//! v1), v2 without dictionaries, and v2 with block-shared LZSS
//! dictionaries. Three claims are measured:
//!
//! 1. **Open latency** — v2 reads header + footer only, so open cost
//!    is (near) independent of point count, while v1 input is read
//!    whole and re-framed into a v2 image before the first record is
//!    reachable.
//! 2. **Random-access single-point read** — cold `open` + `get(i)`:
//!    the v2 path is one positioned read of one record.
//! 3. **Compressed bytes/point** — block-shared dictionaries must not
//!    lose to the plain per-record LZSS framing.
//!
//! Plus the decoded-point LRU: an exhaustive online run repeated on the
//! same library, where the second pass should hit the cache on every
//! point.
//!
//! Writes `BENCH_library.json` at the workspace root, with the mode
//! (`quick`) and the host's core count. The CI perf-smoke gate holds v2
//! to a 2 ms open budget and to 5× v1's cold read rate, and checks the
//! open speedup over v1 and v2's own cold open+get rate against the
//! committed baseline (>20% regression fails), plus the dictionary
//! bytes/point against v1. Set `SPECTRAL_BENCH_QUICK=1` for the CI
//! smoke run.

use std::fmt::Write as _;
use std::path::PathBuf;

use criterion::{black_box, Criterion, Throughput};
use spectral_codec::{paged, ContainerWriter};
use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy, V2WriteOptions};
use spectral_uarch::MachineConfig;
use spectral_workloads::tiny;

fn quick() -> bool {
    std::env::var_os("SPECTRAL_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Self-merge doublings on the 24-point base: 7 → ~3072 points (the
/// acceptance target), quick 5 → ~768.
fn doublings() -> u32 {
    if quick() {
        5
    } else {
        7
    }
}

/// Frame `library` as a legacy v1 container, laid out as the v1 writer
/// wrote it: the metadata record, then every record in processing
/// order, taken from the library's canonical v2 image.
fn v1_bytes(library: &LivePointLibrary) -> Vec<u8> {
    let image = library.to_bytes().expect("canonical image");
    let header = paged::parse_v2_header(&image).expect("v2 header");
    let meta_end = paged::V2_HEADER_LEN + header.meta_len as usize;
    let meta =
        paged::decode_v2_meta(&header, &image[paged::V2_HEADER_LEN..meta_end]).expect("v2 meta");
    let trailer = paged::parse_v2_trailer(&image, image.len() as u64).expect("v2 trailer");
    let footer = &image[trailer.footer_offset as usize..][..trailer.footer_len as usize];
    let (_, records) =
        paged::parse_v2_footer(footer, &trailer, meta_end as u64).expect("v2 footer");
    let mut v1 = ContainerWriter::new();
    v1.push(&meta);
    for r in &records {
        v1.push_compressed(&image[r.offset as usize..][..r.len as usize]);
    }
    v1.finish()
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spectral_benchlib_{}_{name}", std::process::id()))
}

struct Fixture {
    /// The small (24-point) source library, for the cache-reuse run.
    small: LivePointLibrary,
    program: spectral_isa::Program,
    points: usize,
    v1_path: PathBuf,
    v2_plain_path: PathBuf,
    v2_dict_path: PathBuf,
    v1_bytes_per_point: u64,
    v2_plain_bytes_per_point: u64,
    v2_dict_bytes_per_point: u64,
}

fn build_fixture() -> Fixture {
    let program = tiny().build();
    let machine = MachineConfig::eight_way();
    let cfg = CreationConfig::for_machine(&machine).with_sample_size(24);
    let small = LivePointLibrary::create(&program, &cfg).expect("base library");

    // Grow by self-merge: same records repeated (and re-shuffled), which
    // preserves the realistic per-record sizes without paying thousands
    // of real creation windows.
    let mut big = small.clone();
    for round in 0..doublings() {
        let copy = big.clone();
        big.merge(copy, 1000 + u64::from(round)).expect("self-merge");
    }

    let v1_path = temp("v1.splp");
    let v2_plain_path = temp("v2_plain.splp");
    let v2_dict_path = temp("v2_dict.splp");
    std::fs::write(&v1_path, v1_bytes(&big)).expect("write v1");
    let plain = big
        .save_v2(&v2_plain_path, &V2WriteOptions { dict: false, ..V2WriteOptions::default() })
        .expect("save v2 plain");
    let dict = big.save_v2(&v2_dict_path, &V2WriteOptions::default()).expect("save v2 dict");

    let points = big.len();
    Fixture {
        small,
        program,
        points,
        v1_path,
        v2_plain_path,
        v2_dict_path,
        v1_bytes_per_point: big.total_compressed_bytes() / points as u64,
        v2_plain_bytes_per_point: plain.record_bytes / u64::from(plain.count.max(1)),
        v2_dict_bytes_per_point: dict.record_bytes / u64::from(dict.count.max(1)),
    }
}

fn bench_open_and_read(c: &mut Criterion, fx: &Fixture) {
    let samples = if quick() { 5 } else { 10 };

    let mut group = c.benchmark_group("library_open");
    group.sample_size(samples);
    group.bench_function("v1", |b| {
        b.iter(|| black_box(LivePointLibrary::open(&fx.v1_path).expect("open v1")));
    });
    group.bench_function("v2", |b| {
        b.iter(|| black_box(LivePointLibrary::open(&fx.v2_dict_path).expect("open v2")));
    });
    group.bench_function("v2_header_only", |b| {
        b.iter(|| black_box(LivePointLibrary::open_header(&fx.v2_dict_path).expect("header")));
    });
    group.finish();

    // Cold single-point random access: open + one get. The index walks
    // a fixed pseudo-random sequence so both formats touch the same
    // spread of records.
    let mut group = c.benchmark_group("library_read");
    group.sample_size(samples).throughput(Throughput::Elements(1));
    let points = fx.points as u64;
    let mut state = 0x9E37_79B9u64;
    let mut next_index = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % points) as usize
    };
    let mut idx = next_index;
    group.bench_function("v1_load_get", |b| {
        b.iter(|| {
            let lib = LivePointLibrary::open(&fx.v1_path).expect("open v1");
            black_box(lib.get(idx()).expect("get"))
        });
    });
    let mut idx = next_index;
    group.bench_function("v2_open_get", |b| {
        b.iter(|| {
            let lib = LivePointLibrary::open(&fx.v2_dict_path).expect("open v2");
            black_box(lib.get(idx()).expect("get"))
        });
    });
    // Warm random access: library already open, repeated gets.
    let v2 = LivePointLibrary::open(&fx.v2_dict_path).expect("open v2");
    group.bench_function("v2_warm_get", |b| {
        b.iter(|| black_box(v2.get(next_index()).expect("get")));
    });
    group.finish();
}

/// Decode-cache reuse: exhaustive run twice on the same library; the
/// second pass should find every point pre-decoded. Returns
/// (hits, misses) deltas across the paired runs.
fn cache_reuse(fx: &Fixture) -> (u64, u64) {
    let machine = MachineConfig::eight_way();
    let path = temp("reuse.splp");
    fx.small.save_v2(&path, &V2WriteOptions::default()).expect("save reuse");
    let lib = LivePointLibrary::open(&path).expect("open reuse");
    let runner = OnlineRunner::new(&lib, machine);
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };

    spectral_core::set_decode_cache_capacity(4096);
    spectral_core::clear_decode_cache();
    let before = spectral_telemetry::snapshot();
    runner.run(&fx.program, &policy).expect("first pass");
    runner.run(&fx.program, &policy).expect("second pass");
    let after = spectral_telemetry::snapshot();
    std::fs::remove_file(&path).ok();

    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    (delta("core.lib.cache_hits"), delta("core.lib.cache_misses"))
}

fn emit_json(c: &Criterion, fx: &Fixture, hits: u64, misses: u64) -> String {
    let median =
        |id: &str| c.results().iter().find(|r| r.id == id).map(|r| r.median_s).unwrap_or(f64::NAN);
    let v1_open = median("library_open/v1");
    let v2_open = median("library_open/v2");
    let header_open = median("library_open/v2_header_only");
    let v1_read = median("library_read/v1_load_get");
    let v2_read = median("library_read/v2_open_get");
    let v2_warm = median("library_read/v2_warm_get");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(json, "  \"points\": {},", fx.points);
    let _ = writeln!(json, "  \"v1_open_ms\": {:.4},", v1_open * 1e3);
    let _ = writeln!(json, "  \"v2_open_ms\": {:.4},", v2_open * 1e3);
    let _ = writeln!(json, "  \"v2_header_open_ms\": {:.4},", header_open * 1e3);
    let _ = writeln!(json, "  \"open_speedup_v2_vs_v1\": {:.4},", v1_open / v2_open);
    let _ = writeln!(json, "  \"v1_load_get_per_s\": {:.1},", 1.0 / v1_read);
    let _ = writeln!(json, "  \"v2_open_get_per_s\": {:.1},", 1.0 / v2_read);
    let _ = writeln!(json, "  \"v2_warm_get_per_s\": {:.1},", 1.0 / v2_warm);
    let _ = writeln!(json, "  \"read_speedup_v2_vs_v1\": {:.4},", v1_read / v2_read);
    json.push_str("  \"bytes_per_point\": {\n");
    let _ = writeln!(json, "    \"v1\": {},", fx.v1_bytes_per_point);
    let _ = writeln!(json, "    \"v2_plain\": {},", fx.v2_plain_bytes_per_point);
    let _ = writeln!(json, "    \"v2_dict\": {}", fx.v2_dict_bytes_per_point);
    json.push_str("  },\n");
    json.push_str("  \"decode_cache\": {\n");
    let _ = writeln!(json, "    \"hits\": {hits},");
    let _ = writeln!(json, "    \"misses\": {misses},");
    let _ = writeln!(json, "    \"reuse_hit_rate\": {hit_rate:.4}");
    json.push_str("  }\n}\n");
    json
}

fn main() {
    let fx = build_fixture();
    let mut criterion = Criterion::default();
    bench_open_and_read(&mut criterion, &fx);
    let (hits, misses) = cache_reuse(&fx);
    let json = emit_json(&criterion, &fx, hits, misses);
    for path in [&fx.v1_path, &fx.v2_plain_path, &fx.v2_dict_path] {
        std::fs::remove_file(path).ok();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_library.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
