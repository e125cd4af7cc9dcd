//! Serial hot-decode run rate: points/s of a single-thread exhaustive
//! online run over the fixture library. This is the number CI's
//! perf-smoke job gates on: it compares `run_points_per_s` against the
//! committed `BENCH_kernel.json` baseline and fails on >20% regression.
//!
//! Per-layer rates are the e2e benchmark's traced metrics:
//! `isa.length_pass_ms` (emulation), `uarch.host_ns_per_inst` (timing
//! model) and `codec.decode_us`.
//!
//! Besides the console report the target writes `BENCH_kernel.json` at
//! the workspace root. Set `SPECTRAL_BENCH_QUICK=1` for the CI smoke
//! mode (fewer samples, same measurement).

use std::fmt::Write as _;

use criterion::{Criterion, Throughput};
use spectral_bench::{exhaustive, fixture_benchmark, fixture_library, quick};
use spectral_core::OnlineRunner;
use spectral_uarch::MachineConfig;

const POINTS: u64 = 24;

fn bench_kernel(c: &mut Criterion) {
    let program = fixture_benchmark().build();
    let library = fixture_library(&program, POINTS);
    let runner = OnlineRunner::new(&library, MachineConfig::eight_way());
    let exhaustive = exhaustive();
    let mut group = c.benchmark_group("run");
    group
        .sample_size(if quick() { 5 } else { 10 })
        .throughput(Throughput::Elements(library.len() as u64));
    group.bench_function("1", |b| {
        b.iter(|| runner.run(&program, &exhaustive).expect("run"));
    });
    group.finish();
}

/// Render the run as JSON: its median rate under `throughput_per_s`,
/// plus the **best-observed** rate (fastest sample) as the top-level
/// key the CI gate reads: interference on a shared runner only ever
/// slows a sample, so the minimum time is the noise-robust regression
/// signal.
fn emit_json(c: &Criterion) -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let run = c.results().iter().find(|r| r.id == "run/1").expect("run/1 measured");
    let points = match run.throughput {
        Some(Throughput::Elements(n)) => n as f64,
        None => 1.0,
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(json, "  \"points\": {POINTS},");
    json.push_str("  \"throughput_per_s\": {\n");
    let _ = writeln!(json, "    \"run/1\": {:.1}", points / run.median_s);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"run_points_per_s\": {:.1}", points / run.min_s);
    json.push_str("}\n");
    json
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernel(&mut criterion);
    let json = emit_json(&criterion);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
