//! Worker-scaling benchmark for the parallel live-point pipeline:
//! library creation, sharded online runs, and decode-once design-space
//! sweeps at 1/2/4/8 workers. Worker counts exceeding the host's actual
//! core count are skipped (with a logged note and a JSON record) —
//! oversubscribed numbers measure scheduler interleaving, not scaling.
//!
//! Besides the usual console report, this target writes
//! `BENCH_parallel.json` at the workspace root with the measured
//! throughput (live-points per second) at each worker count, plus the
//! host parallelism the numbers were collected under — wall-clock
//! speedup over the 1-worker row requires a host that actually exposes
//! multiple cores. It also writes `BENCH_telemetry.json`: the same
//! throughput table wrapped with the full telemetry metrics snapshot
//! accumulated over the benchmark runs (decode vs simulate time,
//! compression ratios, merge lock waits, …) — empty when built with
//! telemetry disabled, which is itself the no-overhead check. The
//! telemetry document also carries a `"profiler"` section: a paired
//! measurement of the run stream's wall-clock cost (spans, events and
//! worker-timeline profiles together) on the 2-worker online stage,
//! plus the phase attribution parsed back out of the stream it
//! produced. Set
//! `SPECTRAL_BENCH_QUICK=1` for the CI smoke run.

use std::fmt::Write as _;

use criterion::{BenchmarkId, Criterion, Throughput};
use spectral_bench::fixture_benchmark;
use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy, SweepRunner};
use spectral_telemetry::{JsonValue, RunDir};
use spectral_uarch::MachineConfig;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const POINTS: u64 = 24;

fn quick() -> bool {
    std::env::var_os("SPECTRAL_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Worker counts the host can actually run concurrently. Benchmarking
/// more workers than cores only measures scheduler interleaving, so
/// oversubscribed counts are skipped with a note rather than reported
/// as if they were real scaling data.
fn honest_workers() -> Vec<usize> {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (run, skipped): (Vec<usize>, Vec<usize>) = WORKERS.iter().partition(|&&w| w <= host);
    if !skipped.is_empty() {
        eprintln!(
            "warning: host exposes only {host} core(s); skipping oversubscribed worker counts \
             {skipped:?} — scaling numbers from this host are DEGRADED (the JSON output carries \
             \"degraded\": true)"
        );
    }
    run
}

fn bench_scaling(c: &mut Criterion) {
    let workers = honest_workers();
    let program = fixture_benchmark().build();
    let machine = MachineConfig::eight_way();
    let cfg = CreationConfig::for_machine(&machine).with_sample_size(POINTS);
    let library = LivePointLibrary::create(&program, &cfg).expect("fixture library");
    let points = library.len() as u64;
    let exhaustive =
        RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };

    let mut group = c.benchmark_group("create");
    group.sample_size(10).throughput(Throughput::Elements(points));
    for &threads in &workers {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| LivePointLibrary::create_parallel(&program, &cfg, t).expect("create"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("run");
    group.sample_size(10).throughput(Throughput::Elements(points));
    let runner = OnlineRunner::new(&library, machine.clone());
    for &threads in &workers {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| runner.run_parallel(&program, &exhaustive, t).expect("run"));
        });
    }
    group.finish();

    let machines = vec![
        machine.clone(),
        machine.clone().with_mem_latency(200),
        machine.clone().with_queues(64, 32),
    ];
    let sweep = SweepRunner::new(&library, machines);
    let mut group = c.benchmark_group("sweep3");
    group.sample_size(10).throughput(Throughput::Elements(points));
    for &threads in &workers {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| sweep.run_parallel(&program, &exhaustive, t).expect("sweep"));
        });
    }
    group.finish();
}

/// Render the collected results as a small JSON document: per-stage
/// points-per-second at each worker count.
fn emit_json(c: &Criterion) -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let skipped: Vec<usize> = WORKERS.iter().copied().filter(|&w| w > host).collect();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    // A host too narrow for the full worker ladder produces scaling
    // numbers that are not comparable with a full run; flag them so
    // downstream dashboards can segregate (or drop) the record.
    let _ = writeln!(json, "  \"degraded\": {},", !skipped.is_empty());
    let _ = writeln!(
        json,
        "  \"workers_skipped_oversubscribed\": [{}],",
        skipped.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"points\": {POINTS},");
    json.push_str("  \"throughput_points_per_s\": {\n");
    let mut first = true;
    for r in c.results() {
        let rate = match r.throughput {
            Some(Throughput::Elements(n)) => n as f64 / r.median_s,
            Some(Throughput::Bytes(n)) => n as f64 / r.median_s,
            None => 1.0 / r.median_s,
        };
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(json, "    \"{}\": {rate:.1}", r.id);
    }
    json.push_str("\n  }\n}\n");
    json
}

/// Middle element of the sorted sample — robust against the odd slow
/// outlier the way a mean is not.
fn median_secs(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Paired measurement of the run stream: time the same 2-worker online
/// run with and without the stream installed (spans, events and
/// worker-timeline profiles all write to it), then parse the stream the
/// profiled runs produced for interval counts and phase attribution.
/// Installing the stream is one-way for the process lifetime, so this
/// must run *after* the criterion groups — the scaling numbers above
/// are never profiled.
fn profiler_overhead_json() -> String {
    if !spectral_telemetry::compiled_in() {
        return String::from("{ \"enabled\": false }");
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = 2.min(host);
    let reps = if quick() { 3 } else { 7 };
    let program = fixture_benchmark().build();
    let machine = MachineConfig::eight_way();
    let cfg = CreationConfig::for_machine(&machine).with_sample_size(POINTS);
    let library = LivePointLibrary::create(&program, &cfg).expect("fixture library");
    let exhaustive =
        RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    let runner = OnlineRunner::new(&library, machine);
    let time_reps = || {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            runner.run_parallel(&program, &exhaustive, threads).expect("run");
            secs.push(t0.elapsed().as_secs_f64());
        }
        median_secs(secs)
    };
    // Warm-up run so first-touch effects (page faults, decode cache
    // fill) don't land inside the unprofiled arm only.
    runner.run_parallel(&program, &exhaustive, threads).expect("run");
    let unprofiled_s = time_reps();
    let run =
        RunDir::new(std::env::temp_dir().join(format!("spectral_scaling_{}", std::process::id())));
    if let Err(e) = run.start() {
        eprintln!("could not start the run stream in {}: {e}", run.root().display());
        return String::from("{ \"enabled\": false }");
    }
    let profiled_s = time_reps();
    spectral_telemetry::flush_stream();
    let text = std::fs::read_to_string(run.stream()).unwrap_or_default();
    let _ = std::fs::remove_dir_all(run.root());

    // Attribution from the stream the profiled arm just produced: total
    // intervals recorded and per-phase share of recorded busy time.
    let mut intervals = 0u64;
    let mut phase_ns: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(doc) = JsonValue::parse(line) else { continue };
        if doc.get("type").and_then(JsonValue::as_str) != Some("profile_worker") {
            continue;
        }
        intervals += doc.get("recorded").and_then(JsonValue::as_u64).unwrap_or(0);
        let Some(phases) = doc.get("phases").and_then(JsonValue::as_obj) else { continue };
        for (phase, totals) in phases {
            let ns = totals.get("ns").and_then(JsonValue::as_u64).unwrap_or(0);
            *phase_ns.entry(phase.clone()).or_insert(0) += ns;
        }
    }
    let busy_ns: u64 = phase_ns.values().sum();
    let overhead_pct =
        if unprofiled_s > 0.0 { (profiled_s - unprofiled_s) / unprofiled_s * 100.0 } else { 0.0 };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "    \"enabled\": true,");
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"unprofiled_s\": {unprofiled_s:.6},");
    let _ = writeln!(json, "    \"profiled_s\": {profiled_s:.6},");
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.2},");
    let _ = writeln!(json, "    \"intervals_recorded\": {intervals},");
    json.push_str("    \"attribution_pct\": { ");
    let mut first = true;
    for (phase, ns) in &phase_ns {
        if !first {
            json.push_str(", ");
        }
        first = false;
        let pct = if busy_ns > 0 { *ns as f64 / busy_ns as f64 * 100.0 } else { 0.0 };
        let _ = write!(json, "\"{phase}\": {pct:.1}");
    }
    json.push_str(" }\n  }");
    json
}

/// Wrap the throughput table with the telemetry snapshot accumulated
/// over the runs — where the benchmarked wall-clock actually went —
/// plus the paired profiler-overhead measurement.
fn emit_telemetry_json(throughput: &str, profiler: &str) -> String {
    let snap = spectral_telemetry::snapshot();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"telemetry_compiled_in\": {},", spectral_telemetry::compiled_in());
    let _ = writeln!(json, "  \"throughput\": {},", throughput.trim_end());
    let _ = writeln!(json, "  \"profiler\": {},", profiler.trim_end());
    let _ = writeln!(json, "  \"metrics\": {}", snap.to_json());
    json.push_str("}\n");
    json
}

/// Append one `kind: "bench"` record per measured (stage, workers) cell
/// to the cross-run registry when `SPECTRAL_REGISTRY` names one, so the
/// scaling trajectory is queryable with `spectral-doctor trend`
/// alongside the experiment runs.
fn append_registry_records(c: &Criterion) {
    let registry = match spectral_registry::Registry::from_env() {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            eprintln!("could not open SPECTRAL_REGISTRY registry: {e}");
            return;
        }
    };
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for r in c.results() {
        let rate = match r.throughput {
            Some(Throughput::Elements(n)) => n as f64 / r.median_s,
            Some(Throughput::Bytes(n)) => n as f64 / r.median_s,
            None => 1.0 / r.median_s,
        };
        // Ids are "<stage>/<workers>"; the stage becomes the benchmark
        // label so each (stage, workers) cell forms its own trend
        // series.
        let (stage, workers) = match r.id.split_once('/') {
            Some((s, w)) => (s.to_owned(), w.parse().unwrap_or(0)),
            None => (r.id.clone(), 0),
        };
        let mut record =
            spectral_registry::RunRecord::new("bench", "scaling", stage, "8-wide", workers);
        record.run_id =
            spectral_telemetry::derive_run_id(&r.id, spectral_telemetry::next_run_seq());
        record.points_processed = Some(POINTS);
        record.run_secs = Some(r.median_s);
        record.run_rate = Some(rate);
        record.notes.push(("host_parallelism".to_owned(), host.to_string()));
        if let Err(e) = registry.append(&record) {
            eprintln!("could not append bench record to registry: {e}");
            return;
        }
    }
    println!("appended {} bench records to {}", c.results().len(), registry.dir().display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_scaling(&mut criterion);
    append_registry_records(&criterion);
    let json = emit_json(&criterion);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    let profiler = profiler_overhead_json();
    let tlm = emit_telemetry_json(&json, &profiler);
    let tlm_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    match std::fs::write(tlm_path, &tlm) {
        Ok(()) => println!("wrote {tlm_path}"),
        Err(e) => eprintln!("could not write {tlm_path}: {e}"),
    }
}
