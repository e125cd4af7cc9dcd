//! Parallel live-point processing: window independence makes sampled
//! simulation embarrassingly parallel, "with parallelism degree up to
//! the sample size" (paper §6).
//!
//! ```text
//! cargo run --release --example parallel_farm [benchmark-name] [--threads T]
//!     [--out DIR]
//! ```
//!
//! The same shuffled library is processed serially and with 2–8 worker
//! threads (plus `--threads T` when given); workers claim index chunks
//! from the dynamic scheduler and the coordinator replays their
//! observations in index order, so the exhaustive estimates are
//! bit-identical to the serial pass while wall-clock drops on
//! multi-core hosts. Library creation itself runs on the pipelined
//! multi-core path and stays byte-identical to a serial build.
//! `--out DIR` streams the runs' spans, events and worker-timeline
//! profiles to `DIR/run.jsonl` and writes a run
//! manifest (phases, points, estimate, embedded metrics snapshot —
//! including the `core.sched.*` steal/occupancy metrics) to
//! `DIR/manifest.json`. When `SPECTRAL_REGISTRY` names a registry, the
//! run directory (the registry's `runs/<id>` without `--out`) is
//! indexed there once its manifest is written.

use std::error::Error;
use std::path::PathBuf;
use std::time::Instant;

use spectral::core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral::telemetry::{self, RunDir, RunManifest};
use spectral::uarch::MachineConfig;
use spectral::workloads::by_name;

fn main() -> Result<(), Box<dyn Error>> {
    let mut name = "bzip2-like".to_owned();
    let mut threads: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = Some(it.next().ok_or("--threads needs a value")?.parse()?);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a directory")?.into()),
            _ => name = a,
        }
    }
    let registry = spectral::registry::Registry::from_env()?;
    let out = match &registry {
        Some(registry) => Some(registry.run_dir_for(out.as_deref())?),
        None => out.map(RunDir::new),
    };
    if let Some(dir) = &out {
        dir.start()?;
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = threads.unwrap_or(cores);

    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let program = bench.build();
    let machine = MachineConfig::eight_way();
    let mut manifest = RunManifest::new("parallel_farm", bench.name(), machine.name, threads);

    println!("building library for {} with {threads} worker(s)…", bench.name());
    let config = CreationConfig::for_machine(&machine).with_sample_size(320);
    manifest.seed = Some(config.seed);
    let t = Instant::now();
    let library = LivePointLibrary::create_parallel(&program, &config, threads)?;
    manifest.phase("create_library", t.elapsed().as_secs_f64());
    manifest.library_id = Some(format!("crc32:{:08x}", library.content_hash()));
    manifest.library_format = Some(u64::from(library.format_version()));
    manifest.library_points = Some(library.len() as u64);
    println!("library: {} live-points in {:.2?}\n", library.len(), t.elapsed());

    println!("host exposes {cores} core(s) — wall-clock speedups need more than one.\n");
    let runner = OnlineRunner::new(&library, machine);
    // Exhaustive policy: identical work in every configuration.
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };

    let t = Instant::now();
    let serial = runner.run(&program, &policy)?;
    let t_serial = t.elapsed().as_secs_f64();
    manifest.phase("run_serial", t_serial);
    println!(
        "serial     : {:>3} points  CPI {:.4} ± {:.4}  {:>7.2?}",
        serial.processed(),
        serial.mean(),
        serial.half_width(),
        t.elapsed()
    );

    let mut farm = vec![2usize, 4, 8];
    if !farm.contains(&threads) && threads > 1 {
        farm.push(threads);
        farm.sort_unstable();
    }
    let t_farm = Instant::now();
    for threads in farm {
        let t = Instant::now();
        let est = runner.run_parallel(&program, &policy, threads)?;
        let wall = t.elapsed().as_secs_f64();
        println!(
            "{threads} workers  : {:>3} points  CPI {:.4} ± {:.4}  {:>7.2?}  ({:.1}x vs serial)",
            est.processed(),
            est.mean(),
            est.half_width(),
            t.elapsed(),
            t_serial / wall,
        );
        // The coordinator replays worker observations in index order,
        // so the parallel estimate is the serial push sequence exactly.
        assert_eq!(
            est.mean().to_bits(),
            serial.mean().to_bits(),
            "exhaustive parallel estimates are bit-identical to serial"
        );
        assert_eq!(est.half_width().to_bits(), serial.half_width().to_bits());
    }
    manifest.phase("run_parallel_farm", t_farm.elapsed().as_secs_f64());
    manifest.points_processed = Some(serial.processed() as u64);
    manifest.set_estimate(serial.mean(), serial.half_width(), serial.reached_target());
    println!("\nestimates are bit-identical to the serial pass — order independence");
    println!("is what lets a cluster split one library across hosts (paper §6.1).");

    let run_id = telemetry::derive_run_id(&manifest.to_json(), telemetry::next_run_seq());
    manifest.run_id = Some(run_id.clone());
    telemetry::flush_stream();
    if let Some(dir) = out {
        manifest.write(dir.manifest(), Some(&telemetry::snapshot()))?;
        println!("run stream and manifest written to {}", dir.root().display());
        if let Some(registry) = registry {
            registry.append(&registry.entry(run_id, &dir)?)?;
            println!("run indexed in {}", registry.dir().display());
        }
    }
    Ok(())
}
