//! Design-space exploration with the decode-once sweeper: the workflow
//! the paper's conclusion promises ("parametric studies that cover a
//! wide range of microarchitectural options … with reasonable
//! computational requirements").
//!
//! ```text
//! cargo run --release --example design_space [benchmark-name] [--threads T]
//!     [--out DIR]
//! ```
//!
//! One live-point library answers every design question in a single
//! pass: [`SweepRunner`] decompresses and DER-decodes each record once,
//! simulates it under the baseline and every candidate, and — because
//! all configurations see exactly the same points — yields matched-pair
//! comparisons against the baseline by construction. `--out DIR`
//! streams the run's spans and events to `DIR/run.jsonl` and writes its
//! manifest to `DIR/manifest.json`.

use std::error::Error;
use std::time::Instant;

use spectral::core::{CreationConfig, LivePointLibrary, RunPolicy, SweepRunner};
use spectral::telemetry::{self, RunDir, RunManifest};
use spectral::uarch::{FuPools, MachineConfig};
use spectral::workloads::by_name;

fn main() -> Result<(), Box<dyn Error>> {
    let mut name = "gcc-like".to_owned();
    let mut threads: Option<usize> = None;
    let mut out: Option<RunDir> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = Some(it.next().ok_or("--threads needs a value")?.parse()?);
            }
            "--out" => {
                let dir = RunDir::new(it.next().ok_or("--out needs a directory")?);
                dir.start()?;
                out = Some(dir);
            }
            _ => name = a,
        }
    }
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let program = bench.build();
    let base = MachineConfig::eight_way();
    let mut manifest = RunManifest::new("design_space", bench.name(), base.name, threads);

    println!("exploring the design space around the 8-way baseline on {}", bench.name());
    let config = CreationConfig::for_machine(&base).with_sample_size(300);
    manifest.seed = Some(config.seed);
    let t = Instant::now();
    let library = LivePointLibrary::create_parallel(&program, &config, threads)?;
    manifest.phase("create_library", t.elapsed().as_secs_f64());
    manifest.library_id = Some(format!("crc32:{:08x}", library.content_hash()));
    manifest.library_format = Some(u64::from(library.format_version()));
    manifest.library_points = Some(library.len() as u64);
    println!("library: {} live-points\n", library.len());

    let candidates: Vec<(&str, MachineConfig)> = vec![
        ("halve RUU/LSQ (128/64 → 64/32)", base.clone().with_queues(64, 32)),
        ("double memory latency (100 → 200)", base.clone().with_mem_latency(200)),
        ("drop to 2 integer ALUs", base.clone().with_fu(FuPools { int_alu: 2, ..base.fu })),
        ("slower L2 (12 → 16 cycles)", {
            let mut m = base.clone();
            m.lat.l2 = 16;
            m
        }),
        ("smaller store buffer (16 → 8)", {
            let mut m = base.clone();
            m.store_buffer = 8;
            m
        }),
        ("wider divide (20 → 12 cycles)", {
            let mut m = base.clone();
            m.lat.int_div = 12;
            m
        }),
    ];

    // One pass, decode-once: machine 0 is the baseline, the rest are
    // the candidates.
    let mut machines = vec![base];
    machines.extend(candidates.iter().map(|(_, m)| m.clone()));
    let configs = machines.len();
    let sweep = SweepRunner::new(&library, machines);
    let policy = RunPolicy::default();
    let t = Instant::now();
    let outcome = sweep.run_parallel(&program, &policy, threads)?;
    manifest.phase("run_sweep", t.elapsed().as_secs_f64());
    manifest.points_processed = Some(outcome.processed() as u64);
    println!(
        "swept {} configurations over {} decoded points in {:.2?} ({} worker(s))\n",
        configs,
        outcome.processed(),
        t.elapsed(),
        threads
    );

    println!(
        "{:<38} {:>9} {:>12} {:>7} {:>7}",
        "design change", "ΔCPI", "95%-of-base?", "pairs", "verdict"
    );
    let baseline = outcome.estimate(0);
    let base_mean = baseline.mean();
    manifest.set_estimate(baseline.mean(), baseline.half_width(), baseline.reached_target());
    let mut results: Vec<(usize, &str)> =
        candidates.iter().enumerate().map(|(i, (label, _))| (i + 1, *label)).collect();
    // Rank by impact, as a design-space search would.
    results.sort_by(|a, b| {
        let rel =
            |i: usize| outcome.pair_vs_baseline(i).expect("candidate").relative_change().abs();
        rel(b.0).partial_cmp(&rel(a.0)).expect("finite")
    });
    for (i, label) in &results {
        let pair = outcome.pair_vs_baseline(*i).expect("candidate");
        println!(
            "{:<38} {:>+8.2}% {:>12} {:>7} {:>7}",
            label,
            pair.relative_change() * 100.0,
            format!("±{:.2}%", pair.delta_half_width(policy.confidence) / base_mean * 100.0),
            pair.count(),
            if outcome.significant_vs_baseline(*i) { "real" } else { "noise" },
        );
    }
    println!();
    println!("every candidate was measured on the same decoded points — matched pairs by");
    println!("construction, and each record's decompress+decode cost paid once (§6.2).");

    if let Some(dir) = out {
        telemetry::flush_stream();
        manifest.write(dir.manifest(), Some(&telemetry::snapshot()))?;
        println!("run stream and manifest written to {}", dir.root().display());
    }
    Ok(())
}
