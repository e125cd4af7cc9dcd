//! Online result monitoring: watch a CPI estimate and its confidence
//! interval converge *while the simulation runs* (paper §6.1).
//!
//! ```text
//! cargo run --release --example online_monitor [benchmark-name]
//! ```
//!
//! The paper notes this mode "has proven valuable during simulator
//! development to get quick-and-dirty performance estimates and detect
//! simulator bugs": after only ~100 live-points the interval is tight
//! enough to spot gross performance regressions. To show that, the
//! monitor also runs a deliberately mis-configured machine and flags it.
//!
//! The run also demonstrates the run stream: it starts a run directory
//! the way an experiment binary's `--out DIR` does, and afterwards
//! replays the `progress` and `anomaly` records a live dashboard (or
//! `spectral-doctor`) would consume.

use std::error::Error;

use spectral::core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral::telemetry::RunDir;
use spectral::uarch::MachineConfig;
use spectral::workloads::by_name;

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vpr-like".into());
    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let program = bench.build();
    let machine = MachineConfig::eight_way();

    println!("building library for {}…", bench.name());
    let config = CreationConfig::for_machine(&machine).with_sample_size(400);
    let library = LivePointLibrary::create(&program, &config)?;

    // Start a run directory: every merge stride appends a JSONL
    // progress record to its stream, every outlier point an anomaly
    // record (beside the spans and worker-timeline profiles).
    let run = RunDir::new(std::env::temp_dir().join("online_monitor_run"));
    run.start()?;

    // Fine-grained trajectory = the "online monitor" feed.
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 25, ..RunPolicy::default() };
    let runner = OnlineRunner::new(&library, machine.clone());
    let estimate = runner.run(&program, &policy)?;

    println!("\nlive monitor ({} live-points total):", estimate.processed());
    println!("{:>8}  {:>10}  {:>12}  {:>10}", "points", "CPI", "99.7% CI", "rel. CI");
    for &(n, mean, hw) in estimate.trajectory() {
        let bar = "#".repeat(((hw / mean * 100.0) as usize).min(40));
        println!("{n:>8}  {mean:>10.4}  ±{hw:>10.4}  ±{:>7.2}%  {bar}", hw / mean * 100.0);
    }

    // "Detect simulator bugs": an accidentally tiny store buffer shows
    // up within the first handful of points.
    let mut buggy = machine.clone();
    buggy.store_buffer = 1;
    let probe = RunPolicy { max_points: Some(100), trajectory_stride: 0, ..RunPolicy::default() };
    let good = runner.run(&program, &probe)?;
    let bad = OnlineRunner::new(&library, buggy).run(&program, &probe)?;
    println!("\nregression probe after 100 points:");
    println!("  expected machine : CPI {:.4} ± {:.4}", good.mean(), good.half_width());
    println!("  buggy machine    : CPI {:.4} ± {:.4}", bad.mean(), bad.half_width());
    let separated = (bad.mean() - good.mean()).abs() > good.half_width() + bad.half_width();
    println!(
        "  verdict          : {}",
        if separated {
            "performance bug detected (intervals do not overlap)"
        } else {
            "no significant difference"
        }
    );

    // Replay the events the runs just streamed — the same feed a live
    // dashboard would tail, and what `spectral-doctor` diagnoses.
    spectral::telemetry::flush_stream();
    let text = std::fs::read_to_string(run.stream())?;
    let progress: Vec<&str> =
        text.lines().filter(|l| l.starts_with("{\"type\":\"progress\"")).collect();
    let anomalies: Vec<&str> =
        text.lines().filter(|l| l.starts_with("{\"type\":\"anomaly\"")).collect();
    println!("\nsampling-health events in the run stream ({}):", run.stream().display());
    println!("  {} progress records, {} anomaly records", progress.len(), anomalies.len());
    for line in progress.iter().take(3) {
        println!("  {line}");
    }
    if let Some(line) = anomalies.first() {
        println!("  {line}");
    }
    println!("  diagnose with: spectral-doctor analyze --run {}", run.root().display());
    println!("  watch live   : spectral-doctor watch --run {} --once", run.root().display());
    Ok(())
}
