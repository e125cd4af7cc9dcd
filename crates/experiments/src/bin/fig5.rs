//! **Figure 5** — Restricted live-state bias: additional CPI error when
//! live-points store only correct-path-touched state, so wrong-path
//! instructions execute against effectively-uninitialized tags.
//!
//! Paper result: 0.1% average, 3.3% worst case additional bias over full
//! live-state. Shape target: small on most benchmarks, with a tail on
//! mispredict-heavy, memory-sensitive ones.

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy, StateScope};
use spectral_experiments::{load_cases, run_main, Args, ExpError, Report, Timer};
use spectral_stats::{SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;

fn main() -> std::process::ExitCode {
    run_main("fig5", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("fig5")?;
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_windows = args.window_count(120);
    let seeds = args.seed_count(2);
    let threads = args.thread_count();
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("fig5", &benchmarks.join(","));

    report.line("== Figure 5: restricted live-state additional CPI bias (8-way) ==");
    report.line(format!(
        "benchmarks={} windows/sample={} samples={}\n",
        cases.len(),
        n_windows,
        seeds
    ));

    // Exhaustive policy: process every live-point so the comparison is
    // matched (same windows, zero sampling noise).
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };

    let t = Timer::start();
    let mut points = 0u64;
    let mut rows: Vec<(String, f64)> = Vec::new();
    for case in &cases {
        let mut acc = 0.0;
        for seed in 0..seeds {
            let windows = design.windows(case.len, n_windows, 2000 + seed);
            let base_cfg = CreationConfig::for_machine(&machine).with_seed(9 + seed);
            let full_lib = LivePointLibrary::create_with_windows_parallel(
                &case.program,
                &base_cfg,
                &windows,
                threads,
            )?;
            let restricted_lib = LivePointLibrary::create_with_windows_parallel(
                &case.program,
                &base_cfg.clone().with_scope(StateScope::Restricted),
                &windows,
                threads,
            )?;

            let full = OnlineRunner::new(&full_lib, machine.clone()).run_parallel(
                &case.program,
                &policy,
                threads,
            )?;
            let restricted = OnlineRunner::new(&restricted_lib, machine.clone()).run_parallel(
                &case.program,
                &policy,
                threads,
            )?;
            points += (full.processed() + restricted.processed()) as u64;
            acc += (restricted.mean() - full.mean()).abs() / full.mean();
        }
        let add_bias = acc / seeds as f64 * 100.0;
        eprintln!("  {:14} +{add_bias:.3}%", case.name());
        rows.push((case.name().to_owned(), add_bias));
    }
    manifest.phase("bias_sweep", t.secs());
    manifest.points_processed = Some(points);

    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top = rows.len().min(10);
    let mut table = Vec::new();
    for (name, b) in &rows[..top] {
        table.push(vec![name.clone(), format!("{b:.3}%")]);
    }
    if rows.len() > top {
        let rest = &rows[top..];
        let avg = rest.iter().map(|r| r.1).sum::<f64>() / rest.len() as f64;
        table.push(vec!["avg. rest".into(), format!("{avg:.3}%")]);
    }
    report.blank();
    report.table("", &["benchmark", "restricted live-state add'l CPI bias"], table);

    let avg = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
    let worst = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    manifest.note("avg_addl_bias_pct", format!("{avg:.4}"));
    manifest.note("worst_addl_bias_pct", format!("{worst:.4}"));
    report.blank();
    report
        .line(format!("summary (paper: 0.1% avg / 3.3% worst): avg {avg:.3}%  worst {worst:.3}%"));

    args.finish(&report, &mut manifest)
}
