//! Ablations for the design decisions DESIGN.md calls out:
//!
//! 1. **Wrong-path modeling** (§5's foundation): how much CPI do
//!    wrong-path instructions contribute, per benchmark? The paper
//!    argues their effects "cannot be ignored given our tight bias
//!    goals"; turning the mechanism off quantifies that.
//! 2. **L2 record stream policy**: live-point L2 state recorded from
//!    max-L1-filtered misses (default) vs the raw reference stream
//!    (Barr-style) — checkpointed-warming bias under each.

use spectral_core::{CreationConfig, L2StreamPolicy, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral_experiments::{load_cases, run_main, Args, ExpError, Report, Timer};
use spectral_stats::{SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;
use spectral_warming::{complete_detailed, smarts_run};

fn main() -> std::process::ExitCode {
    run_main("ablation", run)
}

fn run(mut args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("ablation")?;
    if args.benchmarks.is_none() && args.limit.is_none() && !args.quick {
        args.benchmarks = Some(vec![
            "gcc-like".into(),
            "mcf-like".into(),
            "crafty-like".into(),
            "swim-like".into(),
        ]);
    }
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_windows = args.window_count(100);
    let threads = args.thread_count();
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("ablation", &benchmarks.join(","));

    report.line("== Ablation 1: wrong-path modeling (complete detailed runs) ==\n");
    let t = Timer::start();
    let mut rows = Vec::new();
    for case in &cases {
        let with_wp = complete_detailed(&machine, &case.program);
        let without = complete_detailed(&machine.clone().without_wrong_path(), &case.program);
        rows.push(vec![
            case.name().to_owned(),
            format!("{:.4}", with_wp.cpi()),
            format!("{:.4}", without.cpi()),
            format!("{:+.2}%", (without.cpi() - with_wp.cpi()) / with_wp.cpi() * 100.0),
            with_wp.wrong_path_fetched.to_string(),
        ]);
    }
    manifest.phase("ablate_wrong_path", t.secs());
    report.table(
        "",
        &["benchmark", "CPI (modeled)", "CPI (no wrong path)", "delta", "wp insts fetched"],
        rows,
    );
    report.line("wrong-path work perturbs cache tags and contends for resources; removing the");
    report.line("mechanism shifts CPI, which is why restricted live-state (fig5) carries bias.\n");

    report.line("== Ablation 2: L2 record stream policy (checkpointed-warming bias) ==\n");
    let t = Timer::start();
    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    let mut points = 0u64;
    let mut rows = Vec::new();
    for case in &cases {
        let windows = design.windows(case.len, n_windows, 555);
        let smarts = smarts_run(&machine, &case.program, &windows);
        let mut bias = Vec::new();
        for l2_policy in [L2StreamPolicy::FilteredByMaxL1, L2StreamPolicy::Unfiltered] {
            let mut cfg = CreationConfig::for_machine(&machine);
            cfg.l2_policy = l2_policy;
            let lib = LivePointLibrary::create_with_windows_parallel(
                &case.program,
                &cfg,
                &windows,
                threads,
            )?;
            let est = OnlineRunner::new(&lib, machine.clone()).run_parallel(
                &case.program,
                &policy,
                threads,
            )?;
            points += est.processed() as u64;
            bias.push((est.mean() - smarts.cpi()).abs() / smarts.cpi() * 100.0);
        }
        rows.push(vec![
            case.name().to_owned(),
            format!("{:.3}%", bias[0]),
            format!("{:.3}%", bias[1]),
        ]);
    }
    manifest.phase("ablate_l2_policy", t.secs());
    manifest.points_processed = Some(points);
    report.table(
        "",
        &["benchmark", "filtered-by-max-L1 (default)", "unfiltered (Barr-style)"],
        rows,
    );
    report.line("bias vs full warming on identical windows; the filtered default is exact when");
    report.line("the simulated L1s equal the library maxima (DESIGN.md decision #6).");

    args.finish(&report, &mut manifest)
}
