//! Stratified live-point processing (the paper's cited optimization):
//! for phase-heavy benchmarks, position-band strata shrink the combined
//! confidence interval at equal sample size — and with live-points,
//! smaller samples translate directly into shorter runtimes (the paper's
//! point that sampling optimizations finally pay off once functional
//! warming is gone).

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy, StratifiedRunner};
use spectral_experiments::{load_cases, run_main, Args, ExpError, Report, Timer};
use spectral_uarch::MachineConfig;

fn main() -> std::process::ExitCode {
    run_main("stratified", run)
}

/// The runs per benchmark, each with its own recovery sidecar
/// `<prefix>.<benchmark>.<leg>` under `--checkpoint` / `--resume`.
const LEGS: [&str; 4] = ["uniform", "strat", "uniform-early", "strat-early"];

fn run(mut args: Args) -> Result<(), ExpError> {
    if args.benchmarks.is_none() && args.limit.is_none() && !args.quick {
        // Phased benchmarks, where position tracks phase.
        args.benchmarks = Some(vec![
            "gzip-like".into(),
            "gcc-like".into(),
            "bzip2-like".into(),
            "mgrid-like".into(),
            "ammp-like".into(),
        ]);
    }
    let machine = MachineConfig::eight_way();
    let library_cap = args.window_count(400);
    let threads = args.thread_count();
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("stratified", &benchmarks.join(","));
    args.stamp_recovery(&mut manifest);
    let cells: Vec<String> =
        benchmarks.iter().flat_map(|b| LEGS.map(|leg| format!("{b}.{leg}"))).collect();
    args.check_resume_prefix(&cells)?;

    report.line("== Stratified vs uniform estimation (position-band strata) ==");
    report.line(format!("benchmarks={} library cap={}\n", cases.len(), library_cap));

    let exhaustive =
        RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
    // Early termination at the paper's ±3% target.
    let target = RunPolicy::default();
    let leg = |bench: &str, name: &str, policy: &RunPolicy| RunPolicy {
        recovery: args.cell_recovery(&format!("{bench}.{name}")),
        ..policy.clone()
    };
    let t = Timer::start();
    let mut points = 0u64;
    let mut rows = Vec::new();
    for case in &cases {
        let cfg = CreationConfig::for_machine(&machine).with_sample_size(library_cap);
        let lib = LivePointLibrary::create_parallel(&case.program, &cfg, threads)?;

        let (program, name) = (&case.program, case.name());
        let online = OnlineRunner::new(&lib, machine.clone());
        let stratified = StratifiedRunner::new(&lib, machine.clone(), 4);
        // Both exhaustive legs run on `--threads` workers. The
        // early-termination legs stay serial, so the point counts they
        // report are the exact stop points.
        let uniform = online.run_parallel(program, &leg(name, "uniform", &exhaustive), threads)?;
        let strat = stratified.run_parallel(program, &leg(name, "strat", &exhaustive), threads)?;
        let u_early = online.run(program, &leg(name, "uniform-early", &target))?;
        let s_early = stratified.run(program, &leg(name, "strat-early", &target))?;
        points +=
            (uniform.processed() + strat.processed() + u_early.processed() + s_early.processed())
                as u64;

        rows.push(vec![
            case.name().to_owned(),
            format!("{:.4}", uniform.mean()),
            format!("{:.4}", strat.mean()),
            format!("±{:.2}%", uniform.relative_half_width() * 100.0),
            format!("±{:.2}%", strat.relative_half_width() * 100.0),
            format!("{}{}", u_early.processed(), if u_early.reached_target() { "" } else { "*" }),
            format!("{}{}", s_early.processed(), if s_early.reached_target() { "" } else { "*" }),
        ]);
    }
    manifest.phase("stratified_vs_uniform", t.secs());
    manifest.points_processed = Some(points);
    report.table(
        "",
        &[
            "benchmark",
            "uniform CPI",
            "strat CPI",
            "uniform CI",
            "strat CI",
            "n uniform @3%",
            "n strat @3%",
        ],
        rows,
    );
    report.line("  * library exhausted before the ±3% target");
    report.blank();
    report.line("shape: same means; stratified intervals no wider, usually tighter on phased");
    report.line("benchmarks — fewer live-points for the same confidence.");

    args.finish(&report, &mut manifest)
}
