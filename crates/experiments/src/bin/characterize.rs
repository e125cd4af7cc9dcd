//! Workload characterization: the suite-overview table backing every
//! other experiment (dynamic length, reference CPI, branch MPKI, cache
//! miss rates, memory footprint, and per-window CPI variability — the
//! quantity that determines each benchmark's required sample size).

use spectral_experiments::{
    fmt_bytes, load_cases, par_map, run_main, Args, ExpError, Report, Timer,
};
use spectral_isa::Emulator;
use spectral_stats::{required_sample_size, Confidence, SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;
use spectral_warming::{complete_detailed, smarts_run};

fn main() -> std::process::ExitCode {
    run_main("characterize", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("characterize")?;
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_windows = args.window_count(120);
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("characterize", &benchmarks.join(","));

    report.line("== Synthetic suite characterization (8-way baseline) ==\n");
    // Benchmarks are independent: characterize them in parallel.
    let t = Timer::start();
    let rows = par_map(&cases, args.thread_count(), |case| {
        let stats = complete_detailed(&machine, &case.program);
        // Footprint from a functional pass.
        let mut emu = Emulator::new(&case.program);
        while emu.step().is_some() {}
        let footprint = emu.memory().footprint_bytes();
        // Per-window variability via a full-warming sample.
        let windows = design.windows(case.len, n_windows, 777);
        let sampled = smarts_run(&machine, &case.program, &windows);
        let cv = sampled.estimator.coefficient_of_variation();
        let needed = required_sample_size(cv, 0.03, Confidence::C99_7);

        vec![
            case.name().to_owned(),
            format!("{:.1}M", case.len as f64 / 1e6),
            format!("{:.3}", stats.cpi()),
            format!("{:.1}", stats.mispredicts as f64 / stats.committed as f64 * 1000.0),
            // l1d_misses counts load and store-drain misses alike.
            format!(
                "{:.1}%",
                stats.l1d_misses as f64 / (stats.loads + stats.stores).max(1) as f64 * 100.0
            ),
            format!("{:.1}%", stats.l2_misses as f64 / stats.l1d_misses.max(1) as f64 * 100.0),
            fmt_bytes(footprint),
            format!("{cv:.2}"),
            needed.to_string(),
        ]
    });
    manifest.phase("characterize_suite", t.secs());
    manifest.points_processed = Some(cases.len() as u64 * n_windows);
    report.table(
        "",
        &[
            "benchmark",
            "length",
            "CPI",
            "mispred/kinst",
            "L1D miss*",
            "L2 miss",
            "footprint",
            "window CV",
            "n for ±3%",
        ],
        rows,
    );
    report.blank();
    report.line("  *misses per data access (loads + committed stores)");
    report.line("window CV drives sample size (n ≈ (3·cv/0.03)²) — the paper's Table 2 runtime");
    report.line("spread (1 s … 12 min per benchmark) is exactly this variation.");

    args.finish(&report, &mut manifest)
}
