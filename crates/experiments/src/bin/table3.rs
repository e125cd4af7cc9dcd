//! **Table 3** — Summary of simulation-sampling warming methods:
//! accuracy (CPI bias vs complete detailed simulation), runtime,
//! scaling behaviour, checkpoint independence, library size, and the
//! microarchitectural parameters each method fixes.
//!
//! Paper row targets: full warming 0.6% (1.6%) bias; AW-MRRL 1.1%
//! (5.4%) and loses window independence unless bias grows; live-points
//! match full warming's bias, run fastest, and fix only the maximum
//! cache/TLB geometry plus the stored predictor set.

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral_experiments::{
    fmt_bytes, fmt_secs, load_cases, run_main, Args, ExpError, Report, Timer,
};
use spectral_stats::{SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;
use spectral_warming::{adaptive_run, complete_detailed, mrrl_analyze, smarts_run};

fn main() -> std::process::ExitCode {
    run_main("table3", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("table3")?;
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_windows = args.window_count(150);
    let threads = args.thread_count();
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("table3", &benchmarks.join(","));

    report.line("== Table 3: summary of warming methods (8-way) ==");
    report.line(format!("benchmarks={} windows/sample={}\n", cases.len(), n_windows));

    let mut full_bias = Vec::new(); // vs reference: includes sampling error
    let mut aw_bias = Vec::new(); // additional, matched vs full warming
    let mut lp_bias = Vec::new(); // additional, matched vs full warming
    let mut t_ref = 0.0;
    let mut t_smarts = 0.0;
    let mut t_aw = 0.0;
    let mut t_lp = 0.0;
    let mut lib_bytes = 0u64;
    let mut points = 0u64;

    let policy = RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };

    let t_all = Timer::start();
    for case in &cases {
        let windows = design.windows(case.len, n_windows, 31337);

        let t = Timer::start();
        let reference = complete_detailed(&machine, &case.program);
        t_ref += t.secs();
        let ref_cpi = reference.cpi();

        let t = Timer::start();
        let smarts = smarts_run(&machine, &case.program, &windows);
        t_smarts += t.secs();
        full_bias.push((smarts.cpi() - ref_cpi).abs() / ref_cpi * 100.0);

        let analysis = mrrl_analyze(&case.program, &windows, 32, 0.999);
        let t = Timer::start();
        let adaptive = adaptive_run(&machine, &case.program, &windows, &analysis, true);
        t_aw += t.secs();
        // Additional bias, matched on the same windows (the paper's
        // Fig 4 method): isolates warming error from sampling error.
        aw_bias.push((adaptive.sampled.cpi() - smarts.cpi()).abs() / smarts.cpi() * 100.0);

        let cfg = CreationConfig::for_machine(&machine).with_sample_size(n_windows);
        let library =
            LivePointLibrary::create_with_windows_parallel(&case.program, &cfg, &windows, threads)?;
        lib_bytes += library.total_compressed_bytes();
        let t = Timer::start();
        let estimate = OnlineRunner::new(&library, machine.clone()).run_parallel(
            &case.program,
            &policy,
            threads,
        )?;
        t_lp += t.secs();
        points += estimate.processed() as u64;
        lp_bias.push((estimate.mean() - smarts.cpi()).abs() / smarts.cpi() * 100.0);

        eprintln!(
            "  {:14} ref {:.3}  smarts {:.2}%  aw {:.2}%  lp {:.2}%",
            case.name(),
            ref_cpi,
            full_bias.last().unwrap(),
            aw_bias.last().unwrap(),
            lp_bias.last().unwrap()
        );
    }
    manifest.phase("method_comparison", t_all.secs());
    manifest.points_processed = Some(points);

    let n = cases.len() as f64;
    let stat = |v: &[f64]| -> (f64, f64) {
        (v.iter().sum::<f64>() / v.len() as f64, v.iter().fold(0.0f64, |a, &b| a.max(b)))
    };
    let (fb_avg, fb_worst) = stat(&full_bias);
    let (ab_avg, ab_worst) = stat(&aw_bias);
    let (lb_avg, lb_worst) = stat(&lp_bias);
    manifest.note("lp_addl_bias_avg_pct", format!("{lb_avg:.4}"));
    manifest.note("lp_addl_bias_worst_pct", format!("{lb_worst:.4}"));

    let rows = vec![
        vec![
            "CPI error vs reference*".into(),
            "none".into(),
            format!("{fb_avg:.2}% ({fb_worst:.2}%)"),
            "= full + row below".into(),
            "= full + row below".into(),
        ],
        vec![
            "add'l bias vs full warming".into(),
            "n/a".into(),
            "0 (definition)".into(),
            format!("{ab_avg:.2}% ({ab_worst:.2}%)"),
            format!("{lb_avg:.3}% ({lb_worst:.3}%)"),
        ],
        vec![
            "avg benchmark runtime".into(),
            fmt_secs(t_ref / n),
            fmt_secs(t_smarts / n),
            fmt_secs(t_aw / n),
            fmt_secs(t_lp / n),
        ],
        vec![
            "runtime scaling".into(),
            "O(B x DS)".into(),
            "O(B)".into(),
            "O(1)*".into(),
            "O(C)".into(),
        ],
        vec![
            "independent checkpoints".into(),
            "n/a".into(),
            "n/a".into(),
            "no*".into(),
            "yes".into(),
        ],
        vec![
            "suite library size".into(),
            "n/a".into(),
            "n/a".into(),
            "(AW ckpts: see fig7)".into(),
            fmt_bytes(lib_bytes),
        ],
        vec![
            "fixed uarch parameters".into(),
            "none".into(),
            "none".into(),
            "none".into(),
            "max cache/TLB, bpred set".into(),
        ],
    ];
    report.blank();
    report.table(
        "",
        &["", "complete (sim-outorder)", "full warming (SMARTS)", "AW-MRRL", "live-points"],
        rows,
    );
    report.line(
        "  *includes sampling error at this sample size (the paper's samples are ~10,000 windows);",
    );
    report.line(
        "   the additional-bias row is matched on identical windows, so sampling error cancels.",
    );
    report.line(
        "  *unstitched AW-MRRL checkpoints are independent, at considerably higher bias (fig4)",
    );
    report.blank();
    report.line("paper targets: full warming 0.6% (1.6%) vs reference; AW-MRRL +1.1% (5.4%);");
    report
        .line("live-points +0.0% — identical to full warming, the paper's central accuracy claim.");

    args.finish(&report, &mut manifest)
}
