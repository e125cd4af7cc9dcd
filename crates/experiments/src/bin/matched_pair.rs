//! **§6.2** — Matched-pair comparison: sample-size reduction factors
//! across a sensitivity suite of design changes (latencies, queue sizes,
//! functional-unit mixes, cache parameters).
//!
//! Paper result: matched pairs cut the required sample size by 3.5–150×
//! relative to absolute estimation, with the largest wins on changes
//! that have little effect.

use spectral_core::{CreationConfig, LivePointLibrary, MatchedRunner, RunPolicy};
use spectral_experiments::{load_cases, run_main, Args, ExpError, Report, Timer};
use spectral_uarch::{FuPools, MachineConfig};

/// The recovery sidecar name of one (benchmark, variant) cell:
/// `--checkpoint` / `--resume` name a path *prefix* here, since one
/// invocation runs many independent matched-pair comparisons.
fn cell(bench: &str, variant: usize) -> String {
    format!("{bench}.v{variant}")
}

fn main() -> std::process::ExitCode {
    run_main("matched_pair", run)
}

fn run(mut args: Args) -> Result<(), ExpError> {
    if args.benchmarks.is_none() && args.limit.is_none() && !args.quick {
        args.benchmarks = Some(vec!["gcc-like".into(), "mcf-like".into(), "swim-like".into()]);
    }
    let cases = load_cases(&args)?;
    let library_cap = args.window_count(400);
    let threads = args.thread_count();
    let base = MachineConfig::eight_way();
    let mut report = Report::default();
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut manifest = args.manifest("matched_pair", &benchmarks.join(","));

    // The sensitivity suite (paper: "varying latencies, queue sizes,
    // functional unit mix, etc.").
    let variants: Vec<(&str, MachineConfig)> = vec![
        ("mem latency 100->120", base.clone().with_mem_latency(120)),
        ("mem latency 100->200", base.clone().with_mem_latency(200)),
        ("L2 latency 12->16", {
            let mut m = base.clone();
            m.lat.l2 = 16;
            m
        }),
        ("RUU/LSQ 128/64->96/48", base.clone().with_queues(96, 48)),
        ("RUU/LSQ 128/64->64/32", base.clone().with_queues(64, 32)),
        ("I-ALUs 4->2", base.clone().with_fu(FuPools { int_alu: 2, ..base.fu })),
        ("FP-ALUs 2->1", base.clone().with_fu(FuPools { fp_alu: 1, ..base.fu })),
        ("store buffer 16->8", {
            let mut m = base.clone();
            m.store_buffer = 8;
            m
        }),
        ("no change (control)", base.clone()),
    ];

    args.stamp_recovery(&mut manifest);
    let cells: Vec<String> =
        cases.iter().flat_map(|case| (0..variants.len()).map(|vi| cell(case.name(), vi))).collect();
    args.check_resume_prefix(&cells)?;

    report.line("== Matched-pair comparison (paper SS6.2): sample-size reduction ==");
    report.line(format!("benchmarks={} library cap={}\n", cases.len(), library_cap));

    let policy = RunPolicy::default();
    let mut all_factors: Vec<f64> = Vec::new();
    let mut rows = Vec::new();
    let mut pairs_total = 0u64;
    for case in &cases {
        let t = Timer::start();
        let cfg = CreationConfig::for_machine(&base).with_sample_size(library_cap);
        let library = LivePointLibrary::create_parallel(&case.program, &cfg, threads)?;
        manifest.phase(format!("create_library.{}", case.name()), t.secs());
        let t = Timer::start();
        for (vi, (label, variant)) in variants.iter().enumerate() {
            let runner = MatchedRunner::new(&library, base.clone(), variant.clone());
            let recovery = args.cell_recovery(&cell(case.name(), vi));
            let out = runner.run_parallel(
                &case.program,
                &RunPolicy { recovery, ..policy.clone() },
                threads,
            )?;
            let absolute =
                out.pair().required_absolute_sample(policy.target_rel_err, policy.confidence);
            let matched =
                out.pair().required_delta_sample(policy.target_rel_err, policy.confidence);
            let factor = out.reduction_factor(policy.target_rel_err);
            all_factors.push(factor);
            pairs_total += out.processed() as u64;
            rows.push(vec![
                case.name().to_owned(),
                (*label).to_owned(),
                format!("{:+.2}%", out.relative_change() * 100.0),
                if out.significant() { "yes" } else { "no" }.into(),
                out.processed().to_string(),
                matched.to_string(),
                absolute.to_string(),
                format!("{factor:.1}x"),
            ]);
        }
        manifest.phase(format!("run_variants.{}", case.name()), t.secs());
    }
    manifest.points_processed = Some(pairs_total);

    report.table(
        "",
        &[
            "benchmark",
            "design change",
            "dCPI",
            "signif",
            "pairs run",
            "n matched",
            "n absolute",
            "reduction",
        ],
        rows,
    );

    let min = all_factors.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let max = all_factors.iter().fold(0.0f64, |a, &b| a.max(b));
    let gm = (all_factors.iter().map(|f| f.ln()).sum::<f64>() / all_factors.len() as f64).exp();
    manifest.note("reduction_geo_mean", format!("{gm:.2}"));
    report.blank();
    report.line(format!(
        "reduction factors: min {min:.1}x  geo-mean {gm:.1}x  max {max:.1}x   (paper: 3.5x - 150x)"
    ));
    report.line("largest factors on no-effect changes, as the paper observes.");

    args.finish(&report, &mut manifest)
}
