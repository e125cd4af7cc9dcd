//! **Figure 4** — Adaptive warming bias: additional CPI error introduced
//! by AW-MRRL (99.9% reuse coverage) relative to full warming, on the
//! 8-way baseline.
//!
//! Paper result: 1.1% average, 5.4% worst case (stitched); 1.9% / 11%
//! without stitched state. Shape target: adaptive warming is visibly
//! worse than full warming, with a heavy tail on phase-heavy benchmarks,
//! and the unstitched variant is worse still.

use spectral_experiments::{load_cases, par_map, run_main, Args, ExpError, Report, Timer};
use spectral_stats::{SampleDesign, SystematicDesign};
use spectral_uarch::MachineConfig;
use spectral_warming::{adaptive_run, mrrl_analyze, smarts_run};

/// MRRL reuse-coverage points: the paper's recommended 99.9% plus a
/// cheaper setting to expose the accuracy-vs-warming Pareto curve
/// ("increasing warming … will improve accuracy, but further reduces
/// the speed of adaptive warming", §4.2).
const REUSE_POINTS: [f64; 3] = [0.999, 0.95, 0.5];

fn main() -> std::process::ExitCode {
    run_main("fig4", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("fig4")?;
    let machine = MachineConfig::eight_way();
    let design = SystematicDesign::paper_8way();
    let n_windows = args.window_count(150);
    let seeds = args.seed_count(3);
    let cases = load_cases(&args)?;
    let benchmarks: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let mut report = Report::default();
    let mut manifest = args.manifest("fig4", &benchmarks.join(","));

    report.line("== Figure 4: AW-MRRL additional CPI bias vs full warming (8-way) ==");
    report.line(format!(
        "benchmarks={} windows/sample={} samples={}\n",
        cases.len(),
        n_windows,
        seeds
    ));

    // Per-case bias runs are independent: fan out over benchmarks.
    struct CaseResult {
        name: String,
        st: f64,
        un: f64,
        ch: f64,
        hf: f64,
        warm: f64,
        warm_cheap: f64,
        warm_half: f64,
    }
    let t = Timer::start();
    let results = par_map(&cases, args.thread_count(), |case| {
        let mut st_acc = 0.0;
        let mut un_acc = 0.0;
        let mut cheap_acc = 0.0;
        let mut half_acc = 0.0;
        let mut warm = 0.0;
        let mut warm_cheap = 0.0;
        let mut warm_half = 0.0;
        for seed in 0..seeds {
            let windows = design.windows(case.len, n_windows, 1000 + seed);
            let full = smarts_run(&machine, &case.program, &windows);
            let analysis = mrrl_analyze(&case.program, &windows, 32, REUSE_POINTS[0]);
            let st = adaptive_run(&machine, &case.program, &windows, &analysis, true);
            let un = adaptive_run(&machine, &case.program, &windows, &analysis, false);
            st_acc += (st.sampled.cpi() - full.cpi()).abs() / full.cpi();
            un_acc += (un.sampled.cpi() - full.cpi()).abs() / full.cpi();
            warm += st.sampled.warming_insts as f64
                / (st.sampled.warming_insts + st.sampled.skipped_insts) as f64;
            let cheap = mrrl_analyze(&case.program, &windows, 32, REUSE_POINTS[1]);
            let stc = adaptive_run(&machine, &case.program, &windows, &cheap, true);
            cheap_acc += (stc.sampled.cpi() - full.cpi()).abs() / full.cpi();
            warm_cheap += stc.sampled.warming_insts as f64
                / (stc.sampled.warming_insts + stc.sampled.skipped_insts) as f64;
            let half = mrrl_analyze(&case.program, &windows, 32, REUSE_POINTS[2]);
            let sth = adaptive_run(&machine, &case.program, &windows, &half, true);
            half_acc += (sth.sampled.cpi() - full.cpi()).abs() / full.cpi();
            warm_half += sth.sampled.warming_insts as f64
                / (sth.sampled.warming_insts + sth.sampled.skipped_insts) as f64;
        }
        CaseResult {
            name: case.name().to_owned(),
            st: st_acc / seeds as f64 * 100.0,
            un: un_acc / seeds as f64 * 100.0,
            ch: cheap_acc / seeds as f64 * 100.0,
            hf: half_acc / seeds as f64 * 100.0,
            warm,
            warm_cheap,
            warm_half,
        }
    });
    manifest.phase("bias_sweep", t.secs());
    // Five sampled runs per (case, seed): full warming plus the four
    // adaptive variants, all over the same window set.
    manifest.points_processed = Some(cases.len() as u64 * seeds * n_windows * 5);

    let mut rows: Vec<(String, f64, f64)> = Vec::new(); // (name, stitched@99.9, unstitched@99.9)
    let mut cheap_rows: Vec<f64> = Vec::new(); // stitched @ 95%
    let mut half_rows: Vec<f64> = Vec::new(); // stitched @ 50%
    let mut warm_fraction = 0.0;
    let mut warm_fraction_cheap = 0.0;
    let mut warm_fraction_half = 0.0;
    for r in results {
        eprintln!(
            "  {:14} stitched {:.2}%  unstitched {:.2}%  @95% {:.2}%  @50% {:.2}%",
            r.name, r.st, r.un, r.ch, r.hf
        );
        rows.push((r.name, r.st, r.un));
        cheap_rows.push(r.ch);
        half_rows.push(r.hf);
        warm_fraction += r.warm;
        warm_fraction_cheap += r.warm_cheap;
        warm_fraction_half += r.warm_half;
    }
    let runs = (cases.len() as u64 * seeds) as f64;
    warm_fraction = warm_fraction / runs * 100.0;
    warm_fraction_cheap = warm_fraction_cheap / runs * 100.0;
    warm_fraction_half = warm_fraction_half / runs * 100.0;

    // Paper-style presentation: worst offenders first, then "avg. rest".
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top = rows.len().min(10);
    let mut table = Vec::new();
    for (name, st, un) in &rows[..top] {
        table.push(vec![name.clone(), format!("{st:.2}%"), format!("{un:.2}%")]);
    }
    if rows.len() > top {
        let rest = &rows[top..];
        let avg = |f: &dyn Fn(&(String, f64, f64)) -> f64| {
            rest.iter().map(f).sum::<f64>() / rest.len() as f64
        };
        table.push(vec![
            "avg. rest".into(),
            format!("{:.2}%", avg(&|r| r.1)),
            format!("{:.2}%", avg(&|r| r.2)),
        ]);
    }
    report.blank();
    report.table("", &["benchmark", "AW-MRRL stitched (add'l bias)", "AW-MRRL unstitched"], table);

    let avg_st = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
    let worst_st = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let avg_un = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    let worst_un = rows.iter().map(|r| r.2).fold(0.0f64, f64::max);
    let avg_ch = cheap_rows.iter().sum::<f64>() / cheap_rows.len() as f64;
    let worst_ch = cheap_rows.iter().fold(0.0f64, |a, &b| a.max(b));
    let avg_hf = half_rows.iter().sum::<f64>() / half_rows.len() as f64;
    let worst_hf = half_rows.iter().fold(0.0f64, |a, &b| a.max(b));
    manifest.note("stitched_avg_bias_pct", format!("{avg_st:.3}"));
    manifest.note("stitched_worst_bias_pct", format!("{worst_st:.3}"));
    report.blank();
    report.line(
        "summary (paper: stitched 1.1% avg / 5.4% worst at 20% warming; unstitched 1.9% / 11%):",
    );
    report.line(format!(
        "  stitched @99.9% : avg {avg_st:.2}%  worst {worst_st:.2}%  (warming {warm_fraction:.0}% of gaps)"
    ));
    report.line(format!(
        "  stitched @95%   : avg {avg_ch:.2}%  worst {worst_ch:.2}%  (warming {warm_fraction_cheap:.0}% of gaps)"
    ));
    report.line(format!(
        "  stitched @50%   : avg {avg_hf:.2}%  worst {worst_hf:.2}%  (warming {warm_fraction_half:.0}% of gaps)"
    ));
    report.line(format!("  unstitched      : avg {avg_un:.2}%  worst {worst_un:.2}%"));
    report.line("the accuracy-vs-warming Pareto: less warming -> more bias, as the paper argues.");

    args.finish(&report, &mut manifest)
}
