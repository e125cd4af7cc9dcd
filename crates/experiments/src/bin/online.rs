//! **§6.1** — Random-order processing and online results: the running
//! estimate and its confidence interval are available while the
//! simulation runs, converging toward the final value; the run can stop
//! the moment the target confidence is met. Also demonstrates parallel
//! processing (window independence).

use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
use spectral_experiments::{
    fmt_secs, load_cases, run_main, stamp_library, Args, ExpError, IoContext, Report, Timer,
};
use spectral_uarch::MachineConfig;
use spectral_warming::complete_detailed;

fn main() -> std::process::ExitCode {
    run_main("online", run)
}

fn run(mut args: Args) -> Result<(), ExpError> {
    if args.benchmarks.is_none() && args.limit.is_none() {
        args.benchmarks = Some(vec!["gcc-like".into()]);
    }
    let cases = load_cases(&args)?;
    let case = &cases[0];
    let machine = MachineConfig::eight_way();
    let library_cap = args.window_count(400);
    let mut report = Report::default();
    let mut manifest = args.manifest("online", case.name());
    manifest.seed = Some(CreationConfig::for_machine(&machine).seed);
    args.stamp_recovery(&mut manifest);

    report.line("== Online results (paper SS6.1): random-order convergence ==");
    report.line(format!("benchmark={} library cap={}\n", case.name(), library_cap));

    let t = Timer::start();
    let library = match &args.library {
        Some(path) => {
            // Metadata peek first: the header tells us what we are about
            // to run. A v2 file is read for its header and footer only;
            // a v1 file is read whole and re-framed, here and again by
            // `open` below.
            let header =
                LivePointLibrary::open_header(path).context("cannot read library header", path)?;
            report.line(format!(
                "library {}: v{} {} ({:?}), {} points in {} blocks",
                path.display(),
                header.format_version,
                header.benchmark,
                header.scope,
                header.points,
                header.blocks,
            ));
            let library = LivePointLibrary::open(path).context("cannot open library", path)?;
            if library.benchmark() != case.name() {
                return Err(ExpError::msg(format!(
                    "library {} was built for benchmark '{}', not '{}'",
                    path.display(),
                    library.benchmark(),
                    case.name()
                )));
            }
            manifest.phase("open_library", t.secs());
            library
        }
        None => {
            let cfg = CreationConfig::for_machine(&machine).with_sample_size(library_cap);
            let library =
                LivePointLibrary::create_parallel(&case.program, &cfg, args.thread_count())?;
            manifest.phase("create_library", t.secs());
            library
        }
    };
    if let Some(path) = &args.save_library {
        let t = Timer::start();
        args.write_library(&library, path)?;
        manifest.phase("save_library", t.secs());
        report.line(format!("library saved to {} (format v2)", path.display()));
    }
    stamp_library(&mut manifest, &library);
    let runner = OnlineRunner::new(&library, machine.clone());

    // Exhaustive run with a fine trajectory: the convergence picture.
    // Keeping the real ±3% target (but not stopping at it) means the
    // sampling-health event stream records when the run *became*
    // eligible, so spectral-doctor can report wasted points past that.
    // This is the run that checkpoints / resumes: its processing order
    // is deterministic, so a resumed run replays the identical
    // estimator push sequence and lands on bit-identical estimates.
    let t = Timer::start();
    let target = args.target_rel_err(RunPolicy::default().target_rel_err);
    let policy = RunPolicy {
        target_rel_err: target,
        stop_at_target: false,
        trajectory_stride: 20,
        recovery: args.recovery(),
        ..RunPolicy::default()
    };
    let estimate = runner.run_parallel(&case.program, &policy, args.thread_count())?;
    manifest.phase("run_exhaustive", t.secs());
    let reference = complete_detailed(&machine, &case.program);

    let rows: Vec<Vec<String>> = estimate
        .trajectory()
        .iter()
        .map(|&(n, mean, hw)| {
            vec![
                n.to_string(),
                format!("{mean:.4}"),
                format!("±{hw:.4}"),
                format!("±{:.2}%", hw / mean * 100.0),
            ]
        })
        .collect();
    report.table("", &["live-points", "CPI estimate", "99.7% CI", "relative"], rows);
    report.blank();
    report.line(format!(
        "final estimate {:.4} ± {:.4}  |  complete-detailed reference {:.4}  (bias {:.2}%)",
        estimate.mean(),
        estimate.half_width(),
        reference.cpi(),
        (estimate.mean() - reference.cpi()).abs() / reference.cpi() * 100.0
    ));

    // Early termination at the target (the paper's ±3% by default).
    let t = Timer::start();
    let early =
        runner.run(&case.program, &RunPolicy { target_rel_err: target, ..RunPolicy::default() })?;
    manifest.phase("run_early_termination", t.secs());
    manifest.points_processed = Some(early.processed() as u64);
    manifest.set_estimate(early.mean(), early.half_width(), early.reached_target());
    report.blank();
    report.line(format!(
        "early termination at ±{:.0}% @ 99.7%: {} live-points in {} (reached: {})",
        target * 100.0,
        early.processed(),
        fmt_secs(t.secs()),
        early.reached_target()
    ));

    // Parallel farm: same estimate, more workers (wall-clock gains
    // require a multi-core host; correctness holds regardless).
    let mut farm = vec![1usize, 2, 4, 8];
    if let Some(t) = args.threads {
        if !farm.contains(&t) {
            farm.push(t);
        }
    }
    let t = Timer::start();
    for threads in farm {
        let t = Timer::start();
        let est = runner.run_parallel(
            &case.program,
            &RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() },
            threads,
        )?;
        report.line(format!(
            "parallel x{threads}: {} points, CPI {:.4}, {}",
            est.processed(),
            est.mean(),
            fmt_secs(t.secs())
        ));
    }
    manifest.phase("run_parallel_farm", t.secs());
    report.blank();
    report.line("shape: CI tightens as points accumulate; estimates are unbiased at any cut;");
    report.line("parallel runs return the same estimate faster (independence, SS6).");

    args.finish(&report, &mut manifest)
}
