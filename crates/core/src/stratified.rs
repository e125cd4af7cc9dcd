//! Stratified live-point processing, the sampling optimization the
//! paper cites alongside matched pairs: with live-points its smaller
//! samples translate directly into time savings.
//!
//! Strata are position bands of the benchmark: for phased programs,
//! position tracks phase, so within-stratum CPI variance is far below
//! population variance and the combined estimate converges sooner.

use spectral_isa::Program;
use spectral_stats::{Confidence, StratifiedEstimator, MIN_SAMPLE_SIZE};
use spectral_uarch::MachineConfig;

use crate::creation::benchmark_length;
use crate::drive::{drive, Observe, Series};
use crate::error::CoreError;
use crate::library::LivePointLibrary;
use crate::livepoint::LivePoint;
use crate::resume::RunKind;
use crate::runner::RunPolicy;

/// Result of a stratified estimation run.
#[derive(Debug, Clone)]
pub struct StratifiedEstimate {
    estimator: StratifiedEstimator,
    confidence: Confidence,
    processed: usize,
    reached_target: bool,
}

impl StratifiedEstimate {
    /// Combined (population-weighted) CPI estimate.
    pub fn mean(&self) -> f64 {
        self.estimator.mean()
    }

    /// Confidence-interval half-width on the combined mean.
    pub fn half_width(&self) -> f64 {
        self.estimator.half_width(self.confidence)
    }

    /// Relative half-width.
    pub fn relative_half_width(&self) -> f64 {
        self.estimator.relative_half_width(self.confidence)
    }

    /// Live-points processed.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether the precision target was met before exhausting the
    /// library.
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }

    /// The per-stratum estimators.
    pub fn estimator(&self) -> &StratifiedEstimator {
        &self.estimator
    }
}

/// Processes a library with position-band strata: points are consumed
/// in shuffled order, each counted in the band its measured window
/// starts in, while the *combined* confidence interval drives
/// termination.
#[derive(Debug)]
pub struct StratifiedRunner<'l> {
    library: &'l LivePointLibrary,
    machine: MachineConfig,
    num_strata: usize,
}

impl<'l> StratifiedRunner<'l> {
    /// Create a runner with `num_strata` equal-width position bands.
    ///
    /// # Panics
    ///
    /// Panics if `num_strata` is zero.
    pub fn new(library: &'l LivePointLibrary, machine: MachineConfig, num_strata: usize) -> Self {
        assert!(num_strata > 0, "at least one stratum required");
        StratifiedRunner { library, machine, num_strata }
    }

    /// Serial run: [`run_parallel`](Self::run_parallel) on one thread.
    pub fn run(
        &self,
        program: &Program,
        policy: &RunPolicy,
    ) -> Result<StratifiedEstimate, CoreError> {
        self.run_parallel(program, policy, 1)
    }

    /// Run until the combined CI meets `policy.target_rel_err` with
    /// every stratum holding at least `MIN_SAMPLE_SIZE / num_strata`
    /// points (and two at minimum), or the library is exhausted.
    /// Threading, determinism and recovery are as for
    /// [`OnlineRunner::run_parallel`](crate::OnlineRunner::run_parallel),
    /// errors included.
    pub fn run_parallel(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
    ) -> Result<StratifiedEstimate, CoreError> {
        let band = (benchmark_length(program) / self.num_strata as u64).max(1);
        let run = drive(&Bands { runner: self, band }, self.library, program, policy, threads)?;
        Ok(StratifiedEstimate {
            estimator: run.acc,
            confidence: policy.confidence,
            processed: run.processed,
            reached_target: run.reached,
        })
    }
}

/// One stratified run: the runner plus its benchmark's band width.
/// Rows are `(CPI, measured window's start)`.
struct Bands<'a> {
    runner: &'a StratifiedRunner<'a>,
    band: u64,
}

impl Observe for Bands<'_> {
    type Acc = StratifiedEstimator;
    const KIND: RunKind = RunKind::Stratified;

    fn machines(&self) -> &[MachineConfig] {
        std::slice::from_ref(&self.runner.machine)
    }
    fn acc(&self) -> StratifiedEstimator {
        StratifiedEstimator::uniform(self.runner.num_strata)
    }
    fn push(&self, acc: &mut StratifiedEstimator, row: &[f64]) {
        let stratum = (row[1] as u64 / self.band) as usize;
        acc.push(stratum.min(self.runner.num_strata - 1), row[0]);
    }
    fn status(&self, acc: &StratifiedEstimator, policy: &RunPolicy) -> (f64, bool) {
        let floor = (MIN_SAMPLE_SIZE / self.runner.num_strata as u64).max(2);
        let rel = acc.relative_half_width(policy.confidence);
        let enough = acc.all_strata_have(floor) && acc.count() >= MIN_SAMPLE_SIZE;
        (rel, enough && rel <= policy.target_rel_err)
    }
    fn series<'a>(&self, acc: &'a StratifiedEstimator) -> Vec<Series<'a>> {
        vec![("cpi", None, acc)]
    }
    fn label(&self, lp: &LivePoint) -> Option<f64> {
        Some(lp.window.measure_start as f64)
    }
    fn arity(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::CreationConfig;
    use crate::runner::OnlineRunner;
    use spectral_workloads::tiny;

    fn setup() -> (Program, LivePointLibrary) {
        let p = tiny().build();
        let mut cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(60);
        cfg.unit_len = 500;
        cfg.warm_len = 1000;
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    #[test]
    fn stratified_estimate_matches_uniform_mean() {
        let (p, lib) = setup();
        let policy =
            RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
        let uniform = OnlineRunner::new(&lib, MachineConfig::eight_way()).run(&p, &policy).unwrap();
        let strat =
            StratifiedRunner::new(&lib, MachineConfig::eight_way(), 4).run(&p, &policy).unwrap();
        // Equal-weight position strata with systematic sampling put
        // nearly equal counts in each band, so the means agree closely.
        let rel = (uniform.mean() - strat.mean()).abs() / uniform.mean();
        assert!(rel < 0.05, "uniform {} vs stratified {}", uniform.mean(), strat.mean());
        assert_eq!(strat.processed(), lib.len());
    }

    #[test]
    fn stratified_ci_no_worse_on_phased_benchmark() {
        // tiny() is phased: position strata should capture the phase
        // structure and tighten (or at least match) the interval.
        let (p, lib) = setup();
        let policy =
            RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() };
        let uniform = OnlineRunner::new(&lib, MachineConfig::eight_way()).run(&p, &policy).unwrap();
        let strat =
            StratifiedRunner::new(&lib, MachineConfig::eight_way(), 4).run(&p, &policy).unwrap();
        assert!(
            strat.half_width() <= uniform.half_width() * 1.10,
            "stratified CI {} should not exceed uniform CI {} meaningfully",
            strat.half_width(),
            uniform.half_width()
        );
    }

    #[test]
    fn early_termination_with_loose_target() {
        let (p, lib) = setup();
        let strat = StratifiedRunner::new(&lib, MachineConfig::eight_way(), 2)
            .run(&p, &RunPolicy { target_rel_err: 0.9, ..RunPolicy::default() })
            .unwrap();
        assert!(strat.reached_target());
        assert!(strat.processed() < lib.len());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn stratified_runs_emit_progress_events() {
        spectral_telemetry::enable_run_summaries();
        let (p, lib) = setup();
        let runner = StratifiedRunner::new(&lib, MachineConfig::eight_way(), 2);
        let est = runner.run_parallel(&p, &RunPolicy::default(), 2).unwrap();
        // Other tests' runs may land in the tally too; ours is the
        // stratified series whose closing record carries its final n.
        let summaries = spectral_telemetry::take_run_summaries();
        assert!(
            summaries.iter().any(|s| s.run == "stratified"
                && s.metric == "cpi"
                && s.n == est.processed() as u64),
            "no stratified progress series ending at n = {} in {summaries:?}",
            est.processed()
        );
    }
}
