//! Matched-pair comparative experiments over a live-point library
//! (paper §6.2).

use spectral_isa::Program;
use spectral_stats::{Confidence, MatchedPair, MIN_SAMPLE_SIZE};
use spectral_uarch::MachineConfig;

use crate::drive::{drive, Observe, Series};
use crate::error::CoreError;
use crate::library::LivePointLibrary;
use crate::resume::RunKind;
use crate::runner::RunPolicy;

/// Result of a matched-pair comparison between two machines.
#[derive(Debug, Clone)]
pub struct MatchedOutcome {
    pair: MatchedPair,
    confidence: Confidence,
    processed: usize,
    reached_target: bool,
}

impl MatchedOutcome {
    /// Mean per-window CPI delta (`experiment − base`).
    pub fn delta_mean(&self) -> f64 {
        self.pair.delta_mean()
    }

    /// Confidence-interval half-width on the delta.
    pub fn delta_half_width(&self) -> f64 {
        self.pair.delta_half_width(self.confidence)
    }

    /// Relative CPI change of the experiment vs the base.
    pub fn relative_change(&self) -> f64 {
        self.pair.relative_change()
    }

    /// Whether the delta is statistically distinguishable from zero.
    pub fn significant(&self) -> bool {
        self.pair.significant(self.confidence)
    }

    /// Matched-pair sample-size reduction factor vs an absolute estimate
    /// at `rel_err` (the paper reports 3.5–150×).
    pub fn reduction_factor(&self, rel_err: f64) -> f64 {
        self.pair.reduction_factor(rel_err, self.confidence)
    }

    /// Live-point pairs processed.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether the run stopped at target confidence (rather than
    /// exhausting the library).
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }

    /// The underlying paired estimators.
    pub fn pair(&self) -> &MatchedPair {
        &self.pair
    }
}

/// Runs the *same* live-points under a base and an experimental machine
/// and builds the confidence interval directly on the per-window delta —
/// which typically needs far fewer points than an absolute estimate,
/// protecting a fixed-size library from exhaustion (§6.2).
#[derive(Debug)]
pub struct MatchedRunner<'l> {
    library: &'l LivePointLibrary,
    /// `[base, experiment]`.
    machines: [MachineConfig; 2],
}

impl<'l> MatchedRunner<'l> {
    /// Create a matched runner; both machines must be within the
    /// library's bounds.
    pub fn new(
        library: &'l LivePointLibrary,
        base: MachineConfig,
        experiment: MachineConfig,
    ) -> Self {
        MatchedRunner { library, machines: [base, experiment] }
    }

    /// Serial run: [`run_parallel`](Self::run_parallel) on one thread.
    pub fn run(&self, program: &Program, policy: &RunPolicy) -> Result<MatchedOutcome, CoreError> {
        self.run_parallel(program, policy, 1)
    }

    /// Process pairs in library (shuffled) order until the delta's
    /// confidence interval shrinks below `policy.target_rel_err` of the
    /// base CPI, the cap is hit, or the library is exhausted. Each
    /// live-point is decoded once and simulated under both machines;
    /// threading, determinism and recovery are as for
    /// [`OnlineRunner::run_parallel`](crate::OnlineRunner::run_parallel),
    /// errors included.
    pub fn run_parallel(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
    ) -> Result<MatchedOutcome, CoreError> {
        let run = drive(self, self.library, program, policy, threads)?;
        Ok(MatchedOutcome {
            pair: run.acc,
            confidence: policy.confidence,
            processed: run.processed,
            reached_target: run.reached,
        })
    }
}

impl Observe for MatchedRunner<'_> {
    type Acc = MatchedPair;
    const KIND: RunKind = RunKind::Matched;

    fn machines(&self) -> &[MachineConfig] {
        &self.machines
    }
    fn acc(&self) -> MatchedPair {
        MatchedPair::new()
    }
    fn push(&self, acc: &mut MatchedPair, row: &[f64]) {
        acc.push(row[0], row[1]);
    }
    /// The §6.2 rule: the delta half-width against the base-machine
    /// mean.
    fn status(&self, acc: &MatchedPair, policy: &RunPolicy) -> (f64, bool) {
        let (hw, base) = (acc.delta_half_width(policy.confidence), acc.base().mean());
        let done =
            acc.count() >= MIN_SAMPLE_SIZE && base > 0.0 && hw <= policy.target_rel_err * base;
        (hw / base, done)
    }
    fn series<'a>(&self, acc: &'a MatchedPair) -> Vec<Series<'a>> {
        vec![("delta_cpi", None, acc)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::CreationConfig;
    use spectral_workloads::tiny;

    fn setup() -> (Program, LivePointLibrary) {
        let p = tiny().build();
        // A library that serves multiple configurations: bound by the
        // default (16-way-sized) maxima with both predictors stored.
        // Short unit/warm lengths so the tiny test benchmark can host
        // enough windows for the n >= 30 floor.
        let mut cfg = CreationConfig::default().with_sample_size(40);
        cfg.unit_len = 500;
        cfg.warm_len = 1500;
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    #[test]
    fn identical_machines_have_zero_delta() {
        let (p, lib) = setup();
        let m = MachineConfig::eight_way();
        let runner = MatchedRunner::new(&lib, m.clone(), m);
        let out = runner.run(&p, &RunPolicy::default()).unwrap();
        assert_eq!(out.delta_mean(), 0.0);
        assert!(!out.significant());
        assert!(out.reached_target(), "zero-variance delta converges immediately");
        assert_eq!(out.processed(), MIN_SAMPLE_SIZE as usize);
    }

    #[test]
    fn slower_memory_detected_as_significant() {
        // Needs a benchmark that actually reaches memory: a 2 MB
        // pointer chase blows through the 1 MB L2.
        use spectral_workloads::{Benchmark, Kernel, Schedule};
        let bench = Benchmark::new(
            "chase",
            "memory-bound matched-pair fixture",
            vec![Kernel::PointerChase { nodes: 1 << 18, hops: 600 }],
            Schedule::Phased,
            150_000,
            3,
        );
        let p = bench.build();
        let mut cfg = CreationConfig::default().with_sample_size(40);
        cfg.unit_len = 500;
        cfg.warm_len = 1500;
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        let base = MachineConfig::eight_way();
        let slow = MachineConfig::eight_way().with_mem_latency(400);
        let runner = MatchedRunner::new(&lib, base, slow);
        let out = runner.run(&p, &RunPolicy::default()).unwrap();
        assert!(out.delta_mean() > 0.0, "4x memory latency must cost CPI");
        assert!(out.significant(), "delta {} hw {}", out.delta_mean(), out.delta_half_width());
    }

    #[test]
    fn matched_pair_needs_fewer_points_than_absolute() {
        let (p, lib) = setup();
        let base = MachineConfig::eight_way();
        // A small, uniform change: slightly slower L2.
        let mut exp = MachineConfig::eight_way();
        exp.lat.l2 = 14;
        let runner = MatchedRunner::new(&lib, base, exp);
        let out =
            runner.run(&p, &RunPolicy { target_rel_err: 0.01, ..RunPolicy::default() }).unwrap();
        // The reduction factor vs an absolute estimate should exceed 1
        // for a uniform-effect change (the paper reports 3.5–150x).
        let f = out.reduction_factor(0.01);
        assert!(f >= 1.0, "reduction factor {f}");
    }

    #[test]
    fn sixteen_way_comparison_within_default_library() {
        let (p, lib) = setup();
        let runner =
            MatchedRunner::new(&lib, MachineConfig::eight_way(), MachineConfig::sixteen_way());
        let out =
            runner.run(&p, &RunPolicy { max_points: Some(32), ..RunPolicy::default() }).unwrap();
        assert!(out.processed() >= 30);
        // The 16-way machine should not be slower on average.
        assert!(out.relative_change() < 0.25, "relative change {}", out.relative_change());
    }
}
