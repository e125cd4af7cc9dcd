//! Decode-once design-space sweeps: simulate each live-point under many
//! machine configurations per decode.
//!
//! Decompress + DER decode is the per-point "checkpoint processing"
//! cost (Fig 8). One [`OnlineRunner`](crate::OnlineRunner) per
//! candidate pays it once per configuration; [`SweepRunner`] pays it
//! once per point, and because every configuration sees the same
//! points its estimates are matched-pair comparable (§6.2).

use spectral_isa::Program;
use spectral_stats::{Confidence, MatchedPair, OnlineEstimator, MIN_SAMPLE_SIZE};
use spectral_uarch::MachineConfig;

use crate::drive::{drive, Observe, Series};
use crate::error::CoreError;
use crate::health::Interval;
use crate::library::LivePointLibrary;
use crate::resume::RunKind;
use crate::runner::{Estimate, RunPolicy};

/// Accumulated sweep state: one estimator per configuration and one
/// matched pair per non-baseline configuration (vs configuration 0).
pub(crate) struct SweepProgress {
    estimators: Vec<OnlineEstimator>,
    pairs: Vec<MatchedPair>,
}

/// Whether `est` meets the policy's confidence target.
fn reached(est: &OnlineEstimator, policy: &RunPolicy) -> bool {
    est.count() >= MIN_SAMPLE_SIZE
        && est.relative_half_width(policy.confidence) <= policy.target_rel_err
}

/// Result of a design-space sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    estimates: Vec<Estimate>,
    pairs: Vec<MatchedPair>,
    confidence: Confidence,
    processed: usize,
    reached_target: bool,
}

impl SweepOutcome {
    /// Per-configuration estimates, in the order the configurations were
    /// given.
    pub fn estimates(&self) -> &[Estimate] {
        &self.estimates
    }

    /// The estimate for configuration `index`.
    pub fn estimate(&self, index: usize) -> &Estimate {
        &self.estimates[index]
    }

    /// Matched-pair comparison of configuration `index` (≥ 1) against
    /// the baseline (configuration 0) — exact pairing, because the sweep
    /// runs every configuration on the same points.
    pub fn pair_vs_baseline(&self, index: usize) -> Option<&MatchedPair> {
        index.checked_sub(1).and_then(|i| self.pairs.get(i))
    }

    /// Whether configuration `index`'s CPI change vs the baseline is
    /// statistically distinguishable from zero.
    pub fn significant_vs_baseline(&self, index: usize) -> bool {
        self.pair_vs_baseline(index).is_some_and(|p| p.significant(self.confidence))
    }

    /// Live-points processed (each decoded once and simulated under
    /// every configuration).
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether every configuration reached the confidence target before
    /// the library (or the cap) was exhausted.
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }
}

/// Decode-once design-space runner: processes the (shuffled) library in
/// order, simulating each decoded live-point under every candidate
/// machine before moving on.
#[derive(Debug)]
pub struct SweepRunner<'l> {
    library: &'l LivePointLibrary,
    machines: Vec<MachineConfig>,
}

impl<'l> SweepRunner<'l> {
    /// Create a sweep over `machines` (configuration 0 is the baseline
    /// for matched-pair comparisons). All machines must be within the
    /// library's creation bounds.
    ///
    /// # Panics
    ///
    /// Panics when `machines` is empty.
    pub fn new(library: &'l LivePointLibrary, machines: Vec<MachineConfig>) -> Self {
        assert!(!machines.is_empty(), "a sweep needs at least one machine");
        SweepRunner { library, machines }
    }

    /// Serial sweep: [`run_parallel`](Self::run_parallel) on one thread.
    pub fn run(&self, program: &Program, policy: &RunPolicy) -> Result<SweepOutcome, CoreError> {
        self.run_parallel(program, policy, 1)
    }

    /// Run until every configuration's interval meets the policy
    /// target, the cap is hit, or the library is exhausted. Each
    /// live-point is decoded once and simulated under every
    /// configuration; threading, determinism (trajectories included)
    /// and recovery are as for
    /// [`OnlineRunner::run_parallel`](crate::OnlineRunner::run_parallel),
    /// errors included.
    pub fn run_parallel(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
    ) -> Result<SweepOutcome, CoreError> {
        let run = drive(self, self.library, program, policy, threads)?;
        let confidence = policy.confidence;
        let estimates = (run.acc.estimators.into_iter().zip(run.trajectories))
            .map(|(estimator, trajectory)| {
                let (processed, reached_target) =
                    (estimator.count() as usize, reached(&estimator, policy));
                Estimate { estimator, confidence, processed, reached_target, trajectory }
            })
            .collect();
        Ok(SweepOutcome {
            estimates,
            pairs: run.acc.pairs,
            confidence,
            processed: run.processed,
            reached_target: run.reached,
        })
    }
}

impl Observe for SweepRunner<'_> {
    type Acc = SweepProgress;
    const KIND: RunKind = RunKind::Sweep;

    fn machines(&self) -> &[MachineConfig] {
        &self.machines
    }
    fn acc(&self) -> SweepProgress {
        let n = self.machines.len();
        SweepProgress {
            estimators: vec![OnlineEstimator::new(); n],
            pairs: vec![MatchedPair::new(); n - 1],
        }
    }
    fn push(&self, acc: &mut SweepProgress, row: &[f64]) {
        for (est, &cpi) in acc.estimators.iter_mut().zip(row) {
            est.push(cpi);
        }
        for (pair, &cpi) in acc.pairs.iter_mut().zip(&row[1..]) {
            pair.push(row[0], cpi);
        }
    }
    /// The sweep stops on its worst configuration: every interval must
    /// meet the target.
    fn status(&self, acc: &SweepProgress, policy: &RunPolicy) -> (f64, bool) {
        let rels = acc.estimators.iter().map(|e| e.relative_half_width(policy.confidence));
        let worst = rels.fold(f64::NEG_INFINITY, f64::max);
        (worst, acc.estimators.iter().all(|e| reached(e, policy)))
    }
    fn series<'a>(&self, acc: &'a SweepProgress) -> Vec<Series<'a>> {
        let configs = acc.estimators.iter().enumerate();
        configs.map(|(j, est)| ("cpi", Some(j), est as &dyn Interval)).collect()
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
        let cfg = CreationConfig::for_machine(&spectral_uarch::MachineConfig::eight_way())
            .with_sample_size(35);
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    fn candidates() -> Vec<MachineConfig> {
        let base = MachineConfig::eight_way();
        let slow_l2 = {
            let mut m = base.clone();
            m.lat.l2 = 16;
            m
        };
        vec![base, slow_l2, MachineConfig::eight_way().with_mem_latency(200)]
    }

    fn exhaustive() -> RunPolicy {
        RunPolicy { target_rel_err: 1e-12, ..RunPolicy::default() }
    }

    #[test]
    fn sweep_matches_independent_online_runs() {
        let (p, lib) = setup();
        let machines = candidates();
        let sweep = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        assert_eq!(sweep.processed(), lib.len());
        assert!(!sweep.reached_target());
        for (j, machine) in machines.iter().enumerate() {
            let solo = OnlineRunner::new(&lib, machine.clone()).run(&p, &exhaustive()).unwrap();
            // Same points in the same order: estimators agree exactly.
            assert_eq!(sweep.estimate(j).estimator(), solo.estimator(), "config {j}");
        }
    }

    #[test]
    fn sweep_pairs_match_matched_runner() {
        let (p, lib) = setup();
        let machines = candidates();
        let sweep = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        let mp = crate::MatchedRunner::new(&lib, machines[0].clone(), machines[2].clone())
            .run(&p, &exhaustive())
            .unwrap();
        let pair = sweep.pair_vs_baseline(2).unwrap();
        assert_eq!(pair.count(), mp.pair().count());
        assert_eq!(pair.delta_mean(), mp.pair().delta_mean());
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (p, lib) = setup();
        let machines = candidates();
        let serial = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        let parallel = SweepRunner::new(&lib, machines).run_parallel(&p, &exhaustive(), 4).unwrap();
        assert_eq!(serial.processed(), parallel.processed());
        // Index-ordered replay: exhaustive parallel sweeps are
        // bit-identical to serial, estimators and trajectories alike.
        for j in 0..serial.estimates().len() {
            let (s, q) = (serial.estimate(j), parallel.estimate(j));
            assert_eq!(s.estimator(), q.estimator(), "config {j}");
            assert_eq!(s.trajectory(), q.trajectory(), "config {j} trajectory");
        }
        // Matched pairs see identical point sets in both modes.
        for j in 1..serial.estimates().len() {
            let (s, q) =
                (serial.pair_vs_baseline(j).unwrap(), parallel.pair_vs_baseline(j).unwrap());
            assert_eq!(s.count(), q.count());
            assert_eq!(s.delta_mean().to_bits(), q.delta_mean().to_bits());
        }
    }

    #[test]
    fn early_termination_requires_all_configs() {
        let (p, lib) = setup();
        let out = SweepRunner::new(&lib, candidates())
            .run(&p, &RunPolicy { target_rel_err: 0.5, ..RunPolicy::default() })
            .unwrap();
        assert!(out.reached_target(), "a 50% target should be reached quickly");
        assert!(out.processed() >= MIN_SAMPLE_SIZE as usize);
        for est in out.estimates() {
            assert!(est.reached_target());
        }
    }

    #[test]
    fn empty_machine_list_panics() {
        let (_, lib) = setup();
        let result = std::panic::catch_unwind(|| SweepRunner::new(&lib, Vec::new()));
        assert!(result.is_err());
    }
}
