//! Live-point simulation: single points, the run policy, and the
//! random-order online runner.

use std::sync::Arc;

use spectral_cache::CacheHierarchy;
use spectral_isa::{Emulator, Program};
use spectral_stats::{Confidence, OnlineEstimator, MIN_SAMPLE_SIZE};
use spectral_telemetry::{Counter, Stopwatch};
use spectral_uarch::{DetailedSim, MachineConfig, WindowStats};

use crate::drive::{drive, Observe, Sample, Series};
use crate::error::CoreError;
use crate::library::{DecodeScratch, LivePointLibrary};
use crate::livepoint::LivePoint;
use crate::pointcache;
use crate::resume::{Recovery, RunKind};

// Decode time; a no-op without the `telemetry` feature.
static TLM_DECODE_NS: Counter = Counter::new("core.run.decode_ns");

/// Decode live-point `index` through per-thread scratch buffers and the
/// process-wide [`pointcache`] (keyed by library *content* hash, so a
/// hit skips the read + LZSS + DER work for any handle onto the same
/// bytes); also returns the decode wall-clock.
pub(crate) fn decode_point(
    library: &LivePointLibrary,
    index: usize,
    scratch: &mut DecodeScratch,
) -> Result<(Arc<LivePoint>, u64), CoreError> {
    // Fault site `core.decode.point`: injected decode faults and death.
    spectral_faultd::probe("core.decode.point")?;
    let sw = Stopwatch::start();
    let (cache, key) = (pointcache::global(), pointcache::cache_key(library.content_hash(), index));
    let lp = match cache.lookup(key) {
        Some(lp) => lp,
        None => {
            let lp = Arc::new(library.get_with(scratch, index)?);
            cache.insert(key, lp.clone());
            lp
        }
    };
    let ns = sw.ns();
    TLM_DECODE_NS.add(ns);
    Ok((lp, ns))
}

/// Simulate one live-point under `machine`: reconstruct the warm
/// hierarchy and predictor, install the live-state memory image, run
/// detailed warming, and measure the window.
///
/// # Errors
///
/// * [`CoreError::BenchmarkMismatch`] when `program` is not the
///   benchmark the live-point was created from,
/// * [`CoreError::Cache`] when the machine's hierarchy exceeds the
///   live-point's recorded bounds,
/// * [`CoreError::BpredNotStored`] when no snapshot matches the
///   machine's predictor configuration.
pub fn simulate_live_point(
    lp: &LivePoint,
    program: &Program,
    machine: &MachineConfig,
) -> Result<WindowStats, CoreError> {
    let hierarchy = warm_hierarchy(lp, program, machine)?;
    simulate_warm(lp, program, machine, hierarchy)
}

/// The first steps of [`simulate_live_point`]: check that `program` is
/// the live-point's benchmark, and reconstruct its warm hierarchy at
/// `machine`'s geometry.
pub(crate) fn warm_hierarchy(
    lp: &LivePoint,
    program: &Program,
    machine: &MachineConfig,
) -> Result<CacheHierarchy, CoreError> {
    if lp.benchmark != program.name() {
        return Err(CoreError::BenchmarkMismatch {
            expected: lp.benchmark.clone(),
            found: program.name().to_owned(),
        });
    }
    lp.reconstruct_hierarchy(&machine.hierarchy)
}

/// The rest of [`simulate_live_point`], from a warm `hierarchy` that
/// [`warm_hierarchy`] reconstructed for a machine of the same geometry.
pub(crate) fn simulate_warm(
    lp: &LivePoint,
    program: &Program,
    machine: &MachineConfig,
    hierarchy: CacheHierarchy,
) -> Result<WindowStats, CoreError> {
    let bpred = lp.predictor_for(&machine.bpred)?;
    let memory = lp.live_state.build_memory();
    let oracle = Emulator::from_state(program, lp.live_state.arch.clone(), memory);
    let mut sim = DetailedSim::with_state(machine, program, oracle, hierarchy, bpred);
    sim.run(lp.window.warm_len()); // detailed warming (discarded)
    Ok(sim.run(lp.window.measure_len))
}

/// Termination policy (and crash recovery) for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Stop once the confidence interval's relative half-width falls to
    /// this value (the paper's ±3% is `0.03`).
    pub target_rel_err: f64,
    /// Confidence level (the paper's 99.7% is z = 3).
    pub confidence: Confidence,
    /// Hard cap on processed live-points (`None` = whole library).
    pub max_points: Option<usize>,
    /// Record a trajectory sample every this many points (for
    /// convergence plots; 0 disables the trajectory).
    pub trajectory_stride: usize,
    /// Progress cadence K: a progress event every K points. Parallel
    /// workers also batch K points before pushing them to the shared
    /// estimate and checking the stop rule, so the lock is taken once
    /// per K points, and claim chunks of K points that shrink as the run
    /// nears its confidence target.
    pub merge_stride: usize,
    /// kσ threshold for flagging a live-point's CPI as an outlier
    /// (sampling-health events only; the estimate is unaffected).
    pub anomaly_sigma: f64,
    /// Whether reaching the confidence target terminates the run
    /// (`true`, the paper's online mode). With `false` the run
    /// processes every point (up to the cap) but still records *when*
    /// it first became eligible to stop.
    pub stop_at_target: bool,
    /// Checkpointing, resume and interruption drills (see
    /// [`Recovery`]). Not part of the run's identity: a crashed run and
    /// its resume carry different values.
    pub recovery: Recovery,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            target_rel_err: 0.03,
            confidence: Confidence::C99_7,
            max_points: None,
            trajectory_stride: 10,
            merge_stride: 8,
            anomaly_sigma: 3.0,
            stop_at_target: true,
            recovery: Recovery::none(),
        }
    }
}

/// The running (or final) result of an online estimation.
#[derive(Debug, Clone)]
pub struct Estimate {
    pub(crate) estimator: OnlineEstimator,
    pub(crate) confidence: Confidence,
    pub(crate) processed: usize,
    pub(crate) reached_target: bool,
    pub(crate) trajectory: Vec<Sample>,
}

impl Estimate {
    /// Estimated CPI (mean over processed live-points).
    pub fn mean(&self) -> f64 {
        self.estimator.mean()
    }

    /// Confidence-interval half-width at the policy's confidence.
    pub fn half_width(&self) -> f64 {
        self.estimator.half_width(self.confidence)
    }

    /// Half-width relative to the mean.
    pub fn relative_half_width(&self) -> f64 {
        self.estimator.relative_half_width(self.confidence)
    }

    /// Live-points processed.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether the run stopped because the confidence target was met
    /// (`false`: the library or the cap was exhausted first — the §6.2
    /// motivation for matched-pair comparison).
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }

    /// Convergence trajectory: `(points_processed, mean, half_width)`
    /// samples taken every `trajectory_stride` points.
    pub fn trajectory(&self) -> &[Sample] {
        &self.trajectory
    }
}

/// Random-order online runner (paper §6.1): processes the (already
/// shuffled) library in order, maintaining a running estimate whose
/// confidence improves as points accumulate, and stops as soon as the
/// target confidence is reached (never before 30 points).
#[derive(Debug)]
pub struct OnlineRunner<'l> {
    library: &'l LivePointLibrary,
    machine: MachineConfig,
}

impl<'l> OnlineRunner<'l> {
    /// Create a runner over `library` for `machine`.
    pub fn new(library: &'l LivePointLibrary, machine: MachineConfig) -> Self {
        OnlineRunner { library, machine }
    }

    /// Serial run: [`run_parallel`](Self::run_parallel) on one thread.
    ///
    /// # Example
    ///
    /// Estimate a benchmark's CPI from a freshly built library:
    ///
    /// ```
    /// use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
    /// use spectral_uarch::MachineConfig;
    ///
    /// let program = spectral_workloads::tiny().build();
    /// let machine = MachineConfig::eight_way();
    /// let cfg = CreationConfig::for_machine(&machine).with_sample_size(6);
    /// let library = LivePointLibrary::create(&program, &cfg)?;
    ///
    /// let runner = OnlineRunner::new(&library, machine);
    /// let estimate = runner.run(&program, &RunPolicy::default())?;
    /// assert!(estimate.mean() > 0.0, "CPI is positive");
    /// assert!(estimate.processed() > 0);
    /// # Ok::<(), spectral_core::CoreError>(())
    /// ```
    pub fn run(&self, program: &Program, policy: &RunPolicy) -> Result<Estimate, CoreError> {
        self.run_parallel(program, policy, 1)
    }

    /// Run over `threads` workers (live-point independence makes this
    /// embarrassingly parallel, §6). One thread runs on the calling
    /// thread and checks the stop rule after every point; more threads
    /// claim index chunks, decode up to four points ahead, and check it
    /// every [`RunPolicy::merge_stride`] points.
    /// Rows are replayed in index order after the join, so the estimate
    /// over a given set of points — mean, half-width, trajectory — is
    /// bit-identical at every thread count. [`RunPolicy::recovery`]
    /// checkpoints the run, or resumes it to the bit-identical estimate.
    ///
    /// # Errors
    ///
    /// The first decode or simulation fault; [`CoreError::EmptyLibrary`]
    /// for an empty library; [`CoreError::Checkpoint`] for an
    /// unreadable, corrupt or mismatched resume file; and
    /// [`CoreError::Interrupted`] when a [`Recovery::abort_after`] drill
    /// fires.
    pub fn run_parallel(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
    ) -> Result<Estimate, CoreError> {
        let run = drive(self, self.library, program, policy, threads)?;
        Ok(Estimate {
            estimator: run.acc,
            confidence: policy.confidence,
            processed: run.processed,
            reached_target: run.reached,
            trajectory: run.trajectories.into_iter().next().unwrap_or_default(),
        })
    }
}

impl Observe for OnlineRunner<'_> {
    type Acc = OnlineEstimator;
    const KIND: RunKind = RunKind::Online;

    fn machines(&self) -> &[MachineConfig] {
        std::slice::from_ref(&self.machine)
    }
    fn acc(&self) -> OnlineEstimator {
        OnlineEstimator::new()
    }
    fn push(&self, acc: &mut OnlineEstimator, row: &[f64]) {
        acc.push(row[0]);
    }
    fn status(&self, acc: &OnlineEstimator, policy: &RunPolicy) -> (f64, bool) {
        let rel = acc.relative_half_width(policy.confidence);
        (rel, acc.count() >= MIN_SAMPLE_SIZE && rel <= policy.target_rel_err)
    }
    fn series<'a>(&self, acc: &'a OnlineEstimator) -> Vec<Series<'a>> {
        vec![("cpi", None, acc)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::CreationConfig;
    use spectral_workloads::tiny;

    fn setup() -> (spectral_isa::Program, LivePointLibrary) {
        let p = tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(35);
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    #[test]
    fn single_point_simulates() {
        let (p, lib) = setup();
        let lp = lib.get(0).unwrap();
        let stats = simulate_live_point(&lp, &p, &MachineConfig::eight_way()).unwrap();
        assert_eq!(stats.committed, lp.window.measure_len);
        assert!(stats.cpi() > 0.1 && stats.cpi() < 50.0, "cpi {}", stats.cpi());
    }

    #[test]
    fn wrong_program_rejected() {
        let (_, lib) = setup();
        let other = spectral_workloads::by_name("gzip-like").unwrap().build();
        let lp = lib.get(0).unwrap();
        assert!(matches!(
            simulate_live_point(&lp, &other, &MachineConfig::eight_way()),
            Err(CoreError::BenchmarkMismatch { .. })
        ));
    }

    #[test]
    fn oversized_hierarchy_rejected() {
        let (p, lib) = setup();
        let lp = lib.get(0).unwrap();
        let big = MachineConfig::sixteen_way(); // exceeds 8-way-only library
        assert!(simulate_live_point(&lp, &p, &big).is_err());
    }

    #[test]
    fn online_run_produces_estimate() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let est =
            runner.run(&p, &RunPolicy { target_rel_err: 0.5, ..RunPolicy::default() }).unwrap();
        assert!(est.processed() >= MIN_SAMPLE_SIZE as usize);
        assert!(est.mean() > 0.0);
        assert!(est.reached_target(), "a 50% target should be reached quickly");
    }

    #[test]
    fn exhausting_library_reports_not_reached() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let est =
            runner.run(&p, &RunPolicy { target_rel_err: 1e-9, ..RunPolicy::default() }).unwrap();
        assert_eq!(est.processed(), lib.len());
        assert!(!est.reached_target());
    }

    #[test]
    fn stop_at_target_false_runs_exhaustively() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 0.5, stop_at_target: false, ..RunPolicy::default() };
        let est = runner.run(&p, &policy).unwrap();
        assert_eq!(est.processed(), lib.len(), "no early exit");
        assert!(est.reached_target(), "eligibility is still recorded");
        let par = runner.run_parallel(&p, &policy, 4).unwrap();
        assert_eq!(par.processed(), lib.len());
        assert!(par.reached_target());
    }

    #[test]
    fn parallel_matches_serial_when_exhaustive() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 1e-9, trajectory_stride: 5, ..RunPolicy::default() };
        let serial = runner.run(&p, &policy).unwrap();
        let parallel = runner.run_parallel(&p, &policy, 4).unwrap();
        assert_eq!(serial.processed(), parallel.processed());
        // Index-ordered replay makes exhaustive parallel runs
        // bit-identical to serial, not merely close.
        assert_eq!(
            serial.mean().to_bits(),
            parallel.mean().to_bits(),
            "serial {} vs parallel {}",
            serial.mean(),
            parallel.mean()
        );
        assert_eq!(
            serial.estimator().variance().to_bits(),
            parallel.estimator().variance().to_bits(),
            "variance"
        );
        assert_eq!(serial.trajectory(), parallel.trajectory(), "trajectory");
        assert_eq!(serial.half_width().to_bits(), parallel.half_width().to_bits());
    }

    #[test]
    fn trajectory_converges() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 1e-9, trajectory_stride: 5, ..RunPolicy::default() };
        let est = runner.run(&p, &policy).unwrap();
        let traj = est.trajectory();
        assert!(traj.len() >= 3);
        // Half-widths should broadly shrink as n grows.
        let first_hw = traj[1].2; // skip the n=5 noise point
        let last_hw = traj.last().unwrap().2;
        assert!(last_hw <= first_hw, "confidence should tighten: first {first_hw}, last {last_hw}");
    }
}
