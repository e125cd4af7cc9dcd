//! Sampling-health instrumentation for the runners: per-point anomaly
//! detection and merge-stride progress events.
//!
//! [`HealthMonitor`] bridges the statistical substrate
//! ([`spectral_stats::AnomalyDetector`]) to the run stream's event
//! records ([`spectral_telemetry::ProgressEvent`] /
//! [`spectral_telemetry::AnomalyEvent`]). Each runner worker owns one
//! monitor; anomalies are judged against the worker's own observation
//! stream (no cross-shard synchronization on the hot path), while
//! progress records carry the merged estimate.
//!
//! Whether anyone listens is captured once at construction: an
//! unsubscribed monitor's [`observe`](HealthMonitor::observe) and
//! [`progress`](HealthMonitor::progress) are a single branch per call,
//! and with telemetry compiled out (`--no-default-features`) the whole
//! layer short-circuits the same way.

use spectral_stats::{
    AnomalyDetector, Confidence, MatchedPair, OnlineEstimator, StratifiedEstimator, MIN_SAMPLE_SIZE,
};
use spectral_telemetry::{AnomalyEvent, ProgressEvent};

use crate::runner::RunPolicy;

/// A running estimate as a progress record reports it.
pub(crate) trait Interval {
    /// `(points, mean, half-width at confidence, relative-error
    /// denominator)` — the denominator is the mean itself for absolute
    /// estimates and the base-machine mean for matched deltas.
    fn interval(&self, confidence: Confidence) -> (u64, f64, f64, f64);
}

impl Interval for OnlineEstimator {
    fn interval(&self, confidence: Confidence) -> (u64, f64, f64, f64) {
        (self.count(), self.mean(), self.half_width(confidence), self.mean())
    }
}

impl Interval for StratifiedEstimator {
    fn interval(&self, confidence: Confidence) -> (u64, f64, f64, f64) {
        (self.count(), self.mean(), self.half_width(confidence), self.mean())
    }
}

impl Interval for MatchedPair {
    fn interval(&self, confidence: Confidence) -> (u64, f64, f64, f64) {
        let delta = self.delta_half_width(confidence);
        (self.count(), self.delta_mean(), delta, self.base().mean())
    }
}

/// Per-point processing metadata threaded from the decode/simulate
/// sites to the health monitor.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PointMeta {
    /// Decode (decompress + DER) wall-clock.
    pub decode_ns: u64,
    /// Detailed-simulation wall-clock (both machines for matched runs).
    pub simulate_ns: u64,
    /// Window provenance: sequence number where detailed warming begins.
    pub detail_start: u64,
    /// Window provenance: sequence number where measurement begins.
    pub measure_start: u64,
}

/// One worker's sampling-health state: an anomaly detector over its
/// observation stream and the emission plumbing for both event kinds.
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    on: bool,
    seq: u64,
    run: &'static str,
    worker: usize,
    detector: AnomalyDetector,
}

impl HealthMonitor {
    /// A monitor for one worker of a `run`-kind runner. `seq` is the
    /// run ordinal (one [`spectral_telemetry::next_run_seq`] allocation
    /// per run, shared by all of its workers so a consumer can separate
    /// back-to-back runs in one stream). Subscription is sampled here,
    /// once: the monitor is live when the run stream
    /// ([`spectral_telemetry::streaming`]) is on.
    pub fn new(seq: u64, run: &'static str, worker: usize, policy: &RunPolicy) -> Self {
        HealthMonitor {
            on: spectral_telemetry::streaming(),
            seq,
            run,
            worker,
            detector: AnomalyDetector::new(policy.anomaly_sigma),
        }
    }

    /// Record one processed live-point; emits an anomaly event when any
    /// detector test fires. No-op (single branch) when unsubscribed.
    pub fn observe(&mut self, point: u64, cpi: f64, meta: &PointMeta) {
        if !self.on {
            return;
        }
        // Snapshot the running estimate *before* the observation is
        // folded in — the record shows what the detector compared
        // against.
        let mean = self.detector.cpi_estimator().mean();
        let std_dev = self.detector.cpi_estimator().std_dev();
        let health = self.detector.observe(cpi, meta.decode_ns, meta.simulate_ns);
        if !health.is_anomalous() {
            return;
        }
        let mut kinds: [&str; 3] = [""; 3];
        let mut n = 0;
        if health.cpi_sigmas.is_some() {
            kinds[n] = "cpi_outlier";
            n += 1;
        }
        if health.slow_decode {
            kinds[n] = "slow_decode";
            n += 1;
        }
        if health.slow_simulate {
            kinds[n] = "slow_simulate";
            n += 1;
        }
        AnomalyEvent {
            seq: self.seq,
            run: self.run,
            worker: self.worker,
            point,
            detail_start: meta.detail_start,
            measure_start: meta.measure_start,
            kinds: &kinds[..n],
            cpi,
            mean,
            std_dev,
            sigmas: health.cpi_sigmas.unwrap_or(0.0),
            decode_ns: meta.decode_ns,
            simulate_ns: meta.simulate_ns,
        }
        .emit();
    }

    /// Emit one progress record for the estimate `est` under the
    /// policy's confidence (and 95 %). `overshoot` is the exact count
    /// of points processed past the stop condition (non-zero only on a
    /// run's closing record). No-op (single branch) when unsubscribed.
    pub fn progress(
        &self,
        metric: &'static str,
        config: Option<usize>,
        est: &dyn Interval,
        policy: &RunPolicy,
        overshoot: u64,
    ) {
        if !self.on {
            return;
        }
        let (n, mean, half_width, scale) = est.interval(policy.confidence);
        let half_width_95 = est.interval(Confidence::C95).2;
        let rel = |hw: f64| if scale > 0.0 { hw / scale } else { f64::NAN };
        let rel_half_width = rel(half_width);
        let rel_half_width_95 = rel(half_width_95);
        let floor = n >= MIN_SAMPLE_SIZE;
        ProgressEvent {
            seq: self.seq,
            run: self.run,
            metric,
            worker: self.worker,
            config,
            n,
            mean,
            half_width,
            rel_half_width,
            target_rel_err: policy.target_rel_err,
            eligible: floor && rel_half_width <= policy.target_rel_err,
            rel_half_width_95,
            eligible_95: floor && rel_half_width_95 <= policy.target_rel_err,
            overshoot,
        }
        .emit();
    }
}
