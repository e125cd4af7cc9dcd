//! Streaming sampling-health statistics: confidence tracking against a
//! termination rule, and per-observation anomaly detection.
//!
//! The paper's online mode promises results *while the simulation
//! runs*; this module supplies the statistical substrate the
//! observability layer reports from:
//!
//! * [`StreamingCi`] — an [`OnlineEstimator`] bound to a confidence
//!   level and a relative-error target, answering "could this run stop
//!   now?" ([`eligible`](StreamingCi::eligible)) at the policy
//!   confidence and at the paper's ±ε@95% rule
//!   ([`eligible_at`](StreamingCi::eligible_at)).
//! * [`AnomalyDetector`] — flags individual live-points whose CPI
//!   deviates more than kσ from the running estimate, or whose decode /
//!   simulate wall-clock lands beyond the stream's p99 log₂ bucket
//!   (the histogram's top-tail).

use crate::confidence::{Confidence, MIN_SAMPLE_SIZE};
use crate::estimator::OnlineEstimator;

/// Observations a latency tail must accumulate before its p99 bucket is
/// considered meaningful (anomalies are never flagged during warmup).
pub const ANOMALY_WARMUP: u64 = 32;

/// A running confidence interval bound to a termination rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingCi {
    estimator: OnlineEstimator,
    confidence: Confidence,
    target_rel_err: f64,
}

impl StreamingCi {
    /// Track an interval at `confidence` against a relative-error
    /// target (the paper's ±3% is `0.03`).
    pub fn new(confidence: Confidence, target_rel_err: f64) -> Self {
        StreamingCi { estimator: OnlineEstimator::new(), confidence, target_rel_err }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.estimator.push(x);
    }

    /// Merge another partial (parallel shards).
    pub fn merge(&mut self, other: &OnlineEstimator) {
        self.estimator.merge(other);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.estimator.count()
    }

    /// Running mean.
    pub fn mean(&self) -> f64 {
        self.estimator.mean()
    }

    /// Half-width at the bound confidence level.
    pub fn half_width(&self) -> f64 {
        self.estimator.half_width(self.confidence)
    }

    /// Relative half-width at the bound confidence level.
    pub fn relative_half_width(&self) -> f64 {
        self.estimator.relative_half_width(self.confidence)
    }

    /// The relative-error target.
    pub fn target_rel_err(&self) -> f64 {
        self.target_rel_err
    }

    /// Whether the run could terminate now at the bound confidence:
    /// `n ≥ 30` and the relative half-width is within the target.
    pub fn eligible(&self) -> bool {
        self.eligible_at(self.confidence)
    }

    /// The same termination test at another confidence level (the
    /// paper's ±ε@95% early-termination rule checks
    /// `eligible_at(Confidence::C95)` regardless of the reporting
    /// confidence).
    pub fn eligible_at(&self, confidence: Confidence) -> bool {
        self.estimator.count() >= MIN_SAMPLE_SIZE
            && self.estimator.relative_half_width(confidence) <= self.target_rel_err
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }
}

/// The log₂ bucket a value falls into (bucket 0 holds zeros, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)`).
fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// A compact log₂ latency distribution with a p99-bucket query.
#[derive(Debug, Clone)]
struct LatencyTail {
    buckets: [u32; 65],
    count: u64,
}

impl LatencyTail {
    fn new() -> Self {
        LatencyTail { buckets: [0; 65], count: 0 }
    }

    /// The bucket containing the p99 rank of everything seen so far.
    fn p99_bucket(&self) -> usize {
        if self.count == 0 {
            return 0;
        }
        let rank = ((0.99 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return i;
            }
        }
        64
    }

    /// Record `value`; returns `true` when the stream is past warmup
    /// and `value` lands *beyond* the previous p99 bucket — the
    /// histogram's top-tail.
    fn observe(&mut self, value: u64) -> bool {
        let slow = self.count >= ANOMALY_WARMUP && log2_bucket(value) > self.p99_bucket();
        self.buckets[log2_bucket(value)] = self.buckets[log2_bucket(value)].saturating_add(1);
        self.count += 1;
        slow
    }
}

/// Per-point health verdict from [`AnomalyDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PointHealth {
    /// `Some(k)` when the point's CPI sat `k` standard deviations from
    /// the running mean and `k` exceeded the detector's threshold.
    pub cpi_sigmas: Option<f64>,
    /// Decode wall-clock landed beyond the stream's p99 log₂ bucket.
    pub slow_decode: bool,
    /// Simulate wall-clock landed beyond the stream's p99 log₂ bucket.
    pub slow_simulate: bool,
}

impl PointHealth {
    /// Whether any anomaly fired.
    pub fn is_anomalous(&self) -> bool {
        self.cpi_sigmas.is_some() || self.slow_decode || self.slow_simulate
    }
}

/// Streaming per-point anomaly detection over (CPI, decode time,
/// simulate time) triples.
///
/// CPI outliers are judged against the *running* estimate (Welford mean
/// and deviation of everything observed before the point in question),
/// never retroactively — matching what an online operator watching the
/// run could have known at that moment. Time outliers are judged
/// against each stream's own log₂ distribution: a point is slow when
/// its bucket lies strictly beyond the p99 bucket of all prior
/// observations (after [`ANOMALY_WARMUP`] points).
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    sigma_threshold: f64,
    cpi: OnlineEstimator,
    decode: LatencyTail,
    simulate: LatencyTail,
}

impl AnomalyDetector {
    /// Flag CPI deviations beyond `sigma_threshold` standard deviations
    /// (3.0 is the conventional choice).
    ///
    /// # Panics
    ///
    /// Panics when `sigma_threshold` is not finite and positive.
    pub fn new(sigma_threshold: f64) -> Self {
        assert!(
            sigma_threshold.is_finite() && sigma_threshold > 0.0,
            "sigma threshold must be finite and positive"
        );
        AnomalyDetector {
            sigma_threshold,
            cpi: OnlineEstimator::new(),
            decode: LatencyTail::new(),
            simulate: LatencyTail::new(),
        }
    }

    /// Record one point and report whether it is anomalous relative to
    /// everything observed before it.
    pub fn observe(&mut self, cpi: f64, decode_ns: u64, simulate_ns: u64) -> PointHealth {
        let cpi_sigmas = if self.cpi.count() >= MIN_SAMPLE_SIZE && self.cpi.std_dev() > 0.0 {
            let k = (cpi - self.cpi.mean()).abs() / self.cpi.std_dev();
            (k > self.sigma_threshold).then_some(k)
        } else {
            None
        };
        self.cpi.push(cpi);
        PointHealth {
            cpi_sigmas,
            slow_decode: self.decode.observe(decode_ns),
            slow_simulate: self.simulate.observe(simulate_ns),
        }
    }

    /// The running CPI estimator the outlier test compares against.
    pub fn cpi_estimator(&self) -> &OnlineEstimator {
        &self.cpi
    }

    /// The configured kσ threshold.
    pub fn sigma_threshold(&self) -> f64 {
        self.sigma_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_ci_tracks_eligibility() {
        let mut ci = StreamingCi::new(Confidence::C99_7, 0.05);
        for i in 0..(MIN_SAMPLE_SIZE - 1) {
            ci.push(1.0 + 0.001 * (i % 2) as f64);
        }
        assert!(!ci.eligible(), "below the n >= 30 floor");
        ci.push(1.0);
        assert!(ci.eligible(), "tight data past the floor");
        assert!(ci.eligible_at(Confidence::C95), "95% is looser than 99.7%");
        assert!(ci.relative_half_width() <= 0.05);
    }

    #[test]
    fn eligibility_95_is_looser_than_99_7() {
        let mut ci = StreamingCi::new(Confidence::C99_7, 0.03);
        // Spread chosen so the interval passes at z=1.96 but not z=3.
        for i in 0..200u64 {
            ci.push(1.0 + if i % 2 == 0 { 0.18 } else { -0.18 });
        }
        assert!(ci.eligible_at(Confidence::C95));
        assert!(!ci.eligible(), "same data must still fail at 99.7%");
    }

    #[test]
    fn cpi_outlier_needs_floor_and_deviation() {
        let mut d = AnomalyDetector::new(3.0);
        // Alternating stream: nonzero variance, no outliers.
        for i in 0..100u64 {
            let h = d.observe(if i % 2 == 0 { 1.0 } else { 1.2 }, 100, 1000);
            assert_eq!(h.cpi_sigmas, None, "point {i} wrongly flagged");
        }
        let h = d.observe(9.0, 100, 1000);
        let k = h.cpi_sigmas.expect("9.0 is far outside a 1.0/1.2 stream");
        assert!(k > 3.0, "sigmas {k}");
    }

    #[test]
    fn constant_stream_never_divides_by_zero() {
        let mut d = AnomalyDetector::new(3.0);
        for _ in 0..100 {
            let h = d.observe(1.5, 100, 1000);
            assert_eq!(h.cpi_sigmas, None, "zero variance must not flag");
        }
    }

    #[test]
    fn slow_tail_flags_only_past_warmup() {
        // A huge value during warmup is never flagged.
        let mut warming = AnomalyDetector::new(3.0);
        assert!(!warming.observe(1.0, 1 << 40, 1000).slow_decode);

        let mut d = AnomalyDetector::new(3.0);
        for _ in 0..ANOMALY_WARMUP {
            assert!(!d.observe(1.0, 1000, 1000).slow_decode);
        }
        // Past warmup a value orders of magnitude beyond the p99 bucket
        // is flagged; a typical value is not.
        let h = d.observe(1.0, 1 << 40, 1000);
        assert!(h.slow_decode);
        assert!(!h.slow_simulate);
        assert!(!d.observe(1.0, 1100, 1000).slow_decode);
    }

    #[test]
    fn p99_bucket_tracks_distribution() {
        let mut t = LatencyTail::new();
        for _ in 0..99 {
            t.observe(1000);
        }
        assert_eq!(t.p99_bucket(), log2_bucket(1000));
        // A 1%-tail of larger values moves the p99 bucket up.
        for _ in 0..99 {
            t.observe(1 << 30);
        }
        assert_eq!(t.p99_bucket(), log2_bucket(1 << 30));
    }

    #[test]
    #[should_panic(expected = "sigma threshold")]
    fn rejects_bad_sigma() {
        AnomalyDetector::new(0.0);
    }
}
