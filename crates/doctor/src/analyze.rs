//! Diagnosis construction: convergence series, anomaly triage, shard
//! balance, and the two-run regression diff.

use std::collections::BTreeMap;

use crate::{AnomalyRecord, DoctorError, RunArtifacts};

/// One sample of a series' merged convergence trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Points merged into the estimate.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Relative CI half-width at the policy confidence.
    pub rel_half_width: f64,
    /// Eligibility at the policy confidence.
    pub eligible: bool,
    /// Eligibility at the paper's ±ε@95% rule.
    pub eligible_95: bool,
}

/// Convergence diagnosis of one estimated series (one `(seq, run_id,
/// run, metric, config)` group of progress records — binaries often
/// perform several runs into one stream, and the `seq` ordinal keeps them
/// apart; the `run_id` additionally separates different *processes*
/// appending to a shared stream, whose `seq` ordinals collide).
#[derive(Debug, Clone)]
pub struct SeriesDiagnosis {
    /// Process-wide run ordinal (0 for pre-`seq` streams).
    pub seq: u64,
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Run kind the series came from.
    pub run: String,
    /// What the mean estimates.
    pub metric: String,
    /// Sweep configuration index, if any.
    pub config: Option<usize>,
    /// The policy's relative-error target ε.
    pub target_rel_err: f64,
    /// Merged trajectory, sorted by `n` (duplicates collapsed, last
    /// record per `n` wins).
    pub trajectory: Vec<TrajectoryPoint>,
    /// Index into [`trajectory`](Self::trajectory) of the first sample
    /// eligible at the policy confidence — the early-termination stride.
    pub first_eligible: Option<usize>,
    /// Same, at the paper's ±ε@95% rule.
    pub first_eligible_95: Option<usize>,
    /// Whether the final sample was eligible at the policy confidence.
    pub converged: bool,
    /// Points processed after the series first became eligible. Exact
    /// when the stream carries the runner's closing `overshoot` field;
    /// otherwise approximated at trajectory-sample granularity.
    pub wasted_points: u64,
    /// Whether [`wasted_points`](Self::wasted_points) came from the
    /// runner's exact overshoot accounting rather than the trajectory.
    pub wasted_exact: bool,
    /// Shard balance over this series' workers.
    pub shards: ShardReport,
}

impl SeriesDiagnosis {
    /// The final trajectory sample, if the series has any.
    pub fn last(&self) -> Option<&TrajectoryPoint> {
        self.trajectory.last()
    }

    /// Wasted points as a fraction of the total (0 when nothing was
    /// wasted or the series is empty).
    pub fn wasted_fraction(&self) -> f64 {
        match self.last() {
            Some(last) if last.n > 0 => self.wasted_points as f64 / last.n as f64,
            _ => 0.0,
        }
    }
}

/// Per-worker point counts and busy time from the progress stream.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// `(worker, points)` rows, sorted by worker ordinal. Each worker's
    /// count is the maximum `shard_points` it reported.
    pub workers: Vec<(usize, u64)>,
    /// `(max − min) / max` over worker point counts (0 with fewer than
    /// two workers).
    pub imbalance: f64,
    /// `(worker, busy_ns)` rows, sorted by worker ordinal. Each worker's
    /// time is the maximum `shard_busy_ns` it reported. Empty for
    /// streams that predate busy-time accounting.
    pub busy: Vec<(usize, u64)>,
    /// `(max − min) / max` over worker busy times (0 with fewer than
    /// two busy workers). The scheduler-quality signal: point counts can
    /// balance while busy time doesn't when point costs are skewed.
    pub busy_imbalance: f64,
}

/// The full diagnosis of one run's artifacts.
#[derive(Debug, Clone, Default)]
pub struct Diagnosis {
    /// Convergence per estimated series, ordered by (seq, run, metric,
    /// config) — i.e. run order.
    pub series: Vec<SeriesDiagnosis>,
    /// Every anomaly across all runs, sorted most-severe first (CPI
    /// deviation, then processing cost).
    pub anomalies: Vec<AnomalyRecord>,
}

impl Diagnosis {
    /// The primary series: the first one (single-config runs have
    /// exactly one; sweeps put the baseline first).
    pub fn primary(&self) -> Option<&SeriesDiagnosis> {
        self.series.first()
    }

    /// The `count` most severe anomalies.
    pub fn top_anomalies(&self, count: usize) -> &[AnomalyRecord] {
        &self.anomalies[..count.min(self.anomalies.len())]
    }
}

/// Shard balance over one group of progress records.
fn shard_report(records: &[&crate::ProgressRecord]) -> ShardReport {
    fn spread(rows: &[(usize, u64)]) -> f64 {
        match (rows.iter().map(|&(_, n)| n).max(), rows.iter().map(|&(_, n)| n).min()) {
            (Some(max), Some(min)) if rows.len() > 1 && max > 0 => (max - min) as f64 / max as f64,
            _ => 0.0,
        }
    }
    let mut per_worker: BTreeMap<usize, u64> = BTreeMap::new();
    let mut per_worker_busy: BTreeMap<usize, u64> = BTreeMap::new();
    for p in records {
        let e = per_worker.entry(p.worker).or_default();
        *e = (*e).max(p.shard_points);
        if p.shard_busy_ns > 0 {
            let b = per_worker_busy.entry(p.worker).or_default();
            *b = (*b).max(p.shard_busy_ns);
        }
    }
    let workers: Vec<(usize, u64)> = per_worker.into_iter().collect();
    let busy: Vec<(usize, u64)> = per_worker_busy.into_iter().collect();
    let imbalance = spread(&workers);
    let busy_imbalance = spread(&busy);
    ShardReport { workers, imbalance, busy, busy_imbalance }
}

/// Build a [`Diagnosis`] from a run's artifacts.
pub fn analyze(artifacts: &RunArtifacts) -> Diagnosis {
    type SeriesKey = (u64, String, String, String, Option<usize>);
    let mut groups: BTreeMap<SeriesKey, Vec<&crate::ProgressRecord>> = BTreeMap::new();
    for p in &artifacts.progress {
        groups
            .entry((p.seq, p.run_id.clone(), p.run.clone(), p.metric.clone(), p.config))
            .or_default()
            .push(p);
    }
    let series = groups
        .into_iter()
        .map(|((seq, run_id, run, metric, config), records)| {
            let shards = shard_report(&records);
            let target_rel_err = records.last().map_or(0.0, |r| r.target_rel_err);
            // Collapse to one sample per n (parallel workers race to
            // report overlapping prefixes of the merged estimate).
            let mut by_n: BTreeMap<u64, TrajectoryPoint> = BTreeMap::new();
            for r in &records {
                by_n.insert(
                    r.n,
                    TrajectoryPoint {
                        n: r.n,
                        mean: r.mean,
                        rel_half_width: r.rel_half_width,
                        eligible: r.eligible,
                        eligible_95: r.eligible_95,
                    },
                );
            }
            let trajectory: Vec<TrajectoryPoint> = by_n.into_values().collect();
            let first_eligible = trajectory.iter().position(|t| t.eligible);
            let first_eligible_95 = trajectory.iter().position(|t| t.eligible_95);
            let converged = trajectory.last().is_some_and(|t| t.eligible);
            // The runner's closing record carries the exact count of
            // points processed past the stop condition; fall back to
            // trajectory-sample granularity for streams without it.
            let exact_overshoot = records.iter().filter_map(|r| r.overshoot).max();
            let (wasted_points, wasted_exact) = match exact_overshoot {
                Some(o) => (o, true),
                None => (
                    match (first_eligible, trajectory.last()) {
                        (Some(i), Some(last)) => last.n.saturating_sub(trajectory[i].n),
                        _ => 0,
                    },
                    false,
                ),
            };
            SeriesDiagnosis {
                seq,
                run_id,
                run,
                metric,
                config,
                target_rel_err,
                trajectory,
                first_eligible,
                first_eligible_95,
                converged,
                wasted_points,
                wasted_exact,
                shards,
            }
        })
        .collect();

    let mut anomalies = artifacts.anomalies.clone();
    anomalies.sort_by(|a, b| {
        b.severity().partial_cmp(&a.severity()).unwrap_or(std::cmp::Ordering::Equal)
    });

    Diagnosis { series, anomalies }
}

/// Whether a manifest records a run that exhausted its library without
/// converging — the condition the CI gate (`--check`) fails on. `false`
/// when the manifest lacks the point counts or an estimate.
pub fn exhausted_without_convergence(manifest: &spectral_telemetry::RunManifest) -> bool {
    match (manifest.points_processed, manifest.library_points, &manifest.estimate) {
        (Some(processed), Some(library), Some(e)) => {
            library > 0 && processed >= library && !e.reached_target
        }
        _ => false,
    }
}

/// A matched-pair-style comparison of two runs' final estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Current mean − baseline mean.
    pub mean_delta: f64,
    /// `sqrt(hw_current² + hw_baseline²)` — the combined uncertainty of
    /// the comparison.
    pub combined_half_width: f64,
    /// Whether `|mean_delta|` exceeds the combined half-width — the
    /// movement is distinguishable from sampling noise.
    pub significant: bool,
    /// Current − baseline processed-point counts, when both manifests
    /// record them.
    pub points_delta: Option<i64>,
    /// Current − baseline total phase wall-clock seconds, when both
    /// manifests record phases.
    pub secs_delta: Option<f64>,
}

/// Diff two runs' manifests (current vs baseline).
///
/// # Errors
///
/// Returns a diagnostic when either run lacks a manifest with a final
/// estimate — there is nothing statistical to compare.
pub fn diff_runs(current: &RunArtifacts, baseline: &RunArtifacts) -> Result<RunDiff, DoctorError> {
    let need = |a: &RunArtifacts, who: &str| {
        a.manifest
            .as_ref()
            .and_then(|m| m.estimate.as_ref().map(|e| (m.clone(), e.clone())))
            .ok_or_else(|| {
                DoctorError::msg(format!("{who} run has no manifest estimate to compare"))
            })
    };
    let (cur_m, cur_e) = need(current, "current")?;
    let (base_m, base_e) = need(baseline, "baseline")?;
    let mean_delta = cur_e.mean - base_e.mean;
    let combined_half_width =
        (cur_e.half_width * cur_e.half_width + base_e.half_width * base_e.half_width).sqrt();
    let points_delta = match (cur_m.points_processed, base_m.points_processed) {
        (Some(c), Some(b)) => Some(c as i64 - b as i64),
        _ => None,
    };
    let total_secs =
        |m: &spectral_telemetry::RunManifest| m.phases.iter().map(|p| p.secs).sum::<f64>();
    let secs_delta = if cur_m.phases.is_empty() || base_m.phases.is_empty() {
        None
    } else {
        Some(total_secs(&cur_m) - total_secs(&base_m))
    };
    Ok(RunDiff {
        mean_delta,
        combined_half_width,
        significant: mean_delta.abs() > combined_half_width,
        points_delta,
        secs_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgressRecord;
    use spectral_telemetry::RunManifest;

    fn progress(worker: usize, n: u64, rel: f64, shard_points: u64) -> ProgressRecord {
        ProgressRecord {
            t_us: n,
            run_id: String::new(),
            seq: 1,
            run: "online".into(),
            metric: "cpi".into(),
            worker,
            config: None,
            n,
            mean: 1.4,
            half_width: rel * 1.4,
            rel_half_width: rel,
            target_rel_err: 0.1,
            eligible: n >= 30 && rel <= 0.1,
            rel_half_width_95: rel * 0.65,
            eligible_95: n >= 30 && rel * 0.65 <= 0.1,
            shard_points,
            shard_busy_ns: 0,
            overshoot: None,
        }
    }

    #[test]
    fn convergence_and_waste() {
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![
                progress(0, 8, 0.5, 8),
                progress(0, 16, 0.3, 16),
                progress(0, 32, 0.08, 32),
                progress(0, 40, 0.06, 40),
            ],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let d = analyze(&artifacts);
        let s = d.primary().expect("one series");
        assert!(s.converged);
        assert_eq!(s.first_eligible, Some(2), "first eligible sample is n=32");
        assert_eq!(s.wasted_points, 8, "40 - 32 points past convergence");
        assert!((s.wasted_fraction() - 0.2).abs() < 1e-12);
        // The 95% rule fires at the same stride here (0.3*0.65 > 0.1).
        assert_eq!(s.first_eligible_95, Some(2));
    }

    #[test]
    fn never_eligible_reports_no_waste() {
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![progress(0, 8, 0.5, 8), progress(0, 16, 0.4, 16)],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let s = analyze(&artifacts).series.remove(0);
        assert!(!s.converged);
        assert_eq!(s.first_eligible, None);
        assert_eq!(s.wasted_points, 0);
    }

    #[test]
    fn exact_overshoot_overrides_trajectory_waste() {
        let mut closing = progress(0, 40, 0.06, 40);
        closing.overshoot = Some(3);
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![progress(0, 8, 0.5, 8), progress(0, 32, 0.08, 32), closing],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let s = analyze(&artifacts).series.remove(0);
        assert!(s.wasted_exact, "closing overshoot makes the count exact");
        assert_eq!(s.wasted_points, 3, "not the trajectory-granular 40-32");
    }

    #[test]
    fn busy_time_spread_is_tracked_separately() {
        let busy = |worker: usize, n: u64, shard_points: u64, busy_ns: u64| {
            let mut p = progress(worker, n, 0.5, shard_points);
            p.shard_busy_ns = busy_ns;
            p
        };
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![busy(0, 8, 8, 400), busy(0, 24, 12, 1_000), busy(1, 16, 12, 250)],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let shards = analyze(&artifacts).series.remove(0).shards;
        assert!((shards.imbalance - 0.0).abs() < 1e-12, "point counts balance (12/12)");
        assert_eq!(shards.busy, vec![(0, 1_000), (1, 250)]);
        assert!((shards.busy_imbalance - 0.75).abs() < 1e-12, "(1000-250)/1000");
    }

    #[test]
    fn shard_imbalance_from_worker_counts() {
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![
                progress(0, 8, 0.5, 5),
                progress(0, 24, 0.2, 10),
                progress(1, 16, 0.3, 8),
            ],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let d = analyze(&artifacts);
        let shards = &d.primary().expect("one series").shards;
        assert_eq!(shards.workers, vec![(0, 10), (1, 8)]);
        assert!((shards.imbalance - 0.2).abs() < 1e-12, "(10-8)/10");
    }

    #[test]
    fn back_to_back_runs_stay_separate_series() {
        let mut second = progress(0, 16, 0.4, 16);
        second.seq = 2;
        second.target_rel_err = 0.5;
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![progress(0, 8, 0.5, 8), progress(0, 40, 0.06, 40), second],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let d = analyze(&artifacts);
        assert_eq!(d.series.len(), 2, "one series per run ordinal");
        assert_eq!((d.series[0].seq, d.series[1].seq), (1, 2));
        assert!(d.series[0].converged);
        assert!(!d.series[1].converged, "the second run's records don't pollute the first");
        assert!((d.series[1].target_rel_err - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_sink_processes_split_by_run_id() {
        // Two processes appending to one stream both start at seq
        // 1; only the run_id keeps their streams apart.
        let mut a = progress(0, 8, 0.5, 8);
        a.run_id = "aaaa000000000001-1".into();
        let mut a2 = progress(0, 40, 0.06, 40);
        a2.run_id = "aaaa000000000001-1".into();
        let mut b = progress(0, 16, 0.4, 16);
        b.run_id = "bbbb000000000001-1".into();
        let artifacts = RunArtifacts {
            manifest: None,
            progress: vec![a, b, a2],
            anomalies: Vec::new(),
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let d = analyze(&artifacts);
        assert_eq!(d.series.len(), 2, "one series per run_id despite equal seq");
        assert_eq!(d.series[0].run_id, "aaaa000000000001-1");
        assert!(d.series[0].converged);
        assert!(!d.series[1].converged);
    }

    #[test]
    fn anomalies_sorted_by_severity() {
        let a = |point: u64, sigmas: f64, ns: u64| crate::AnomalyRecord {
            t_us: 0,
            run_id: String::new(),
            seq: 1,
            run: "online".into(),
            worker: 0,
            point,
            detail_start: 0,
            measure_start: 0,
            kinds: vec!["cpi_outlier".into()],
            cpi: 2.0,
            mean: 1.0,
            std_dev: 0.1,
            sigmas,
            decode_ns: ns,
            simulate_ns: 0,
        };
        let artifacts = RunArtifacts {
            manifest: None,
            progress: Vec::new(),
            anomalies: vec![a(1, 3.5, 10), a(2, 8.0, 10), a(3, 3.5, 99)],
            profiles: Vec::new(),
            ..RunArtifacts::default()
        };
        let d = analyze(&artifacts);
        let order: Vec<u64> = d.anomalies.iter().map(|x| x.point).collect();
        assert_eq!(order, vec![2, 3, 1], "sigmas first, processing cost breaks ties");
        assert_eq!(d.top_anomalies(2).len(), 2);
        assert_eq!(d.top_anomalies(10).len(), 3, "top-N clamps to the total");
    }

    #[test]
    fn check_gate_conditions() {
        let mut m = RunManifest::new("online", "b", "8", 1);
        assert!(!exhausted_without_convergence(&m), "no counts, no verdict");
        m.library_points = Some(100);
        m.points_processed = Some(100);
        m.set_estimate(1.0, 0.5, false);
        assert!(exhausted_without_convergence(&m));
        m.set_estimate(1.0, 0.01, true);
        assert!(!exhausted_without_convergence(&m), "converged runs pass");
        m.points_processed = Some(60);
        m.set_estimate(1.0, 0.5, false);
        assert!(!exhausted_without_convergence(&m), "early-stopped runs pass");
    }

    #[test]
    fn diff_flags_significant_movement() {
        let with_estimate = |mean: f64, hw: f64, points: u64| {
            let mut m = RunManifest::new("online", "b", "8", 1);
            m.points_processed = Some(points);
            m.phase("run", 1.0);
            m.set_estimate(mean, hw, true);
            RunArtifacts {
                manifest: Some(m),
                progress: Vec::new(),
                anomalies: Vec::new(),
                profiles: Vec::new(),
                ..RunArtifacts::default()
            }
        };
        let base = with_estimate(1.0, 0.03, 100);
        let moved = with_estimate(1.2, 0.04, 120);
        let d = diff_runs(&moved, &base).expect("both have estimates");
        assert!((d.mean_delta - 0.2).abs() < 1e-12);
        assert!(d.significant, "0.2 delta vs 0.05 combined half-width");
        assert_eq!(d.points_delta, Some(20));
        let same = diff_runs(&base, &base).expect("self diff");
        assert!(!same.significant);
        assert!(
            diff_runs(&RunArtifacts::default(), &base).is_err(),
            "missing manifest is an error"
        );
    }
}
