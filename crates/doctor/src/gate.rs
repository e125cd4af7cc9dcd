//! `doctor gate`: a statistical regression verdict between two
//! registry run-sets, built on the matched-pair machinery the paper
//! uses for design comparisons (§6.2).
//!
//! The baseline and candidate selectors pick run-sets out of the
//! registry (by `code_version` label or `run_id` prefix). Runs pair up
//! within each `(binary, benchmark, machine, threads)` tuple in append
//! order — CI invokes the same seeded experiment once per side, so the
//! i-th baseline run and the i-th candidate run measured the same work.
//! The per-pair run-rate ratios feed a
//! [`MatchedPair`](spectral_stats::MatchedPair), and the verdict fails
//! when the mean relative rate change drops below `-max_regress`
//! percent, or when a pair's final estimate moved by more than the
//! combined CI half-width `sqrt(hw_b² + hw_c²)` (the statistical result
//! itself changed, not just its speed) — the test
//! [`diff_runs`](crate::diff_runs) applies to any two runs.
//!
//! `MatchedPair::significant` keeps its n ≥ 30 floor for paper-scale
//! comparisons; CI run-sets are tiny (often one pair per tuple), so the
//! gate reports the relative-change *interval* alongside the point
//! estimate instead of a significance bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spectral_stats::{Confidence, MatchedPair};
use spectral_telemetry::{json_number as number, json_quote as quote};

use crate::{diff_runs, DoctorError, RegistryRun, TupleKey};

/// What to compare and how strict to be.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Baseline run-set selector: a `code_version` label or a `run_id`
    /// prefix.
    pub baseline: String,
    /// Candidate run-set selector.
    pub candidate: String,
    /// Maximum tolerated run-rate regression, in percent (e.g. `10.0`
    /// fails when the candidate is more than 10% slower).
    pub max_regress: f64,
    /// Confidence level for the reported change intervals.
    pub confidence: Confidence,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            baseline: "baseline".to_owned(),
            candidate: "candidate".to_owned(),
            max_regress: 10.0,
            confidence: Confidence::C95,
        }
    }
}

/// The verdict for one `(binary, benchmark, machine, threads)` tuple
/// present in both run-sets.
#[derive(Debug, Clone)]
pub struct GateComparison {
    /// Emitting binary.
    pub binary: String,
    /// Benchmark / workload identifier.
    pub benchmark: String,
    /// Machine configuration label.
    pub machine: String,
    /// Worker thread count.
    pub threads: usize,
    /// Paired runs that carried a run rate on both sides.
    pub pairs: u64,
    /// Mean baseline run rate (points/s).
    pub baseline_rate: f64,
    /// Mean candidate run rate (points/s).
    pub candidate_rate: f64,
    /// Mean relative rate change (negative = candidate slower).
    pub rate_change: f64,
    /// Confidence interval on the relative rate change.
    pub rate_change_interval: (f64, f64),
    /// Whether the rate change breaches `-max_regress`.
    pub rate_regressed: bool,
    /// Estimate drift: pairs whose final means moved by more than the
    /// combined half-width `sqrt(hw_b² + hw_c²)`.
    pub drifted_pairs: u64,
    /// Largest per-pair `|Δmean| / combined half-width` ratio (0 when no
    /// pair carried estimates).
    pub worst_drift_ratio: f64,
}

impl GateComparison {
    /// One-line tuple label for reports.
    pub fn label(&self) -> String {
        format!("{}/{} on {} t{}", self.binary, self.benchmark, self.machine, self.threads)
    }

    /// Whether this tuple passes the gate.
    pub fn pass(&self) -> bool {
        !self.rate_regressed && self.drifted_pairs == 0
    }
}

/// The full gate verdict across all comparable tuples.
#[derive(Debug, Clone)]
pub struct GateVerdict {
    /// Per-tuple comparisons, in registry key order.
    pub comparisons: Vec<GateComparison>,
    /// Tuples present in only one run-set (skipped, not failed).
    pub unpaired: Vec<String>,
    /// Failure messages (empty when the gate passes).
    pub failures: Vec<String>,
}

impl GateVerdict {
    /// Whether every comparison passed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

fn select<'a>(runs: &'a [RegistryRun], selector: &str) -> BTreeMap<TupleKey, Vec<&'a RegistryRun>> {
    let mut sets: BTreeMap<TupleKey, Vec<&RegistryRun>> = BTreeMap::new();
    for r in runs {
        let e = r.entry();
        if e.code_version == selector || (!e.run_id.is_empty() && e.run_id.starts_with(selector)) {
            sets.entry(r.key()).or_default().push(r);
        }
    }
    sets
}

fn tuple_label(k: &TupleKey) -> String {
    format!("{}/{} on {} t{}", k.0, k.1, k.2, k.3)
}

/// Compare the `cfg.baseline` run-set against the `cfg.candidate`
/// run-set over the indexed `runs`.
///
/// # Errors
///
/// Returns a diagnostic when either selector matches no runs — an
/// empty side means the CI pipeline is miswired, which must not read as
/// a pass.
pub fn gate(runs: &[RegistryRun], cfg: &GateConfig) -> Result<GateVerdict, DoctorError> {
    let base_sets = select(runs, &cfg.baseline);
    let cand_sets = select(runs, &cfg.candidate);
    if base_sets.is_empty() {
        return Err(DoctorError::msg(format!(
            "baseline selector '{}' matches no registry runs",
            cfg.baseline
        )));
    }
    if cand_sets.is_empty() {
        return Err(DoctorError::msg(format!(
            "candidate selector '{}' matches no registry runs",
            cfg.candidate
        )));
    }

    let mut comparisons = Vec::new();
    let mut unpaired = Vec::new();
    let mut failures = Vec::new();
    for (k, base_runs) in &base_sets {
        let Some(cand_runs) = cand_sets.get(k) else {
            unpaired.push(format!("{} (baseline only)", tuple_label(k)));
            continue;
        };
        let mut rates = MatchedPair::new();
        let mut pairs = 0u64;
        let mut drifted_pairs = 0u64;
        let mut worst_drift_ratio = 0.0f64;
        for (b, c) in base_runs.iter().zip(cand_runs.iter()) {
            if let (Some(br), Some(cr)) = (b.run_rate(), c.run_rate()) {
                rates.push(br, cr);
                pairs += 1;
            }
            // A pair without estimates on both sides has no drift to test.
            if let Ok(diff) = diff_runs(c.artifacts(), b.artifacts()) {
                if diff.combined_half_width > 0.0 {
                    worst_drift_ratio =
                        worst_drift_ratio.max(diff.mean_delta.abs() / diff.combined_half_width);
                }
                if diff.significant {
                    drifted_pairs += 1;
                }
            }
        }
        let rate_change = rates.relative_change();
        let cmp = GateComparison {
            binary: k.0.clone(),
            benchmark: k.1.clone(),
            machine: k.2.clone(),
            threads: k.3,
            pairs,
            baseline_rate: rates.base().mean(),
            candidate_rate: rates.experiment().mean(),
            rate_change,
            rate_change_interval: rates.relative_change_interval(cfg.confidence),
            rate_regressed: pairs > 0 && rate_change < -cfg.max_regress / 100.0,
            drifted_pairs,
            worst_drift_ratio,
        };
        if cmp.rate_regressed {
            failures.push(format!(
                "{}: run rate regressed {:.1}% (limit {:.1}%)",
                cmp.label(),
                -cmp.rate_change * 100.0,
                cfg.max_regress
            ));
        }
        if cmp.drifted_pairs > 0 {
            failures.push(format!(
                "{}: final estimate drifted beyond the combined CI half-width in {} pair(s)",
                cmp.label(),
                cmp.drifted_pairs
            ));
        }
        comparisons.push(cmp);
    }
    for k in cand_sets.keys().filter(|k| !base_sets.contains_key(*k)) {
        unpaired.push(format!("{} (candidate only)", tuple_label(k)));
    }
    if comparisons.is_empty() {
        return Err(DoctorError::msg(
            "baseline and candidate run-sets share no (binary, benchmark, machine, threads) \
             tuple — nothing to compare",
        ));
    }
    Ok(GateVerdict { comparisons, unpaired, failures })
}

/// Render the verdict as a text report.
pub fn render_gate_text(verdict: &GateVerdict, cfg: &GateConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gate: baseline '{}' vs candidate '{}' (max regress {:.1}%)",
        cfg.baseline, cfg.candidate, cfg.max_regress
    );
    for c in &verdict.comparisons {
        let (lo, hi) = c.rate_change_interval;
        let _ = writeln!(
            out,
            "  {}: rate {:.0} → {:.0} pts/s ({:+.1}%, CI [{:+.1}%, {:+.1}%]) over {} pair(s) — {}",
            c.label(),
            c.baseline_rate,
            c.candidate_rate,
            c.rate_change * 100.0,
            lo * 100.0,
            hi * 100.0,
            c.pairs,
            if c.pass() { "ok" } else { "FAIL" }
        );
        if c.drifted_pairs > 0 {
            let _ = writeln!(
                out,
                "    estimate drift in {} pair(s), worst |Δ|/hw ratio {:.2}",
                c.drifted_pairs, c.worst_drift_ratio
            );
        }
    }
    for u in &verdict.unpaired {
        let _ = writeln!(out, "  skipped: {u}");
    }
    let _ = writeln!(out, "verdict: {}", if verdict.pass() { "PASS" } else { "REGRESSION" });
    for f in &verdict.failures {
        let _ = writeln!(out, "  {f}");
    }
    out
}

/// Render the verdict as machine-readable JSON.
pub fn render_gate_json(verdict: &GateVerdict, cfg: &GateConfig) -> String {
    let mut out = String::from("{\"version\":1,");
    let _ = write!(
        out,
        "\"baseline\":{},\"candidate\":{},\"max_regress_pct\":{},\"pass\":{},\"comparisons\":[",
        quote(&cfg.baseline),
        quote(&cfg.candidate),
        number(cfg.max_regress),
        verdict.pass()
    );
    for (i, c) in verdict.comparisons.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (lo, hi) = c.rate_change_interval;
        let _ = write!(
            out,
            "{{\"binary\":{},\"benchmark\":{},\"machine\":{},\"threads\":{},\"pairs\":{},\
             \"baseline_rate\":{},\"candidate_rate\":{},\"rate_change\":{},\
             \"rate_change_interval\":[{},{}],\"rate_regressed\":{},\"drifted_pairs\":{},\
             \"worst_drift_ratio\":{}}}",
            quote(&c.binary),
            quote(&c.benchmark),
            quote(&c.machine),
            c.threads,
            c.pairs,
            number(c.baseline_rate),
            number(c.candidate_rate),
            number(c.rate_change),
            number(lo),
            number(hi),
            c.rate_regressed,
            c.drifted_pairs,
            number(c.worst_drift_ratio),
        );
    }
    out.push_str("],\"failures\":[");
    for (i, f) in verdict.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quote(f));
    }
    out.push_str("],\"unpaired\":[");
    for (i, u) in verdict.unpaired.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quote(u));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{manifest, registry_run};

    fn record(version: &str, binary: &str, rate: f64, mean: f64, hw: f64) -> RegistryRun {
        let mut m = manifest(binary, 1000, 1000.0 / rate, mean, hw);
        m.run_id = Some(format!("{:016x}-1", rate as u64));
        registry_run(version, 0, m, "")
    }

    #[test]
    fn identical_run_sets_pass() {
        let records = vec![
            record("baseline", "online", 2_000.0, 1.4, 0.05),
            record("candidate", "online", 2_000.0, 1.4, 0.05),
        ];
        let verdict = gate(&records, &GateConfig::default()).expect("comparable sets");
        assert!(verdict.pass(), "{:?}", verdict.failures);
        assert_eq!(verdict.comparisons.len(), 1);
        assert_eq!(verdict.comparisons[0].pairs, 1);
        assert!((verdict.comparisons[0].rate_change).abs() < 1e-12);
    }

    #[test]
    fn degraded_rate_fails_and_small_jitter_passes() {
        let mk = |cand_rate: f64| {
            vec![
                record("baseline", "online", 2_000.0, 1.4, 0.05),
                record("candidate", "online", cand_rate, 1.4, 0.05),
            ]
        };
        let cfg = GateConfig { max_regress: 10.0, ..GateConfig::default() };
        let bad = gate(&mk(1_500.0), &cfg).expect("comparable");
        assert!(!bad.pass(), "25% slower must fail a 10% limit");
        assert!(bad.failures[0].contains("run rate regressed 25.0%"), "{:?}", bad.failures);

        let ok = gate(&mk(1_950.0), &cfg).expect("comparable");
        assert!(ok.pass(), "2.5% slower is within a 10% limit: {:?}", ok.failures);

        let faster = gate(&mk(3_000.0), &cfg).expect("comparable");
        assert!(faster.pass(), "speedups never fail the gate");
    }

    #[test]
    fn estimate_drift_beyond_combined_half_width_fails() {
        let records = vec![
            record("baseline", "online", 2_000.0, 1.40, 0.03),
            record("candidate", "online", 2_000.0, 1.55, 0.03), // Δ=0.15 vs ~0.042
        ];
        let verdict = gate(&records, &GateConfig::default()).expect("comparable");
        assert!(!verdict.pass());
        assert_eq!(verdict.comparisons[0].drifted_pairs, 1);
        assert!(verdict.comparisons[0].worst_drift_ratio > 3.0);
        assert!(verdict.failures[0].contains("estimate drifted"), "{:?}", verdict.failures);
    }

    #[test]
    fn selectors_also_match_run_id_prefixes() {
        let mut base = record("dev", "online", 2_000.0, 1.4, 0.05);
        base.entry.run_id = "aaaa000000000001-1".into();
        let mut cand = record("dev", "online", 2_000.0, 1.4, 0.05);
        cand.entry.run_id = "bbbb000000000001-1".into();
        let cfg = GateConfig {
            baseline: "aaaa".into(),
            candidate: "bbbb".into(),
            ..GateConfig::default()
        };
        let verdict = gate(&[base, cand], &cfg).expect("prefix selection works");
        assert!(verdict.pass());
        assert_eq!(verdict.comparisons[0].pairs, 1);
    }

    #[test]
    fn empty_or_disjoint_sides_are_errors_not_passes() {
        let records = vec![record("baseline", "online", 2_000.0, 1.4, 0.05)];
        assert!(gate(&records, &GateConfig::default()).is_err(), "no candidate records");
        let disjoint = vec![
            record("baseline", "online", 2_000.0, 1.4, 0.05),
            record("candidate", "matched", 2_000.0, 1.4, 0.05),
        ];
        let err = gate(&disjoint, &GateConfig::default());
        assert!(err.is_err(), "no shared tuple to compare");
    }

    #[test]
    fn unpaired_tuples_are_skipped_not_failed() {
        let records = vec![
            record("baseline", "online", 2_000.0, 1.4, 0.05),
            record("baseline", "matched", 900.0, 0.1, 0.01),
            record("candidate", "online", 2_000.0, 1.4, 0.05),
        ];
        let verdict = gate(&records, &GateConfig::default()).expect("online is comparable");
        assert!(verdict.pass());
        assert_eq!(verdict.comparisons.len(), 1);
        assert_eq!(verdict.unpaired.len(), 1);
        assert!(verdict.unpaired[0].contains("baseline only"));
        let json = render_gate_json(&verdict, &GateConfig::default());
        assert!(spectral_telemetry::JsonValue::parse(&json).is_ok(), "gate JSON parses");
    }
}
