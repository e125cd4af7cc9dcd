//! `doctor trend`: per-benchmark/per-machine time series over the run
//! registry — the perf trajectory a single run's artifacts can't show.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spectral_telemetry::{json_number as number, json_quote as quote};

use crate::report::sparkline;
use crate::RegistryRun;

/// One run's contribution to a trend series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Append-time wall clock (the x-axis), ms since the Unix epoch.
    pub unix_ms: u64,
    /// The run's collision-resistant identifier.
    pub run_id: String,
    /// Code-version label the run was indexed under.
    pub code_version: String,
    /// Throughput, points per second of run-phase wall-clock
    /// ([`RegistryRun::run_rate`]).
    pub run_rate: Option<f64>,
    /// Points the primary series needed to first become eligible to
    /// stop ([`RegistryRun::points_to_convergence`]).
    pub points_to_convergence: Option<u64>,
    /// Final estimate CI half-width.
    pub ci_half_width: Option<f64>,
    /// Whether the run reached its confidence target.
    pub converged: Option<bool>,
}

/// The trajectory of one `(binary, benchmark, machine, threads)` tuple
/// across indexed runs, in append order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Emitting binary (`scaling` for bench cells).
    pub binary: String,
    /// Benchmark / workload identifier.
    pub benchmark: String,
    /// Machine configuration label.
    pub machine: String,
    /// Worker thread count.
    pub threads: usize,
    /// Per-run samples, sorted by wall-clock (append order breaks ties).
    pub points: Vec<TrendPoint>,
}

fn trend_point(r: &RegistryRun) -> TrendPoint {
    let estimate = r.manifest().estimate.as_ref();
    TrendPoint {
        unix_ms: r.entry().unix_ms,
        run_id: r.entry().run_id.clone(),
        code_version: r.entry().code_version.clone(),
        run_rate: r.run_rate(),
        points_to_convergence: r.points_to_convergence(),
        ci_half_width: estimate.map(|e| e.half_width),
        converged: estimate.map(|e| e.reached_target),
    }
}

/// Group indexed runs into per-`(binary, benchmark, machine, threads)`
/// trend series. Runs stay in append order within a series (then
/// stable-sorted by wall clock, so backfilled registries still render
/// chronologically).
pub fn trend(runs: &[RegistryRun]) -> Vec<TrendSeries> {
    let mut groups: BTreeMap<crate::TupleKey, Vec<TrendPoint>> = BTreeMap::new();
    for r in runs {
        groups.entry(r.key()).or_default().push(trend_point(r));
    }
    groups
        .into_iter()
        .map(|((binary, benchmark, machine, threads), mut points)| {
            points.sort_by_key(|p| p.unix_ms);
            TrendSeries { binary, benchmark, machine, threads, points }
        })
        .collect()
}

fn metric_line(out: &mut String, label: &str, values: &[Option<f64>], unit: &str) {
    let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
    if present.is_empty() {
        return;
    }
    let (first, last) = (present[0], present[present.len() - 1]);
    let change = if first != 0.0 {
        format!(" ({:+.1}%)", (last - first) / first * 100.0)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "  {label:<22} {}  {first:.4} → {last:.4}{unit}{change}",
        sparkline(&present)
    );
}

/// Render trend series as a text report with sparkline trajectories.
pub fn render_trend_text(series: &[TrendSeries]) -> String {
    let mut out = String::new();
    if series.is_empty() {
        let _ = writeln!(out, "trend: no matching runs in the registry");
        return out;
    }
    for s in series {
        let _ = writeln!(
            out,
            "trend: {} / {} on {} with {} threads — {} run{}",
            s.binary,
            s.benchmark,
            s.machine,
            s.threads,
            s.points.len(),
            if s.points.len() == 1 { "" } else { "s" }
        );
        let rates: Vec<Option<f64>> = s.points.iter().map(|p| p.run_rate).collect();
        let to_conv: Vec<Option<f64>> =
            s.points.iter().map(|p| p.points_to_convergence.map(|n| n as f64)).collect();
        let hws: Vec<Option<f64>> = s.points.iter().map(|p| p.ci_half_width).collect();
        metric_line(&mut out, "run rate (pts/s)", &rates, "");
        metric_line(&mut out, "points to converge", &to_conv, "");
        metric_line(&mut out, "CI half-width", &hws, "");
        let unconverged = s.points.iter().filter(|p| p.converged == Some(false)).count();
        if unconverged > 0 {
            let _ = writeln!(out, "  WARNING: {unconverged} run(s) missed the target");
        }
        out.push('\n');
    }
    out
}

/// Render trend series as machine-readable JSON.
pub fn render_trend_json(series: &[TrendSeries]) -> String {
    let mut out = String::from("{\"version\":1,\"series\":[");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"binary\":{},\"benchmark\":{},\"machine\":{},\"threads\":{},\"points\":[",
            quote(&s.binary),
            quote(&s.benchmark),
            quote(&s.machine),
            s.threads
        );
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let opt_num = |v: Option<f64>| v.map_or("null".to_owned(), number);
            let _ = write!(
                out,
                "{{\"unix_ms\":{},\"run_id\":{},\"code_version\":{},\"run_rate\":{},\
                 \"points_to_convergence\":{},\"ci_half_width\":{},\"converged\":{}}}",
                p.unix_ms,
                quote(&p.run_id),
                quote(&p.code_version),
                opt_num(p.run_rate),
                p.points_to_convergence.map_or("null".to_owned(), |n| n.to_string()),
                opt_num(p.ci_half_width),
                p.converged.map_or("null".to_owned(), |b| b.to_string()),
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{manifest, registry_run};

    /// An online run of `points` in 0.5 s of run phase (rate
    /// `2 × points`) with CI half-width `hw`.
    fn run(binary: &str, unix_ms: u64, points: u64, hw: f64) -> RegistryRun {
        registry_run("dev", unix_ms, manifest(binary, points, 0.5, 1.4, hw), "")
    }

    #[test]
    fn records_group_and_sort_chronologically() {
        // Deliberately interleaved and out of wall-clock order.
        let runs = vec![
            run("online", 2_000, 1_200, 0.02),
            run("matched", 1_500, 450, 0.01),
            run("online", 1_000, 600, 0.05),
        ];
        let series = trend(&runs);
        assert_eq!(series.len(), 2);
        let online = series.iter().find(|s| s.binary == "online").expect("online series");
        assert_eq!(online.points.len(), 2);
        assert_eq!(online.points[0].unix_ms, 1_000, "sorted by wall clock");
        assert_eq!(online.points[0].run_rate, Some(1_200.0));
        assert_eq!(online.points[1].run_rate, Some(2_400.0));
        let text = render_trend_text(&series);
        assert!(text.contains("online / gcc-like"), "{text}");
        assert!(text.contains("2 runs"), "{text}");
        assert!(text.contains("run rate"), "{text}");
        assert!(text.contains("(+100.0%)"), "rate doubled: {text}");
    }

    #[test]
    fn convergence_cost_reads_the_analyzed_stream() {
        // The primary series first becomes eligible at n = 36.
        let progress = |n: u64, eligible: bool| {
            format!(
                "{{\"type\":\"progress\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
                 \"run\":\"online\",\"metric\":\"cpi\",\"worker\":0,\"n\":{n},\
                 \"eligible\":{eligible}}}\n"
            )
        };
        let stream = [progress(24, false), progress(36, true), progress(40, true)].concat();
        let r = registry_run("dev", 1_000, manifest("online", 500, 0.5, 1.4, 0.05), &stream);
        assert_eq!(trend(&[r])[0].points[0].points_to_convergence, Some(36));
        // Without an eligible sample, fall back to processed points.
        let bare = run("online", 1_000, 500, 0.05);
        assert_eq!(trend(&[bare])[0].points[0].points_to_convergence, Some(500));
    }

    #[test]
    fn json_rendering_is_parseable() {
        use spectral_telemetry::JsonValue;
        let series = trend(&[run("online", 1_000, 600, 0.05), run("online", 2_000, 1_200, 0.02)]);
        let doc = JsonValue::parse(&render_trend_json(&series)).expect("valid JSON");
        let arr = doc.get("series").and_then(JsonValue::as_arr).expect("series array");
        assert_eq!(arr.len(), 1);
        let points = arr[0].get("points").and_then(JsonValue::as_arr).expect("points array");
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("run_rate").and_then(JsonValue::as_f64), Some(2_400.0));
    }
}
