//! Report rendering: the human-readable text diagnosis and the
//! machine-readable JSON report, each ending with the run's wall-clock
//! attribution.

use std::fmt::Write as _;

use spectral_telemetry::{json_number as number, json_quote as quote, RunManifest};

use crate::analyze::exhausted_without_convergence;
use crate::profile::{render_profile_json, render_profile_text};
use crate::{AnomalyRecord, Diagnosis, ProfileReport, RunDiff, SeriesDiagnosis};

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a unicode sparkline scaled to the series maximum
/// (empty input renders empty; non-finite values render at the floor).
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().filter(|v| v.is_finite()).fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if !(v.is_finite() && v > 0.0 && max > 0.0) {
                return SPARK_LEVELS[0];
            }
            let level = (v / max * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
            SPARK_LEVELS[level.min(SPARK_LEVELS.len() - 1)]
        })
        .collect()
}

fn series_label(s: &SeriesDiagnosis) -> String {
    let mut label = match s.config {
        Some(c) => format!("{} {} [config {c}]", s.run, s.metric),
        None => format!("{} {}", s.run, s.metric),
    };
    if s.seq > 0 {
        label.push_str(&format!(", run #{}", s.seq));
    }
    label
}

fn write_series_text(out: &mut String, s: &SeriesDiagnosis) {
    let _ = writeln!(out, "convergence ({}):", series_label(s));
    let rels: Vec<f64> = s.trajectory.iter().map(|t| t.rel_half_width).collect();
    match (rels.first(), rels.last()) {
        (Some(first), Some(last)) => {
            let _ = writeln!(
                out,
                "  rel half-width  {}  {:.4} → {:.4} (target {:.4})",
                sparkline(&rels),
                first,
                last,
                s.target_rel_err
            );
        }
        _ => {
            let _ = writeln!(out, "  no progress records");
            return;
        }
    }
    match s.first_eligible {
        Some(i) => {
            let _ = writeln!(
                out,
                "  first eligible at n={} (stride {} of {}){}",
                s.trajectory[i].n,
                i + 1,
                s.trajectory.len(),
                match s.first_eligible_95 {
                    Some(j) => format!("; ±ε@95% at n={}", s.trajectory[j].n),
                    None => String::new(),
                }
            );
            let last_n = s.last().map_or(0, |t| t.n);
            let _ = writeln!(
                out,
                "  wasted points past convergence: {} of {} ({:.1}%{})",
                s.wasted_points,
                last_n,
                s.wasted_fraction() * 100.0,
                if s.wasted_exact { ", exact" } else { ", trajectory-granular" }
            );
        }
        None => {
            let _ = writeln!(out, "  never eligible: did NOT converge to the target");
        }
    }
    if s.shards.workers.len() > 1 {
        let pts: Vec<String> = s.shards.workers.iter().map(|&(_, n)| n.to_string()).collect();
        let _ = writeln!(
            out,
            "  shards: {} workers, points {} — imbalance {:.1}%",
            s.shards.workers.len(),
            pts.join("/"),
            s.shards.imbalance * 100.0
        );
        if s.shards.busy.len() > 1 {
            let busy: Vec<String> =
                s.shards.busy.iter().map(|&(_, ns)| format!("{}ms", ns / 1_000_000)).collect();
            let _ = writeln!(
                out,
                "  busy time: {} — spread {:.1}%",
                busy.join("/"),
                s.shards.busy_imbalance * 100.0
            );
        }
    }
}

fn write_anomaly_text(out: &mut String, a: &AnomalyRecord) {
    let mut detail = String::new();
    if a.sigmas > 0.0 {
        let _ = write!(detail, "cpi {:.3} ({:.1}σ from {:.3})", a.cpi, a.sigmas, a.mean);
    } else {
        let _ =
            write!(detail, "decode {}µs simulate {}µs", a.decode_ns / 1000, a.simulate_ns / 1000);
    }
    // One binary runs several estimates over one library, so the same
    // point can be anomalous in several runs: name the run.
    let run = if a.seq > 0 { format!("{} #{}", a.run, a.seq) } else { a.run.clone() };
    let _ = writeln!(
        out,
        "  {run:<10} point #{:<6} worker {}  {:<28} {}  window@{}",
        a.point,
        a.worker,
        a.kinds.join("+"),
        detail,
        a.measure_start
    );
}

/// Render the full text report: the diagnosis, then one attribution
/// block per profiled run ([`analyze_profile`](crate::analyze_profile)).
pub fn render_text(
    diagnosis: &Diagnosis,
    manifest: Option<&RunManifest>,
    diff: Option<&RunDiff>,
    top: usize,
    profiles: &[ProfileReport],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "spectral-doctor — sampling-health report");
    if let Some(m) = manifest {
        let _ = writeln!(
            out,
            "run: {} / {} on machine {} with {} threads",
            m.binary, m.benchmark, m.machine, m.threads
        );
        if let Some(e) = &m.estimate {
            let _ = writeln!(
                out,
                "estimate: {:.4} ± {:.4} ({:.2}% rel), reached target: {}",
                e.mean,
                e.half_width,
                e.relative_half_width * 100.0,
                if e.reached_target { "yes" } else { "NO" }
            );
        }
        if let (Some(p), Some(l)) = (m.points_processed, m.library_points) {
            let _ = writeln!(out, "points: {p} processed of {l} in the library");
        }
        if let Some((_, ckpt)) = m.notes.iter().find(|(k, _)| k == "resumed_from") {
            let _ = writeln!(out, "lineage: resumed from checkpoint {ckpt}");
        }
        if exhausted_without_convergence(m) {
            let _ =
                writeln!(out, "WARNING: library exhausted without reaching the confidence target");
        }
    }
    out.push('\n');
    for s in &diagnosis.series {
        write_series_text(&mut out, s);
        out.push('\n');
    }
    let shown = diagnosis.top_anomalies(top);
    let _ = writeln!(
        out,
        "anomalies: {} total{}",
        diagnosis.anomalies.len(),
        if shown.is_empty() { String::new() } else { format!(", top {}:", shown.len()) }
    );
    for a in shown {
        write_anomaly_text(&mut out, a);
    }
    if let Some(d) = diff {
        let _ = writeln!(out, "\nvs baseline:");
        let _ = writeln!(
            out,
            "  mean delta {:+.4} against combined half-width {:.4} — {}",
            d.mean_delta,
            d.combined_half_width,
            if d.significant { "SIGNIFICANT" } else { "within noise" }
        );
        if let Some(p) = d.points_delta {
            let _ = writeln!(out, "  points processed: {p:+}");
        }
        if let Some(s) = d.secs_delta {
            let _ = writeln!(out, "  total phase wall-clock: {s:+.3}s");
        }
    }
    for p in profiles {
        out.push_str(&render_profile_text(p));
    }
    out
}

fn render_series_json(s: &SeriesDiagnosis) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"seq\":{},\"run_id\":{},\"run\":{},\"metric\":{},\"config\":{},\"target_rel_err\":{},",
        s.seq,
        quote(&s.run_id),
        quote(&s.run),
        quote(&s.metric),
        s.config.map_or("null".to_owned(), |c| c.to_string()),
        number(s.target_rel_err),
    );
    let _ = write!(
        out,
        "\"converged\":{},\"first_eligible\":{},\"first_eligible_95\":{},\"wasted_points\":{},\
         \"wasted_exact\":{},\"wasted_fraction\":{},",
        s.converged,
        eligible_json(s, s.first_eligible),
        eligible_json(s, s.first_eligible_95),
        s.wasted_points,
        s.wasted_exact,
        number(s.wasted_fraction()),
    );
    match s.last() {
        Some(last) => {
            let _ = write!(
                out,
                "\"final\":{{\"n\":{},\"mean\":{},\"rel_half_width\":{}}},",
                last.n,
                number(last.mean),
                number(last.rel_half_width)
            );
        }
        None => out.push_str("\"final\":null,"),
    }
    out.push_str("\"trajectory\":[");
    for (i, t) in s.trajectory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{},\"mean\":{},\"rel_half_width\":{},\"eligible\":{},\"eligible_95\":{}}}",
            t.n,
            number(t.mean),
            number(t.rel_half_width),
            t.eligible,
            t.eligible_95
        );
    }
    out.push_str("],");
    let workers: Vec<String> = s
        .shards
        .workers
        .iter()
        .map(|&(w, n)| format!("{{\"worker\":{w},\"points\":{n}}}"))
        .collect();
    let busy: Vec<String> = s
        .shards
        .busy
        .iter()
        .map(|&(w, ns)| format!("{{\"worker\":{w},\"busy_ns\":{ns}}}"))
        .collect();
    let _ = write!(
        out,
        "\"shards\":{{\"workers\":[{}],\"imbalance\":{},\"busy\":[{}],\"busy_imbalance\":{}}}}}",
        workers.join(","),
        number(s.shards.imbalance),
        busy.join(","),
        number(s.shards.busy_imbalance)
    );
    out
}

fn eligible_json(s: &SeriesDiagnosis, index: Option<usize>) -> String {
    match index {
        Some(i) => format!("{{\"stride\":{},\"n\":{}}}", i + 1, s.trajectory[i].n),
        None => "null".to_owned(),
    }
}

fn render_anomaly_json(a: &AnomalyRecord) -> String {
    let kinds: Vec<String> = a.kinds.iter().map(|k| quote(k)).collect();
    format!(
        "{{\"seq\":{},\"point\":{},\"worker\":{},\"kinds\":[{}],\"cpi\":{},\"mean\":{},\
         \"sigmas\":{},\"decode_ns\":{},\"simulate_ns\":{},\"detail_start\":{},\
         \"measure_start\":{}}}",
        a.seq,
        a.point,
        a.worker,
        kinds.join(","),
        number(a.cpi),
        number(a.mean),
        number(a.sigmas),
        a.decode_ns,
        a.simulate_ns,
        a.detail_start,
        a.measure_start
    )
}

/// Render the machine-readable JSON report; its last key, `profile`,
/// holds one attribution per profiled run.
pub fn render_json(
    diagnosis: &Diagnosis,
    manifest: Option<&RunManifest>,
    diff: Option<&RunDiff>,
    top: usize,
    profiles: &[ProfileReport],
) -> String {
    let mut out = String::from("{\"version\":1,");
    out.push_str("\"series\":[");
    for (i, s) in diagnosis.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_series_json(s));
    }
    out.push_str("],");
    let shown: Vec<String> = diagnosis.top_anomalies(top).iter().map(render_anomaly_json).collect();
    let _ = write!(
        out,
        "\"anomalies\":{{\"total\":{},\"top\":[{}]}},",
        diagnosis.anomalies.len(),
        shown.join(",")
    );
    match manifest {
        Some(m) => {
            let _ = write!(
                out,
                "\"manifest\":{{\"binary\":{},\"benchmark\":{},\"machine\":{},\"threads\":{},\
                 \"points_processed\":{},\"library_points\":{},\"reached_target\":{}}},",
                quote(&m.binary),
                quote(&m.benchmark),
                quote(&m.machine),
                m.threads,
                m.points_processed.map_or("null".to_owned(), |n| n.to_string()),
                m.library_points.map_or("null".to_owned(), |n| n.to_string()),
                m.estimate.as_ref().map_or("null".to_owned(), |e| e.reached_target.to_string()),
            );
            let _ = write!(
                out,
                "\"check\":{{\"exhausted_without_convergence\":{}}},",
                exhausted_without_convergence(m)
            );
        }
        None => out.push_str("\"manifest\":null,\"check\":null,"),
    }
    match diff {
        Some(d) => {
            let _ = write!(
                out,
                "\"diff\":{{\"mean_delta\":{},\"combined_half_width\":{},\"significant\":{},\
                 \"points_delta\":{},\"secs_delta\":{}}}",
                number(d.mean_delta),
                number(d.combined_half_width),
                d.significant,
                d.points_delta.map_or("null".to_owned(), |p| p.to_string()),
                d.secs_delta.map_or("null".to_owned(), number),
            );
        }
        None => out.push_str("\"diff\":null"),
    }
    let profiles: Vec<String> = profiles.iter().map(render_profile_json).collect();
    let _ = write!(out, ",\"profile\":[{}]}}", profiles.join(","));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anomaly(seq: u64) -> AnomalyRecord {
        AnomalyRecord {
            t_us: 0,
            run_id: format!("aaaa000000000001-{seq}"),
            seq,
            run: "online".to_owned(),
            worker: 0,
            point: 611,
            detail_start: 100,
            measure_start: 200,
            kinds: vec!["cpi_outlier".to_owned()],
            cpi: 1.5,
            mean: 0.5,
            std_dev: 0.2,
            sigmas: 5.0,
            decode_ns: 0,
            simulate_ns: 0,
        }
    }

    #[test]
    fn anomaly_lines_name_their_run() {
        let diagnosis =
            Diagnosis { anomalies: vec![anomaly(1), anomaly(4)], ..Diagnosis::default() };
        let text = render_text(&diagnosis, None, None, 3, &[]);
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("point #611")).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].trim_start().starts_with("online #1 "), "{text}");
        assert!(lines[1].trim_start().starts_with("online #4 "), "{text}");
    }

    #[test]
    fn json_report_ends_with_the_attribution() {
        // The keys before `profile` are the report's earlier format.
        let empty = render_json(&Diagnosis::default(), None, None, 3, &[]);
        assert_eq!(
            empty,
            "{\"version\":1,\"series\":[],\"anomalies\":{\"total\":0,\"top\":[]},\
             \"manifest\":null,\"check\":null,\"diff\":null,\"profile\":[]}"
        );
        let stream = "{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
                      \"run\":\"online\",\"worker\":0,\"t_us\":0,\"dur_us\":10,\"recorded\":1,\
                      \"phases\":{\"simulate\":{\"count\":1,\"ns\":9000}}}\n";
        let run = &crate::RunArtifacts::parse(None, stream).expect("valid stream").profiles[0];
        let report = crate::analyze_profile(run, 50);
        let diagnosis = Diagnosis { anomalies: vec![anomaly(1)], ..Diagnosis::default() };
        let earlier = render_json(&diagnosis, None, None, 3, &[]);
        let earlier = earlier.strip_suffix(",\"profile\":[]}").expect("profile is the last key");
        let entry = render_profile_json(&report);
        assert_eq!(
            render_json(&diagnosis, None, None, 3, &[report.clone(), report]),
            format!("{earlier},\"profile\":[{entry},{entry}]}}")
        );
        let doc = spectral_telemetry::JsonValue::parse(&format!("{earlier}}}")).expect("JSON");
        assert!(doc.get("profile").is_none());
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 0.5, 0.25, 0.125]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('█'), "the max renders at the top level: {s}");
        assert_eq!(sparkline(&[f64::NAN, f64::INFINITY, 1.0]).chars().next(), Some('▁'));
    }
}
