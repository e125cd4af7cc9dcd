//! Wall-clock attribution over the worker-timeline records of a run
//! stream: the last part of `analyze`'s report.
//!
//! The stream carries two profile record kinds per run: one
//! `profile_run` bracket (the run's own wall-clock) and one
//! `profile_worker` record per worker, written when the worker finishes
//! (exact per-phase `(count, ns)` aggregates over *every* recorded
//! interval). Streams written before the profiler kept only these two
//! also carry `profile_phase` intervals, which are skipped.
//!
//! The analysis answers the questions the paper's speedup claim hangs
//! on:
//!
//! * **Attribution** — what fraction of each worker's wall-clock went
//!   to claim / prefetch-wait / decode / simulate / merge-wait / merge,
//!   with *idle* as the explicit remainder, so per-worker percentages
//!   always sum to the worker's wall.
//! * **Contention** — merge-lock waits: count, total and mean.
//! * **Prefetch health** — decode the simulator stalled on
//!   (`prefetch_wait`) versus decode-ahead that was hidden (`decode`).
//! * **Stragglers** — per-worker end gap against the run bracket and
//!   the summed barrier waste.
//! * **Critical path** — run wall minus the work that could have
//!   overlapped (total busy minus the busiest worker), a lower bound on
//!   the serial residue.
//! * **Profiler overhead** — `recorded × per-record cost`, with the
//!   per-record cost the caller passes: the binary measures it once with
//!   a clock probe ([`measure_record_cost_ns`]); tests pass a fixed one,
//!   so their reports are reproducible.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spectral_telemetry::{json_number, json_quote, JsonValue, ProfilePhase};

use crate::{str_field, u64_field};

/// Exact aggregate for one phase of one worker: every recorded interval
/// counts here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Recorded intervals of this phase.
    pub count: u64,
    /// Total duration of this phase in nanoseconds.
    pub ns: u64,
}

/// One worker's parsed timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker ordinal.
    pub worker: usize,
    /// Timeline start, microseconds since the run's telemetry epoch.
    pub t_us: u64,
    /// Worker wall-clock in microseconds (timeline construction to
    /// drop).
    pub dur_us: u64,
    /// Intervals recorded in total (aggregates cover all of them).
    pub recorded: u64,
    /// Exact per-phase aggregates, keyed by wire phase name.
    pub phases: BTreeMap<String, PhaseTotal>,
}

impl WorkerProfile {
    /// Total nanoseconds attributed to recorded phases.
    pub fn busy_ns(&self) -> u64 {
        self.phases.values().map(|p| p.ns).sum()
    }
}

/// One run's parsed profile: the run bracket plus every worker that
/// reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileRun {
    /// Collision-resistant run identifier.
    pub run_id: String,
    /// Process-wide run ordinal.
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: String,
    /// Worker count declared by the run bracket (0 when the bracket is
    /// missing from a truncated stream).
    pub declared_workers: usize,
    /// Run bracket start, microseconds since the telemetry epoch.
    pub t_us: u64,
    /// Run wall-clock in microseconds. Synthesized from the workers'
    /// envelope when the `profile_run` record is missing.
    pub dur_us: u64,
    /// Per-worker timelines, ordered by worker ordinal.
    pub workers: Vec<WorkerProfile>,
}

/// Fold one `profile_run` or `profile_worker` record into its run,
/// keyed by `(run_id, seq)` in first-seen order.
pub(crate) fn add_record(runs: &mut Vec<ProfileRun>, kind: &str, doc: &JsonValue) {
    let (run_id, seq) = (str_field(doc, "run_id"), u64_field(doc, "seq"));
    let run = match runs.iter().position(|r| r.run_id == run_id && r.seq == seq) {
        Some(i) => &mut runs[i],
        None => {
            let run = str_field(doc, "run");
            runs.push(ProfileRun { run_id, seq, run, ..ProfileRun::default() });
            runs.last_mut().expect("just pushed")
        }
    };
    if kind == "profile_run" {
        run.declared_workers = u64_field(doc, "workers") as usize;
        run.t_us = u64_field(doc, "t_us");
        run.dur_us = u64_field(doc, "dur_us");
        return;
    }
    let worker = worker_entry(run, u64_field(doc, "worker") as usize);
    worker.t_us = u64_field(doc, "t_us");
    worker.dur_us = u64_field(doc, "dur_us");
    worker.recorded = u64_field(doc, "recorded");
    for (name, agg) in doc.get("phases").and_then(JsonValue::as_obj).into_iter().flatten() {
        let total = PhaseTotal {
            count: agg.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
            ns: agg.get("ns").and_then(JsonValue::as_u64).unwrap_or(0),
        };
        worker.phases.insert(name.clone(), total);
    }
}

/// Finish parsed runs: order each run's workers, and give a run whose
/// `profile_run` bracket is missing (a truncated stream) the window of
/// its workers' envelope, so attribution still has a denominator.
pub(crate) fn close_runs(runs: &mut [ProfileRun]) {
    for run in runs {
        run.workers.sort_by_key(|w| w.worker);
        if run.dur_us == 0 && !run.workers.is_empty() {
            run.t_us = run.workers.iter().map(|w| w.t_us).min().unwrap_or(0);
            let end = run.workers.iter().map(|w| w.t_us + w.dur_us).max().unwrap_or(0);
            run.dur_us = end.saturating_sub(run.t_us);
            run.declared_workers = run.declared_workers.max(run.workers.len());
        }
    }
}

fn worker_entry(run: &mut ProfileRun, worker: usize) -> &mut WorkerProfile {
    if let Some(i) = run.workers.iter().position(|w| w.worker == worker) {
        &mut run.workers[i]
    } else {
        run.workers.push(WorkerProfile { worker, ..WorkerProfile::default() });
        run.workers.last_mut().expect("just pushed")
    }
}

/// One phase's share of a wall-clock budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAttribution {
    /// Wire phase name (`idle` for the computed remainder).
    pub phase: String,
    /// Recorded intervals (0 for `idle`).
    pub count: u64,
    /// Attributed nanoseconds.
    pub ns: u64,
    /// Percentage of the budget (worker wall for per-worker rows,
    /// summed worker wall for the aggregate).
    pub pct: f64,
}

/// Merge-lock waits, from the exact aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WaitStats {
    /// Waits recorded.
    pub count: u64,
    /// Total wait nanoseconds.
    pub total_ns: u64,
    /// Mean wait nanoseconds.
    pub mean_ns: f64,
}

/// The profiler's own cost estimate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadEstimate {
    /// Intervals recorded across all workers.
    pub recorded: u64,
    /// Per-record cost in nanoseconds (the binary's clock probe, or a
    /// caller's fixed cost).
    pub record_cost_ns: u64,
    /// Total overhead across all workers, nanoseconds.
    pub total_ns: u64,
    /// Worst single worker's overhead, nanoseconds — the wall-clock
    /// impact bound, since workers record concurrently.
    pub max_worker_ns: u64,
    /// `max_worker_ns` as a percentage of the run wall.
    pub pct_of_wall: f64,
}

/// Per-worker attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Worker ordinal.
    pub worker: usize,
    /// Worker wall-clock, microseconds.
    pub wall_us: u64,
    /// Nanoseconds attributed to recorded phases.
    pub busy_ns: u64,
    /// Wall-clock remainder (idle at the barrier, spawn/join skew).
    pub idle_ns: u64,
    /// End gap against the run bracket, microseconds (straggler /
    /// barrier waste).
    pub end_gap_us: u64,
    /// Phase shares of this worker's wall, `idle` last.
    pub attribution: Vec<PhaseAttribution>,
}

/// The full analysis of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Collision-resistant run identifier.
    pub run_id: String,
    /// Process-wide run ordinal.
    pub seq: u64,
    /// Run kind.
    pub run: String,
    /// Workers declared by the run bracket.
    pub workers: usize,
    /// Run wall-clock, microseconds.
    pub run_wall_us: u64,
    /// Σ (run end − worker start) / (workers × run wall), percent —
    /// how much of the run's wall-clock budget the per-worker
    /// attributions cover. A worker's share spans from its first
    /// instant to the run bracket closing: the tail after the worker
    /// exits is explicitly attributed as straggler/barrier waste, so
    /// only the spawn latency before the worker exists is
    /// unattributed.
    pub attributed_pct: f64,
    /// Phase shares of the summed worker wall, `idle` last.
    pub aggregate: Vec<PhaseAttribution>,
    /// Per-worker reports, ordered by worker ordinal.
    pub worker_reports: Vec<WorkerReport>,
    /// Merge-lock contention.
    pub merge_wait: WaitStats,
    /// Decode the simulator stalled on, nanoseconds.
    pub prefetch_stall_ns: u64,
    /// Decode-ahead that was hidden behind simulation, nanoseconds.
    pub decode_ahead_ns: u64,
    /// Σ per-worker end gaps, microseconds.
    pub straggler_us: u64,
    /// Run wall minus overlappable work (total busy minus the busiest
    /// worker), microseconds; `None` when that bound is not positive,
    /// as on a run with more workers than cores, whose descheduled time
    /// counts as busy.
    pub critical_path_us: Option<u64>,
    /// The profiler's own cost.
    pub overhead: OverheadEstimate,
}

/// Measure the per-record cost of the profiler's hot path with a clock
/// probe: a recorded interval costs about two monotonic clock reads, so
/// the probe times a batch of `Instant::now` calls and doubles the
/// per-call cost.
pub fn measure_record_cost_ns() -> u64 {
    const PROBES: u32 = 10_000;
    let started = std::time::Instant::now();
    for _ in 0..PROBES {
        std::hint::black_box(std::time::Instant::now());
    }
    let per_call = started.elapsed().as_nanos() / u128::from(PROBES);
    u64::try_from(per_call * 2).unwrap_or(u64::MAX).max(1)
}

/// Analyze one parsed run. `record_cost_ns` prices the profiler's own
/// overhead (see [`measure_record_cost_ns`]).
pub fn analyze_profile(run: &ProfileRun, record_cost_ns: u64) -> ProfileReport {
    let run_wall_ns = run.dur_us.saturating_mul(1_000);
    let run_end_us = run.t_us + run.dur_us;
    let mut worker_reports = Vec::with_capacity(run.workers.len());
    let mut aggregate: BTreeMap<&str, PhaseTotal> = BTreeMap::new();
    let mut summed_wall_ns: u64 = 0;
    let mut covered_wall_us: u64 = 0;
    let (mut total_busy_ns, mut max_busy_ns) = (0u64, 0u64);
    let (mut recorded_total, mut recorded_max) = (0u64, 0u64);
    let mut merge_wait = WaitStats::default();
    let (mut stall_ns, mut ahead_ns) = (0u64, 0u64);
    let mut straggler_us = 0u64;

    for w in &run.workers {
        let wall_ns = w.dur_us.saturating_mul(1_000);
        let busy_ns = w.busy_ns();
        let idle_ns = wall_ns.saturating_sub(busy_ns);
        summed_wall_ns += wall_ns;
        // Coverage runs from the worker's first instant to the run
        // bracket closing: the worker-exit-to-run-end tail is reported
        // as straggler/barrier waste (an attribution in its own
        // right), so only pre-spawn latency stays unattributed.
        covered_wall_us += run_end_us.saturating_sub(w.t_us).min(run.dur_us);
        total_busy_ns += busy_ns;
        max_busy_ns = max_busy_ns.max(busy_ns);
        recorded_total += w.recorded;
        recorded_max = recorded_max.max(w.recorded);
        let end_gap_us = run_end_us.saturating_sub(w.t_us + w.dur_us).min(run.dur_us);
        straggler_us += end_gap_us;

        let mut attribution = Vec::new();
        for phase in ProfilePhase::ALL {
            let name = phase.name();
            let total = match phase {
                ProfilePhase::Idle => PhaseTotal { count: 0, ns: idle_ns },
                _ => w.phases.get(name).copied().unwrap_or_default(),
            };
            if total.count == 0 && total.ns == 0 && phase != ProfilePhase::Idle {
                continue;
            }
            let agg = aggregate.entry(name).or_default();
            agg.count += total.count;
            agg.ns += total.ns;
            attribution.push(PhaseAttribution {
                phase: name.to_owned(),
                count: total.count,
                ns: total.ns,
                pct: pct(total.ns, wall_ns),
            });
            match phase {
                ProfilePhase::PrefetchWait => stall_ns += total.ns,
                ProfilePhase::Decode => ahead_ns += total.ns,
                ProfilePhase::MergeWait => {
                    merge_wait.count += total.count;
                    merge_wait.total_ns += total.ns;
                }
                _ => {}
            }
        }
        worker_reports.push(WorkerReport {
            worker: w.worker,
            wall_us: w.dur_us,
            busy_ns,
            idle_ns,
            end_gap_us,
            attribution,
        });
    }

    if merge_wait.count > 0 {
        merge_wait.mean_ns = merge_wait.total_ns as f64 / merge_wait.count as f64;
    }

    let aggregate = ProfilePhase::ALL
        .iter()
        .filter_map(|p| {
            let total = aggregate.get(p.name()).copied()?;
            Some(PhaseAttribution {
                phase: p.name().to_owned(),
                count: total.count,
                ns: total.ns,
                pct: pct(total.ns, summed_wall_ns),
            })
        })
        .collect();

    let overlappable_us = total_busy_ns.saturating_sub(max_busy_ns) / 1_000;
    let max_worker_overhead_ns = recorded_max.saturating_mul(record_cost_ns);
    ProfileReport {
        run_id: run.run_id.clone(),
        seq: run.seq,
        run: run.run.clone(),
        workers: run.declared_workers.max(run.workers.len()),
        run_wall_us: run.dur_us,
        attributed_pct: pct(
            covered_wall_us,
            run.dur_us.saturating_mul(run.workers.len().max(1) as u64),
        ),
        aggregate,
        worker_reports,
        merge_wait,
        prefetch_stall_ns: stall_ns,
        decode_ahead_ns: ahead_ns,
        straggler_us,
        critical_path_us: run.dur_us.checked_sub(overlappable_us).filter(|&us| us > 0),
        overhead: OverheadEstimate {
            recorded: recorded_total,
            record_cost_ns,
            total_ns: recorded_total.saturating_mul(record_cost_ns),
            max_worker_ns: max_worker_overhead_ns,
            pct_of_wall: pct(max_worker_overhead_ns, run_wall_ns),
        },
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000 {
        fmt_us(ns / 1_000)
    } else {
        format!("{ns} ns")
    }
}

/// Render a profiled run's analysis as a text block.
pub(crate) fn render_profile_text(report: &ProfileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {} {} #{} — {} worker{}, wall {} ({:.1}% attributed)",
        report.run_id,
        report.run,
        report.seq,
        report.workers,
        if report.workers == 1 { "" } else { "s" },
        fmt_us(report.run_wall_us),
        report.attributed_pct,
    );
    let _ = writeln!(out, "  aggregate attribution (of summed worker wall):");
    for a in &report.aggregate {
        let _ = writeln!(
            out,
            "    {:<13} {:>6} × {:>12}  {:>5.1}%",
            a.phase,
            a.count,
            fmt_ns(a.ns),
            a.pct
        );
    }
    for w in &report.worker_reports {
        let _ = writeln!(
            out,
            "  worker {:<2} wall {} busy {} idle {} end-gap {}",
            w.worker,
            fmt_us(w.wall_us),
            fmt_ns(w.busy_ns),
            fmt_ns(w.idle_ns),
            fmt_us(w.end_gap_us),
        );
    }
    let mw = &report.merge_wait;
    let _ = writeln!(
        out,
        "  merge-lock wait: {} waits, total {}, mean {}",
        mw.count,
        fmt_ns(mw.total_ns),
        fmt_ns(mw.mean_ns as u64),
    );
    let stall_share =
        pct(report.prefetch_stall_ns, report.prefetch_stall_ns + report.decode_ahead_ns);
    let _ = writeln!(
        out,
        "  prefetch: stalled {} vs decode-ahead {} ({:.1}% stalled)",
        fmt_ns(report.prefetch_stall_ns),
        fmt_ns(report.decode_ahead_ns),
        stall_share,
    );
    let _ = writeln!(
        out,
        "  stragglers: {} barrier waste ({:.2}% of worker wall budget)",
        fmt_us(report.straggler_us),
        pct(report.straggler_us, report.run_wall_us * report.workers.max(1) as u64),
    );
    let _ = match report.critical_path_us {
        Some(us) => {
            writeln!(out, "  critical path ≥ {} (run wall minus overlappable work)", fmt_us(us))
        }
        None => writeln!(out, "  critical path: n/a (other workers' busy time ≥ run wall)"),
    };
    let o = &report.overhead;
    let _ = writeln!(
        out,
        "  profiler overhead: {} intervals × {} ns ≈ {} total, {:.3}% of run wall",
        o.recorded,
        o.record_cost_ns,
        fmt_ns(o.total_ns),
        o.pct_of_wall,
    );
    out
}

fn attribution_json(rows: &[PhaseAttribution]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|a| {
            format!(
                "{{\"phase\":{},\"count\":{},\"ns\":{},\"pct\":{}}}",
                json_quote(&a.phase),
                a.count,
                a.ns,
                json_number(a.pct)
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// Render a profiled run's analysis as one JSON object.
pub(crate) fn render_profile_json(r: &ProfileReport) -> String {
    let workers: Vec<String> = r
        .worker_reports
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\":{},\"wall_us\":{},\"busy_ns\":{},\"idle_ns\":{},\
                 \"end_gap_us\":{},\"attribution\":{}}}",
                w.worker,
                w.wall_us,
                w.busy_ns,
                w.idle_ns,
                w.end_gap_us,
                attribution_json(&w.attribution)
            )
        })
        .collect();
    let mw = &r.merge_wait;
    let o = &r.overhead;
    format!(
        "{{\"run_id\":{},\"seq\":{},\"run\":{},\"workers\":{},\"run_wall_us\":{},\
         \"attributed_pct\":{},\"aggregate\":{},\"worker_reports\":[{}],\
         \"merge_wait\":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{}}},\
         \"prefetch\":{{\"stall_ns\":{},\"decode_ahead_ns\":{}}},\
         \"straggler_us\":{},\"critical_path_us\":{},\
         \"overhead\":{{\"recorded\":{},\"record_cost_ns\":{},\"total_ns\":{},\
         \"max_worker_ns\":{},\"pct_of_wall\":{}}}}}",
        json_quote(&r.run_id),
        r.seq,
        json_quote(&r.run),
        r.workers,
        r.run_wall_us,
        json_number(r.attributed_pct),
        attribution_json(&r.aggregate),
        workers.join(","),
        mw.count,
        mw.total_ns,
        json_number(mw.mean_ns),
        r.prefetch_stall_ns,
        r.decode_ahead_ns,
        r.straggler_us,
        r.critical_path_us.map_or_else(|| "null".to_owned(), |us| us.to_string()),
        o.recorded,
        o.record_cost_ns,
        o.total_ns,
        o.max_worker_ns,
        json_number(o.pct_of_wall),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiles the one stream parser finds in `text`.
    fn profiles(text: &str) -> Result<Vec<ProfileRun>, crate::DoctorError> {
        crate::RunArtifacts::parse(None, text).map(|a| a.profiles)
    }

    const STREAM: &str = concat!(
        "{\"type\":\"profile_run\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
         \"run\":\"online\",\"workers\":2,\"t_us\":100,\"dur_us\":10000}\n",
        "{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":0,\"t_us\":120,\"dur_us\":9800,\"recorded\":7,\
         \"phases\":{\"claim\":{\"count\":2,\"ns\":100000},\
         \"decode\":{\"count\":2,\"ns\":2000000},\"simulate\":{\"count\":1,\"ns\":6000000},\
         \"merge_wait\":{\"count\":1,\"ns\":500000},\"merge\":{\"count\":1,\"ns\":200000}}}\n",
        "{\"type\":\"profile_worker\",\"run_id\":\"aaaa000000000001-1\",\"seq\":1,\
         \"run\":\"online\",\"worker\":1,\"t_us\":130,\"dur_us\":9900,\"recorded\":5,\
         \"phases\":{\"prefetch_wait\":{\"count\":1,\"ns\":1000000},\
         \"decode\":{\"count\":1,\"ns\":1000000},\"simulate\":{\"count\":1,\"ns\":7000000},\
         \"merge_wait\":{\"count\":1,\"ns\":300000},\"merge\":{\"count\":1,\"ns\":100000}}}\n",
        // Other record kinds share the stream: skipped, not fatal.
        "{\"type\":\"span\",\"name\":\"decode\",\"t_us\":5,\"dur_us\":2}\n",
    );

    #[test]
    fn parses_runs_and_workers() {
        let runs = profiles(STREAM).expect("valid stream");
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!((run.seq, run.declared_workers, run.dur_us), (1, 2, 10_000));
        assert_eq!(run.workers.len(), 2);
        assert_eq!(run.workers[0].recorded, 7);
        assert_eq!(run.workers[0].phases["decode"], PhaseTotal { count: 2, ns: 2_000_000 });
        assert_eq!(run.workers[1].busy_ns(), 9_400_000);
    }

    #[test]
    fn attribution_covers_the_run_wall() {
        let runs = profiles(STREAM).expect("valid stream");
        let report = analyze_profile(&runs[0], 50);
        // Σ (run end − worker start): (10100−120) + (10100−130) over
        // 2 × 10000 run wall — only the spawn latency is unattributed.
        assert!((report.attributed_pct - 99.75).abs() < 1e-9, "{}", report.attributed_pct);
        assert!(report.attributed_pct >= 95.0);
        // Per-worker shares (explicit phases + idle) sum to worker wall.
        for w in &report.worker_reports {
            let total: f64 = w.attribution.iter().map(|a| a.pct).sum();
            assert!((total - 100.0).abs() < 0.1, "worker {} sums to {total}", w.worker);
            assert_eq!(w.attribution.last().map(|a| a.phase.as_str()), Some("idle"));
        }
        assert_eq!(report.worker_reports[0].idle_ns, 1_000_000);
        assert_eq!(report.worker_reports[0].end_gap_us, 10_100 - 9_920);
    }

    #[test]
    fn contention_stragglers_and_critical_path() {
        let runs = profiles(STREAM).expect("valid stream");
        let report = analyze_profile(&runs[0], 50);
        let mw = &report.merge_wait;
        assert_eq!((mw.count, mw.total_ns), (2, 800_000));
        assert!((mw.mean_ns - 400_000.0).abs() < 1e-9);
        assert_eq!(report.prefetch_stall_ns, 1_000_000);
        assert_eq!(report.decode_ahead_ns, 3_000_000);
        assert_eq!(report.straggler_us, 180 + 70);
        // Overlappable work: 18.2 ms busy − 9.4 ms busiest = 8.8 ms;
        // 10 ms run wall − 8.8 ms = 1.2 ms of unhidden serial residue.
        assert_eq!(report.critical_path_us, Some(1_200));
        let o = &report.overhead;
        assert_eq!((o.recorded, o.total_ns, o.max_worker_ns), (12, 600, 350));
        assert!(o.pct_of_wall < 0.01);
    }

    #[test]
    fn critical_path_is_na_when_other_workers_fill_the_wall() {
        // Four workers each busy for the whole 10 ms wall, as when they
        // outnumber the cores: overlappable work (30 ms) exceeds the
        // wall, so the bound says nothing.
        let mut stream = String::from(
            "{\"type\":\"profile_run\",\"run_id\":\"bbbb000000000001-5\",\"seq\":5,\
             \"run\":\"online\",\"workers\":4,\"t_us\":0,\"dur_us\":10000}\n",
        );
        for worker in 0..4 {
            stream.push_str(&format!(
                "{{\"type\":\"profile_worker\",\"run_id\":\"bbbb000000000001-5\",\"seq\":5,\
                 \"run\":\"online\",\"worker\":{worker},\"t_us\":0,\"dur_us\":10000,\
                 \"recorded\":1,\"phases\":{{\"simulate\":{{\"count\":1,\"ns\":10000000}}}}}}\n"
            ));
        }
        let runs = profiles(&stream).expect("valid stream");
        let report = analyze_profile(&runs[0], 50);
        assert_eq!(report.critical_path_us, None);
        let text = render_profile_text(&report);
        assert!(
            text.contains("critical path: n/a (other workers' busy time ≥ run wall)"),
            "{text}"
        );
        let json = render_profile_json(&report);
        assert!(json.contains("\"critical_path_us\":null"), "{json}");
        JsonValue::parse(&json).expect("valid JSON");
    }

    #[test]
    fn truncated_stream_synthesizes_the_run_window() {
        // Drop the profile_run bracket: the workers' envelope stands in.
        let body: String =
            STREAM.lines().filter(|l| !l.contains("profile_run")).collect::<Vec<_>>().join("\n");
        let runs = profiles(&body).expect("valid stream");
        let run = &runs[0];
        assert_eq!(run.t_us, 120);
        assert_eq!(run.dur_us, (130 + 9_900) - 120);
        assert_eq!(run.declared_workers, 2);
        let report = analyze_profile(run, 50);
        assert!(report.attributed_pct > 90.0);
    }

    #[test]
    fn renders_text_and_json() {
        let runs = profiles(STREAM).expect("valid stream");
        let report = analyze_profile(&runs[0], 50);
        let text = render_profile_text(&report);
        assert!(text.contains("profile aaaa000000000001-1 online #1"), "{text}");
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("merge-lock wait: 2 waits, total 800 µs, mean 400 µs"), "{text}");
        assert!(text.contains("critical path ≥ 1.200 ms"), "{text}");
        assert!(text.contains("profiler overhead: 12 intervals × 50 ns"), "{text}");
        let run0 = JsonValue::parse(&render_profile_json(&report)).expect("valid JSON");
        assert_eq!(run0.get("run_wall_us").and_then(JsonValue::as_u64), Some(10_000));
        assert!(run0.get("attributed_pct").and_then(JsonValue::as_f64).unwrap() >= 95.0);
        assert_eq!(
            run0.get("overhead").and_then(|o| o.get("recorded")).and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(
            run0.get("merge_wait").and_then(|m| m.get("total_ns")).and_then(JsonValue::as_u64),
            Some(800_000)
        );
    }

    #[test]
    fn record_cost_probe_is_sane() {
        let cost = measure_record_cost_ns();
        assert!(cost >= 1, "cost is clamped positive");
        assert!(cost < 1_000_000, "a clock read is not a millisecond: {cost}");
    }
}
