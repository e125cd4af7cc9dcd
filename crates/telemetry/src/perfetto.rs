//! Perfetto / Chrome `trace_event` export: convert a run stream into a
//! JSON document that opens directly in <https://ui.perfetto.dev> or
//! `chrome://tracing`.
//!
//! Mapping:
//!
//! * `span` records become complete events (`"ph":"X"`) with the span's
//!   open offset and duration, one track per recorded thread ordinal;
//! * `progress` records become counter events (`"ph":"C"`) charting the
//!   relative CI half-width and merged point count over time;
//! * `anomaly` records become instant events (`"ph":"i"`) on the
//!   emitting worker's track, carrying the point id and fired tests;
//! * `profile_*` records (the worker-timeline profiler) become a
//!   second process group (`pid` 2): each `profile_worker` record is a
//!   complete event spanning the worker's lifetime, and the
//!   `profile_run` bracket spans the whole run on its own track — so
//!   each worker's lifetime lines up under the span timeline.
//!
//! This module is a pure transformation over artifacts on disk, so it
//! is compiled in both telemetry build modes (like the manifest and
//! JSON layers, it is never hot).

use std::fmt::Write as _;

use crate::json::{quote, JsonError, JsonValue};

/// Convert one JSONL run stream into a Chrome `trace_event`
/// JSON document (the `{"traceEvents": [...]}` object form).
///
/// Lines that are not JSON objects or carry an unknown `type` are
/// skipped, so mixed or partially-written streams still convert; a line
/// that fails to parse at all is an error carrying its line number.
///
/// # Errors
///
/// Returns [`JsonError`] (offset = 1-based line number) when a
/// non-empty line is not valid JSON.
pub fn chrome_trace(jsonl: &str) -> Result<String, JsonError> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line).map_err(|e| JsonError {
            offset: lineno + 1,
            message: format!("line {}: {}", lineno + 1, e.message),
        })?;
        let events = match doc.get("type").and_then(JsonValue::as_str) {
            Some("span") => span_event(&doc).into_iter().collect(),
            Some("progress") => progress_event(&doc).into_iter().collect(),
            Some("anomaly") => anomaly_event(&doc).into_iter().collect(),
            Some("profile_worker") => profile_worker_event(&doc).into_iter().collect(),
            Some("profile_run") => profile_run_event(&doc).into_iter().collect(),
            _ => Vec::new(),
        };
        for event in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&event);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(out)
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn f64_field(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn span_event(doc: &JsonValue) -> Option<String> {
    let name = doc.get("name").and_then(JsonValue::as_str)?;
    Some(format!(
        "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
         \"tid\":{},\"args\":{{\"depth\":{}}}}}",
        quote(name),
        u64_field(doc, "t_us"),
        u64_field(doc, "dur_us"),
        u64_field(doc, "tid"),
        u64_field(doc, "depth"),
    ))
}

fn progress_event(doc: &JsonValue) -> Option<String> {
    let run = doc.get("run").and_then(JsonValue::as_str)?;
    let config = doc.get("config").and_then(JsonValue::as_u64);
    let mut series = format!("{run} rel_half_width");
    if let Some(c) = config {
        let _ = write!(series, " [config {c}]");
    }
    // Counter events chart the convergence trajectory on its own track.
    Some(format!(
        "{{\"name\":{},\"cat\":\"health\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
         \"args\":{{\"rel_half_width\":{},\"n\":{}}}}}",
        quote(&series),
        u64_field(doc, "t_us"),
        crate::json::number(f64_field(doc, "rel_half_width")),
        u64_field(doc, "n"),
    ))
}

fn anomaly_event(doc: &JsonValue) -> Option<String> {
    let run = doc.get("run").and_then(JsonValue::as_str)?;
    let kinds: Vec<&str> = doc
        .get("kinds")
        .and_then(JsonValue::as_arr)
        .map(|a| a.iter().filter_map(JsonValue::as_str).collect())
        .unwrap_or_default();
    Some(format!(
        "{{\"name\":{},\"cat\":\"health\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\
         \"tid\":{},\"args\":{{\"point\":{},\"cpi\":{},\"sigmas\":{}}}}}",
        quote(&format!("{run} anomaly: {}", kinds.join("+"))),
        u64_field(doc, "t_us"),
        u64_field(doc, "worker"),
        u64_field(doc, "point"),
        crate::json::number(f64_field(doc, "cpi")),
        crate::json::number(f64_field(doc, "sigmas")),
    ))
}

/// Profile tracks live in their own process group so worker ordinals
/// never collide with the span trace's thread ordinals on `pid` 1.
const PROFILE_PID: u64 = 2;

/// The `profile_run` bracket's synthetic track id, far above any worker
/// ordinal.
const PROFILE_RUN_TID: u64 = 1_000_000;

/// A worker's lifetime as a complete event, carrying its recorded
/// interval count.
fn profile_worker_event(doc: &JsonValue) -> Option<String> {
    let run = doc.get("run").and_then(JsonValue::as_str)?;
    let worker = u64_field(doc, "worker");
    Some(format!(
        "{{\"name\":{},\"cat\":\"profile\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":{PROFILE_PID},\"tid\":{worker},\"args\":{{\"recorded\":{}}}}}",
        quote(&format!("{run} worker {worker}")),
        u64_field(doc, "t_us"),
        u64_field(doc, "dur_us"),
        u64_field(doc, "recorded"),
    ))
}

/// The run bracket as a complete event on its own track above the
/// workers.
fn profile_run_event(doc: &JsonValue) -> Option<String> {
    let run = doc.get("run").and_then(JsonValue::as_str)?;
    Some(format!(
        "{{\"name\":{},\"cat\":\"profile\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":{PROFILE_PID},\"tid\":{PROFILE_RUN_TID},\"args\":{{\"workers\":{}}}}}",
        quote(&format!("{run} run")),
        u64_field(doc, "t_us"),
        u64_field(doc, "dur_us"),
        u64_field(doc, "workers"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"type\":\"span\",\"name\":\"run.online\",\"tid\":2,\"depth\":1,",
        "\"t_us\":1234,\"dur_us\":56}\n",
        "\n",
        "{\"type\":\"progress\",\"run\":\"online\",\"metric\":\"cpi\",\"t_us\":1300,",
        "\"worker\":0,\"config\":null,\"n\":40,\"mean\":1.3,\"half_width\":0.1,",
        "\"rel_half_width\":0.07,\"target_rel_err\":0.03,\"eligible\":false,",
        "\"rel_half_width_95\":0.05,\"eligible_95\":false}\n",
        "{\"type\":\"anomaly\",\"run\":\"online\",\"t_us\":1400,\"worker\":1,",
        "\"point\":17,\"detail_start\":1,\"measure_start\":2,",
        "\"kinds\":[\"cpi_outlier\"],\"cpi\":2.3,\"mean\":1.3,\"std_dev\":0.2,",
        "\"sigmas\":5.0,\"decode_ns\":100,\"simulate_ns\":200}\n",
        "{\"type\":\"unknown_future_record\"}\n",
    );

    #[test]
    fn converts_all_record_types() {
        let chrome = chrome_trace(TRACE).expect("valid stream");
        let doc = JsonValue::parse(&chrome).expect("output is valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents");
        assert_eq!(events.len(), 3, "unknown record types are skipped");
        assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_u64), Some(1234));
        assert_eq!(events[0].get("dur").and_then(JsonValue::as_u64), Some(56));
        assert_eq!(events[1].get("ph").and_then(JsonValue::as_str), Some("C"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("rel_half_width")).and_then(JsonValue::as_f64),
            Some(0.07)
        );
        assert_eq!(events[2].get("ph").and_then(JsonValue::as_str), Some("i"));
        assert_eq!(
            events[2].get("name").and_then(JsonValue::as_str),
            Some("online anomaly: cpi_outlier")
        );
    }

    const PROFILE_TRACE: &str = concat!(
        "{\"type\":\"profile_worker\",\"run_id\":\"x-1\",\"seq\":1,\"run\":\"online\",",
        "\"worker\":0,\"t_us\":10,\"dur_us\":5000,\"recorded\":3,",
        "\"phases\":{\"decode\":{\"count\":1,\"ns\":800000},",
        "\"simulate\":{\"count\":2,\"ns\":3000000}}}\n",
        "{\"type\":\"profile_run\",\"run_id\":\"x-1\",\"seq\":1,\"run\":\"online\",",
        "\"workers\":2,\"t_us\":0,\"dur_us\":6000}\n",
    );

    #[test]
    fn profile_records_become_per_worker_tracks() {
        let chrome = chrome_trace(PROFILE_TRACE).expect("valid stream");
        let doc = JsonValue::parse(&chrome).expect("output is valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents");
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert_eq!(e.get("pid").and_then(JsonValue::as_u64), Some(PROFILE_PID));
        }
        assert_eq!(events[0].get("name").and_then(JsonValue::as_str), Some("online worker 0"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("recorded")).and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(events[0].get("tid").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(events[0].get("dur").and_then(JsonValue::as_u64), Some(5000));
        assert_eq!(events[1].get("name").and_then(JsonValue::as_str), Some("online run"));
        assert_eq!(events[1].get("tid").and_then(JsonValue::as_u64), Some(PROFILE_RUN_TID));
    }

    /// Track identity for monotonicity purposes: counter tracks are
    /// per-name, duration/instant tracks are per `(pid, tid)`.
    fn track_key(event: &JsonValue) -> String {
        let pid = event.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        match event.get("ph").and_then(JsonValue::as_str) {
            Some("C") => {
                format!("C:{pid}:{}", event.get("name").and_then(JsonValue::as_str).unwrap_or(""))
            }
            _ => format!("{pid}:{}", event.get("tid").and_then(JsonValue::as_u64).unwrap_or(0)),
        }
    }

    #[test]
    fn ts_values_are_monotonic_non_negative_per_track() {
        let combined = format!("{TRACE}{PROFILE_TRACE}");
        let chrome = chrome_trace(&combined).expect("valid stream");
        let doc = JsonValue::parse(&chrome).expect("output is valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents");
        assert!(!events.is_empty());
        let mut last_ts: std::collections::BTreeMap<String, i64> = Default::default();
        for e in events {
            let ts = e.get("ts").and_then(JsonValue::as_f64).expect("every event carries ts");
            assert!(ts >= 0.0, "negative ts {ts}");
            let key = track_key(e);
            let prev = last_ts.entry(key.clone()).or_insert(i64::MIN);
            assert!(ts as i64 >= *prev, "track {key}: ts {ts} went backwards from {prev}");
            *prev = ts as i64;
        }
    }

    #[test]
    fn empty_stream_is_valid() {
        let chrome = chrome_trace("").expect("empty stream");
        let doc = JsonValue::parse(&chrome).expect("valid JSON");
        assert!(doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap().is_empty());
    }

    #[test]
    fn bad_line_reports_line_number() {
        let e = chrome_trace(
            "{\"type\":\"span\",\"name\":\"a\",\"t_us\":1,\"dur_us\":1,\
                              \"tid\":0,\"depth\":0}\nnot json\n",
        )
        .unwrap_err();
        assert_eq!(e.offset, 2);
        assert!(e.message.contains("line 2"), "{}", e.message);
    }
}
