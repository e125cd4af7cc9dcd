//! Run manifests: a structured, comparable record of one experiment run.
//!
//! A [`RunManifest`] captures what was run (binary, benchmark, machine,
//! thread count, seed), against which library (id hash, point count),
//! how long each phase took, how many points were processed, and the
//! final estimate ± half-width. [`RunManifest::write`] serializes it to
//! JSON with the full metrics snapshot embedded, giving every run an
//! auditable artifact (`manifest.json` in an experiment binary's
//! `--out DIR`) that diffs cleanly against `BENCH_*.json` baselines.

use std::path::Path;

use crate::json::{self, JsonValue};
use crate::metrics::MetricsSnapshot;

/// Schema version stamped into every manifest.
pub const MANIFEST_VERSION: u32 = 1;

/// One named phase of a run and its wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, e.g. `create_library`, `run`, `report`.
    pub name: String,
    /// Wall-clock seconds spent in the phase.
    pub secs: f64,
}

/// Final estimate of a run, as mean ± half-width.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateSummary {
    /// Point estimate (e.g. CPI).
    pub mean: f64,
    /// Confidence-interval half-width at the run's confidence level.
    pub half_width: f64,
    /// `half_width / mean`.
    pub relative_half_width: f64,
    /// Whether the run reached its target precision before exhausting
    /// the library.
    pub reached_target: bool,
}

/// A structured record of one run, serialized to JSON via [`write`].
///
/// [`write`]: RunManifest::write
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version: [`MANIFEST_VERSION`] for manifests
    /// written by this build. Readers are tolerant — manifests that
    /// predate the field parse with version 1.
    pub schema_version: u32,
    /// Collision-resistant run identifier (see
    /// [`derive_run_id`](crate::derive_run_id)); `None` until stamped by
    /// the harness. Pre-PR-7 manifests parse with `None`.
    pub run_id: Option<String>,
    /// Name of the experiment binary (e.g. `online`).
    pub binary: String,
    /// Benchmark / workload identifier.
    pub benchmark: String,
    /// Machine configuration label.
    pub machine: String,
    /// Worker thread count (0 = sequential path).
    pub threads: usize,
    /// RNG seed for the run, if one applies.
    pub seed: Option<u64>,
    /// Content hash of the live-point library (CRC32 of records), if known.
    pub library_id: Option<String>,
    /// Container format version of the library (1 = monolithic stream,
    /// 2 = paged), if known.
    pub library_format: Option<u64>,
    /// Number of live-points in the library, if known.
    pub library_points: Option<u64>,
    /// Live-points actually processed before termination.
    pub points_processed: Option<u64>,
    /// Named phases with wall-clock seconds, in execution order.
    pub phases: Vec<Phase>,
    /// Final estimate ± half-width, when the run produces one.
    pub estimate: Option<EstimateSummary>,
    /// Free-form key/value annotations.
    pub notes: Vec<(String, String)>,
}

impl RunManifest {
    /// Start a manifest for `binary` running `benchmark` on `machine`
    /// with `threads` workers.
    pub fn new(
        binary: impl Into<String>,
        benchmark: impl Into<String>,
        machine: impl Into<String>,
        threads: usize,
    ) -> Self {
        RunManifest {
            schema_version: MANIFEST_VERSION,
            run_id: None,
            binary: binary.into(),
            benchmark: benchmark.into(),
            machine: machine.into(),
            threads,
            seed: None,
            library_id: None,
            library_format: None,
            library_points: None,
            points_processed: None,
            phases: Vec::new(),
            estimate: None,
            notes: Vec::new(),
        }
    }

    /// Record a completed phase.
    pub fn phase(&mut self, name: impl Into<String>, secs: f64) -> &mut Self {
        self.phases.push(Phase { name: name.into(), secs });
        self
    }

    /// Attach a free-form annotation.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.notes.push((key.into(), value.into()));
        self
    }

    /// Record the final estimate.
    pub fn set_estimate(&mut self, mean: f64, half_width: f64, reached_target: bool) -> &mut Self {
        let relative_half_width = if mean != 0.0 { half_width / mean } else { 0.0 };
        self.estimate =
            Some(EstimateSummary { mean, half_width, relative_half_width, reached_target });
        self
    }

    /// Serialize to JSON without a metrics section.
    pub fn to_json(&self) -> String {
        self.render(None)
    }

    /// Serialize to JSON with `metrics` embedded under `"metrics"`.
    pub fn to_json_with_metrics(&self, metrics: &MetricsSnapshot) -> String {
        self.render(Some(metrics))
    }

    fn render(&self, metrics: Option<&MetricsSnapshot>) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {MANIFEST_VERSION},\n"));
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        match &self.run_id {
            Some(id) => out.push_str(&format!("  \"run_id\": {},\n", json::quote(id))),
            None => out.push_str("  \"run_id\": null,\n"),
        }
        out.push_str(&format!("  \"binary\": {},\n", json::quote(&self.binary)));
        out.push_str(&format!("  \"benchmark\": {},\n", json::quote(&self.benchmark)));
        out.push_str(&format!("  \"machine\": {},\n", json::quote(&self.machine)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"telemetry_compiled_in\": {},\n", crate::compiled_in()));
        match self.seed {
            Some(s) => out.push_str(&format!("  \"seed\": {s},\n")),
            None => out.push_str("  \"seed\": null,\n"),
        }
        match &self.library_id {
            Some(id) => out.push_str(&format!("  \"library_id\": {},\n", json::quote(id))),
            None => out.push_str("  \"library_id\": null,\n"),
        }
        match self.library_format {
            Some(v) => out.push_str(&format!("  \"library_format\": {v},\n")),
            None => out.push_str("  \"library_format\": null,\n"),
        }
        match self.library_points {
            Some(n) => out.push_str(&format!("  \"library_points\": {n},\n")),
            None => out.push_str("  \"library_points\": null,\n"),
        }
        match self.points_processed {
            Some(n) => out.push_str(&format!("  \"points_processed\": {n},\n")),
            None => out.push_str("  \"points_processed\": null,\n"),
        }
        out.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"secs\": {}}}",
                json::quote(&p.name),
                json::number(p.secs)
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        match &self.estimate {
            Some(e) => out.push_str(&format!(
                "  \"estimate\": {{\"mean\": {}, \"half_width\": {}, \
                 \"relative_half_width\": {}, \"reached_target\": {}}},\n",
                json::number(e.mean),
                json::number(e.half_width),
                json::number(e.relative_half_width),
                e.reached_target
            )),
            None => out.push_str("  \"estimate\": null,\n"),
        }
        out.push_str("  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json::quote(k), json::quote(v)));
        }
        out.push_str("},\n");
        match metrics {
            Some(m) => {
                out.push_str("  \"metrics\": ");
                out.push_str(&m.to_json());
                out.push('\n');
            }
            None => out.push_str("  \"metrics\": null\n"),
        }
        out.push('}');
        out
    }

    /// Parse a manifest back from JSON (the `metrics` section, if any,
    /// is not reconstructed — use [`JsonValue::parse`] for tooling that
    /// needs it).
    pub fn from_json(text: &str) -> Result<RunManifest, crate::json::JsonError> {
        let doc = JsonValue::parse(text)?;
        let err = |message: &str| crate::json::JsonError { offset: 0, message: message.into() };
        let str_field = |key: &str| -> Result<String, crate::json::JsonError> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| err(&format!("missing string field '{key}'")))
        };
        let mut m = RunManifest::new(
            str_field("binary")?,
            str_field("benchmark")?,
            str_field("machine")?,
            doc.get("threads")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err("missing 'threads'"))? as usize,
        );
        // Tolerant reader: manifests that predate `schema_version` fall
        // back to the legacy `version` stamp, then to 1.
        m.schema_version = doc
            .get("schema_version")
            .or_else(|| doc.get("version"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(1) as u32;
        m.run_id = doc.get("run_id").and_then(JsonValue::as_str).map(str::to_owned);
        m.seed = doc.get("seed").and_then(JsonValue::as_u64);
        m.library_id = doc.get("library_id").and_then(JsonValue::as_str).map(str::to_owned);
        m.library_format = doc.get("library_format").and_then(JsonValue::as_u64);
        m.library_points = doc.get("library_points").and_then(JsonValue::as_u64);
        m.points_processed = doc.get("points_processed").and_then(JsonValue::as_u64);
        if let Some(phases) = doc.get("phases").and_then(JsonValue::as_arr) {
            for p in phases {
                let name = p
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("phase missing 'name'"))?;
                let secs = p
                    .get("secs")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| err("phase missing 'secs'"))?;
                m.phase(name, secs);
            }
        }
        if let Some(e) = doc.get("estimate") {
            if let (Some(mean), Some(half_width)) = (
                e.get("mean").and_then(JsonValue::as_f64),
                e.get("half_width").and_then(JsonValue::as_f64),
            ) {
                let reached = e.get("reached_target").and_then(JsonValue::as_bool).unwrap_or(false);
                m.set_estimate(mean, half_width, reached);
            }
        }
        if let Some(notes) = doc.get("notes").and_then(JsonValue::as_obj) {
            for (k, v) in notes {
                if let Some(s) = v.as_str() {
                    m.note(k.clone(), s);
                }
            }
        }
        Ok(m)
    }

    /// Write the manifest (with `metrics` embedded when `Some`) to
    /// `path` atomically: temp file + fsync + rename (fault site
    /// `telemetry.manifest.write`), so a crash mid-write leaves the
    /// previous manifest or the new one, never a torn JSON document.
    pub fn write(
        &self,
        path: impl AsRef<Path>,
        metrics: Option<&MetricsSnapshot>,
    ) -> std::io::Result<()> {
        let mut bytes = self.render(metrics).into_bytes();
        bytes.push(b'\n');
        spectral_faultd::retry("telemetry.manifest.write", || {
            spectral_faultd::write_atomic("telemetry.manifest.write", path.as_ref(), &bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("online", "gcc", "mach0", 8);
        m.run_id = Some("00decafc0ffee123-1".into());
        m.seed = Some(42);
        m.library_id = Some("crc32:deadbeef".into());
        m.library_format = Some(2);
        m.library_points = Some(1000);
        m.points_processed = Some(640);
        m.phase("create_library", 1.25).phase("run", 0.5);
        m.set_estimate(1.37, 0.04, true);
        m.note("quick", "true");
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let text = m.to_json();
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn round_trip_with_metrics_is_valid_json() {
        let m = sample();
        let snap = crate::snapshot();
        let text = m.to_json_with_metrics(&snap);
        let doc = JsonValue::parse(&text).unwrap();
        assert!(doc.get("metrics").is_some());
        assert_eq!(doc.get("binary").unwrap().as_str(), Some("online"));
        // Manifest fields survive even with metrics embedded.
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_without_schema_version_parses_tolerantly() {
        // Old manifests carry neither `schema_version` nor (earliest
        // ones) a usable `version`: both still parse, defaulting to 1.
        let m = sample();
        let text = m
            .to_json()
            .replace("  \"schema_version\": 1,\n", "")
            .replace("  \"version\": 1,\n", "");
        let back = RunManifest::from_json(&text).expect("tolerant reader");
        assert_eq!(back.schema_version, 1);
        assert_eq!(back.benchmark, m.benchmark);
        // With only the legacy `version` stamp, that value is adopted.
        let text = m.to_json().replace("  \"schema_version\": 1,\n", "");
        assert_eq!(RunManifest::from_json(&text).unwrap().schema_version, MANIFEST_VERSION);
    }

    #[test]
    fn manifest_without_run_id_parses_as_none() {
        // Pre-registry manifests have no run_id key at all.
        let mut m = sample();
        m.run_id = None;
        let text = m.to_json().replace("  \"run_id\": null,\n", "");
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back.run_id, None);
        assert_eq!(back.benchmark, m.benchmark);
    }

    #[test]
    fn non_finite_estimate_fields_round_trip_as_zero() {
        // A NaN/Inf half-width must not corrupt the JSON artifact: the
        // writer pins non-finite numbers to 0 and the parser reads them
        // back as plain zeros.
        let mut m = RunManifest::new("x", "y", "z", 1);
        m.set_estimate(f64::NAN, f64::INFINITY, false);
        m.phase("run", f64::NEG_INFINITY);
        let text = m.to_json();
        let doc = JsonValue::parse(&text).expect("writer never emits invalid JSON");
        let e = doc.get("estimate").unwrap();
        assert_eq!(e.get("mean").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(e.get("half_width").and_then(JsonValue::as_f64), Some(0.0));
        let back = RunManifest::from_json(&text).unwrap();
        let est = back.estimate.unwrap();
        assert_eq!((est.mean, est.half_width), (0.0, 0.0));
        assert_eq!(back.phases[0].secs, 0.0);
    }

    #[test]
    fn relative_half_width_guards_zero_mean() {
        let mut m = RunManifest::new("x", "y", "z", 1);
        m.set_estimate(0.0, 0.1, false);
        assert_eq!(m.estimate.unwrap().relative_half_width, 0.0);
    }
}
