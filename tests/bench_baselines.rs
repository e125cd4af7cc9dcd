//! The committed bench baselines that CI's perf-smoke gates compare
//! against: every key the gate scripts read must be a finite positive
//! number, so a hand edit or a partial regeneration cannot leave a gate
//! comparing against a missing or zero baseline.

use spectral_telemetry::JsonValue;

fn baseline(file: &str) -> JsonValue {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Assert that each dotted `key` (`outer.inner` for nested objects) of
/// `file` is a finite positive number.
fn assert_positive(file: &str, keys: &[&str]) {
    let doc = baseline(file);
    for key in keys {
        let value = key.split('.').try_fold(&doc, |v, k| v.get(k)).and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(|v| v.is_finite() && v > 0.0),
            "{file}: {key} is {value:?}, want a finite positive number"
        );
    }
}

#[test]
fn kernel_gate_baseline_is_positive() {
    assert_positive("BENCH_kernel.json", &["run_points_per_s"]);
}

#[test]
fn library_gate_baselines_are_positive() {
    assert_positive(
        "BENCH_library.json",
        &[
            "v2_open_ms",
            "v2_open_get_per_s",
            "read_speedup_v2_vs_v1",
            "bytes_per_point.v1",
            "bytes_per_point.v2_dict",
            "decode_cache.reuse_hit_rate",
        ],
    );
}
