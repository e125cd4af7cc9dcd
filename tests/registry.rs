//! On-disk behavior of the registry: append-only index semantics,
//! multi-handle interleaving, line-numbered load errors, torn-tail
//! recovery, run directories that no longer hold their indexed run,
//! and the committed golden read back through `doctor trend`.

use std::path::{Path, PathBuf};

use spectral::registry::{IndexEntry, Registry, RegistryError};
use spectral::telemetry::RunManifest;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spectral_registry_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write a finished `binary` run into the registry's `runs/<id>` and
/// return its (not yet appended) index line.
fn finished_run(registry: &Registry, binary: &str, id: &str) -> IndexEntry {
    let run = registry.new_run(id);
    std::fs::create_dir_all(run.root()).unwrap();
    std::fs::write(run.stream(), "").unwrap();
    let mut m = RunManifest::new(binary, "gcc-like", "8-wide", 4);
    m.run_id = Some(format!("{id}-1"));
    m.points_processed = Some(500);
    m.phase("run", 0.25);
    m.write(run.manifest(), None).unwrap();
    registry.entry(format!("{id}-1"), &run).unwrap()
}

fn parse_error_line(registry: &Registry) -> (usize, String) {
    match registry.load() {
        Err(RegistryError::Parse { line, message }) => (line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn append_then_load_preserves_order_and_content() {
    let dir = temp_dir("order");
    let reg = Registry::open(&dir).unwrap();
    assert!(reg.load().unwrap().is_empty(), "fresh registry is empty, not an error");

    let a = finished_run(&reg, "online", "aaaa000000000001");
    let b = finished_run(&reg, "matched", "bbbb000000000001");
    assert_eq!(a.dir, Path::new("runs/aaaa000000000001"), "runs inside are named relatively");
    reg.append(&a).unwrap();
    reg.append(&b).unwrap();
    assert_eq!(reg.load().unwrap(), vec![a, b]);

    // A run kept elsewhere is named by its absolute path, and the same
    // join resolves it.
    let elsewhere = temp_dir("order_elsewhere");
    let other = Registry::open(&elsewhere).unwrap();
    let c = finished_run(&other, "sweep", "cccc000000000001");
    let c = reg.entry(c.run_id.clone(), &other.run_dir(&c)).unwrap();
    assert!(c.dir.is_absolute(), "{:?}", c.dir);
    reg.append(&c).unwrap();
    let loaded = reg.load().unwrap();
    assert_eq!(loaded.len(), 3);
    assert!(reg.run_dir(&loaded[2]).manifest().is_file());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&elsewhere);
}

#[test]
fn two_handles_appending_interleave_whole_lines() {
    // Simulates two processes sharing one registry directory: every
    // append is a single O_APPEND line write, so all lines survive.
    let dir = temp_dir("interleave");
    let h1 = Registry::open(&dir).unwrap();
    let h2 = Registry::open(&dir).unwrap();
    for i in 0..10 {
        h1.append(&finished_run(&h1, "online", &format!("aaaa00000000000{i}"))).unwrap();
        h2.append(&finished_run(&h2, "sweep", &format!("bbbb00000000000{i}"))).unwrap();
    }
    let loaded = Registry::open(&dir).unwrap().load().unwrap();
    assert_eq!(loaded.len(), 20);
    assert_eq!(loaded.iter().filter(|e| e.run_id.starts_with("aaaa")).count(), 10);
    assert_eq!(loaded.iter().filter(|e| e.run_id.starts_with("bbbb")).count(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_index_line_reports_its_number() {
    let dir = temp_dir("malformed");
    let reg = Registry::open(&dir).unwrap();
    let a = finished_run(&reg, "online", "aaaa000000000001");
    std::fs::write(reg.index_path(), format!("{}\n\nnot json at all\n", a.to_json_line())).unwrap();
    assert_eq!(parse_error_line(&reg).0, 3, "blank lines still count");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The error `doctor` reports loading the registry at `dir`.
fn doctor_load_error(dir: &Path) -> String {
    match spectral_doctor::load_registry(dir) {
        Err(e) => e.to_string(),
        Ok(runs) => panic!("expected a load error, loaded {} runs", runs.len()),
    }
}

#[test]
fn index_line_without_a_manifest_is_a_load_error_naming_the_line() {
    let dir = temp_dir("no_manifest");
    let reg = Registry::open(&dir).unwrap();
    let a = finished_run(&reg, "online", "aaaa000000000001");
    let b = finished_run(&reg, "online", "bbbb000000000001");
    reg.append(&a).unwrap();
    reg.append(&b).unwrap();
    std::fs::remove_file(reg.run_dir(&b).manifest()).unwrap();
    let message = doctor_load_error(&dir);
    assert!(message.contains(&format!("index line of run {}", b.run_id)), "{message}");
    assert!(message.contains("runs/bbbb000000000001"), "{message}");
    assert!(message.contains("no manifest"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_line_whose_directory_holds_another_run_is_a_load_error() {
    // A later run that reused the directory replaced the manifest: the
    // line must not report that run's data under its own label.
    let dir = temp_dir("reused");
    let reg = Registry::open(&dir).unwrap();
    let a = finished_run(&reg, "online", "aaaa000000000001");
    reg.append(&a).unwrap();
    let mut m = RunManifest::new("online", "gcc-like", "8-wide", 4);
    m.run_id = Some("ffff000000000001-1".into());
    m.write(reg.run_dir(&a).manifest(), None).unwrap();
    let message = doctor_load_error(&dir);
    assert!(message.contains(&format!("index line of run {}", a.run_id)), "{message}");
    assert!(message.contains("the manifest of run ffff000000000001-1"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_dir_for_gives_a_fresh_directory_and_refuses_an_indexed_one() {
    let dir = temp_dir("run_dir_for");
    let reg = Registry::open(&dir).unwrap();
    let fresh = reg.run_dir_for(None).unwrap();
    assert_eq!(fresh.root().parent(), Some(dir.join("runs").as_path()));

    // A run kept in its own `--out` directory, indexed by absolute path.
    let out = temp_dir("run_dir_for_out");
    let elsewhere = Registry::open(&out).unwrap();
    let kept = finished_run(&elsewhere, "online", "aaaa000000000001");
    let kept_dir = elsewhere.run_dir(&kept);
    assert_eq!(reg.run_dir_for(Some(kept_dir.root())).unwrap().root(), kept_dir.root());
    reg.append(&reg.entry(kept.run_id.clone(), &kept_dir).unwrap()).unwrap();

    // Once indexed, neither that directory nor a run under runs/ can be
    // handed to a new run, however the path is spelled.
    let spelled = out.join("runs").join("..").join("runs").join("aaaa000000000001");
    for taken in [kept_dir.root().to_path_buf(), spelled] {
        match reg.run_dir_for(Some(&taken)) {
            Err(e @ RegistryError::Indexed { .. }) => {
                assert!(e.to_string().contains(&kept.run_id), "{e}")
            }
            other => panic!("expected an Indexed refusal for {taken:?}, got {other:?}"),
        }
    }
    let inside = finished_run(&reg, "online", "bbbb000000000001");
    reg.append(&inside).unwrap();
    let taken = reg.run_dir_for(Some(reg.run_dir(&inside).root()));
    assert!(matches!(taken, Err(RegistryError::Indexed { .. })), "{taken:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn run_directory_without_an_index_line_is_not_listed() {
    // A run killed before its index append leaves a complete-looking
    // directory under runs/ and no line: it is not a registry run.
    let dir = temp_dir("unindexed");
    let reg = Registry::open(&dir).unwrap();
    let a = finished_run(&reg, "online", "aaaa000000000001");
    reg.append(&a).unwrap();
    let killed = finished_run(&reg, "online", "bbbb000000000001");
    assert!(reg.run_dir(&killed).manifest().is_file());
    assert_eq!(reg.load().unwrap(), vec![a]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_1_run_record_line_names_the_format_change() {
    let dir = temp_dir("v1_line");
    let reg = Registry::open(&dir).unwrap();
    std::fs::write(
        reg.index_path(),
        "{\"version\":1,\"run_id\":\"73f22f4b5aeb7311-7\",\"code_version\":\"golden\",\
         \"kind\":\"run\",\"binary\":\"online\",\"benchmark\":\"gcc-like\",\"machine\":\"8\",\
         \"threads\":1,\"unix_ms\":1786103875172,\"points_processed\":538,\"run_rate\":172.0,\
         \"convergence\":[]}\n",
    )
    .unwrap();
    let (line, message) = parse_error_line(&reg);
    assert_eq!(line, 1);
    assert!(message.contains("version 1"), "{message}");
    assert!(message.contains("format changed"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_trailing_line_is_dropped_not_fatal() {
    // A process killed mid-append leaves a partial final line with no
    // trailing newline. That uncommitted tail must be dropped, while
    // every durably committed line still loads.
    let dir = temp_dir("torn");
    let reg = Registry::open(&dir).unwrap();
    let a = finished_run(&reg, "online", "aaaa000000000001");
    let b = finished_run(&reg, "matched", "bbbb000000000001");
    reg.append(&a).unwrap();
    reg.append(&b).unwrap();

    let full = std::fs::read_to_string(reg.index_path()).unwrap();
    let half = finished_run(&reg, "sweep", "cccc000000000001").to_json_line();
    let torn = &half[..half.len() / 2]; // mid-line crash: no trailing '\n'
    std::fs::write(reg.index_path(), format!("{full}{torn}")).unwrap();
    assert_eq!(reg.load().expect("torn tail recovers"), vec![a.clone(), b.clone()]);

    // A *newline-terminated* garbage line is corruption, not a torn
    // append: still a hard error naming the line.
    std::fs::write(reg.index_path(), format!("{full}{torn}\n")).unwrap();
    assert_eq!(parse_error_line(&reg).0, 3);

    // Appending after a crash repairs the torn tail first: the
    // fragment is truncated away, so the new line cannot merge into
    // it and the index is fully well-formed again.
    std::fs::write(reg.index_path(), format!("{full}{torn}")).unwrap();
    let c = finished_run(&reg, "sweep", "cccc000000000002");
    reg.append(&c).unwrap();
    assert_eq!(reg.load().expect("repaired index parses"), vec![a, b, c]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_trend_keeps_the_recorded_run_rate() {
    // The committed golden's run rate, as its version-1 record carried
    // it: 538 points over the three `run*` phases of its manifest.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/registry-golden");
    let mut runs = spectral_doctor::load_registry(&golden).expect("the golden loads");
    runs[0].load_stream().expect("the golden stream reads");
    let series = spectral_doctor::trend(&runs);
    assert_eq!(series.len(), 1);
    let point = &series[0].points[0];
    assert_eq!(point.run_rate.map(f64::to_bits), Some(172.0267904355298f64.to_bits()));
    assert_eq!(point.code_version, "golden");
    assert_eq!(point.unix_ms, 1_786_103_875_172);
    // Its stream is empty, so points-to-convergence is the processed
    // count.
    assert_eq!(point.points_to_convergence, Some(538));
}
