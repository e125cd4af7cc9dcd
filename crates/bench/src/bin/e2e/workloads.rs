//! The four workloads: set-up, timed reps, the traced passes, and the
//! checks that the outputs are correct.
//!
//! Every workload is a closed loop with one client: the next rep starts
//! when the previous one returns. The program binary is fixed per
//! workload; the seed sets the sample design's random phase and the
//! library shuffle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spectral_codec::lzss;
use spectral_core::{
    benchmark_length, clear_decode_cache, simulate_live_point, CreationConfig, DecodeScratch,
    LivePoint, LivePointLibrary, MatchedRunner, OnlineRunner, RunPolicy, SweepRunner,
    V2WriteOptions,
};
use spectral_isa::{Emulator, Program};
use spectral_stats::{
    MatchedPair, OnlineEstimator, SampleDesign, SystematicDesign, WindowSpec, MIN_SAMPLE_SIZE,
};
use spectral_uarch::{DetailedSim, MachineConfig, WindowStats};
use spectral_workloads::by_name;

use crate::trace::{self, Tracer};

/// Set-ups per run when `setup_s` is reported; the median is reported.
const SETUPS: usize = 3;

/// Reps run even when `--seconds` has already elapsed.
const MIN_REPS: usize = 3;

/// Traced passes when per-layer metrics are reported; each layer
/// metric is the median over the passes that traced the layer.
const PASSES: usize = 5;

/// Span names that group a traced pass rather than time a layer.
const STRUCTURAL: [&str; 7] = ["rep", "point", "check", "setup", "verify", "encode", "fill"];

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OnlineGzip,
    SweepGcc2t,
    MatchedMcfHot,
    CreateGcc,
}

/// What a run measures and reports (`--trace 0`, `--trace 1`, or
/// both when the flag is absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    EndToEnd,
    Layers,
    Full,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Small libraries and exactly [`MIN_REPS`] reps: a smoke run.
    pub quick: bool,
    pub mode: Mode,
    /// Scratch directory for library files; removed after the run.
    pub work_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<trace::Span>,
    /// A two-thread workload on a host with fewer than two cores.
    pub degraded: bool,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, ok, detail: detail.into() });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// A set-up workload: program, creation parameters, and the library
/// file the reps read (or write, for `create-gcc`).
struct Fixture {
    program: Program,
    cfg: CreationConfig,
    path: PathBuf,
    library: Option<LivePointLibrary>,
    /// The untimed warm run's result, where set-up makes one.
    reference: Option<Vec<u64>>,
}

impl Fixture {
    fn library(&self) -> &LivePointLibrary {
        self.library.as_ref().expect("read workloads open their library in set-up")
    }
}

/// One rep's output: its result as exact bits (compared across reps
/// and with the traced pass), and the simulations or creations it did.
struct RepOut {
    bits: Vec<u64>,
    points: u64,
}

/// Running sums over a traced pass's simulations.
#[derive(Debug, Default)]
struct SimTotals {
    sims: u64,
    /// Warm-up plus measured window, summed over every simulation.
    stats: WindowStats,
    mismatches: u64,
}

fn add_stats(acc: &mut WindowStats, s: &WindowStats) {
    acc.committed += s.committed;
    acc.cycles += s.cycles;
    acc.wrong_path_fetched += s.wrong_path_fetched;
    acc.mispredicts += s.mispredicts;
    acc.loads += s.loads;
    acc.stores += s.stores;
    acc.l1d_misses += s.l1d_misses;
    acc.l2_misses += s.l2_misses;
    acc.l1i_misses += s.l1i_misses;
    acc.dtlb_misses += s.dtlb_misses;
}

fn exhaustive() -> RunPolicy {
    RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() }
}

fn estimate_bits(count: u64, mean: f64, half_width: f64) -> [u64; 3] {
    [count, mean.to_bits(), half_width.to_bits()]
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::OnlineGzip, Workload::SweepGcc2t, Workload::MatchedMcfHot, Workload::CreateGcc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineGzip => "online-gzip",
            Workload::SweepGcc2t => "sweep-gcc-2t",
            Workload::MatchedMcfHot => "matched-mcf-hot",
            Workload::CreateGcc => "create-gcc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::SweepGcc2t | Workload::CreateGcc => 2,
            Workload::OnlineGzip | Workload::MatchedMcfHot => 1,
        }
    }

    fn points(self, quick: bool) -> u64 {
        match (self, quick) {
            (Workload::OnlineGzip, false) => 2400,
            (Workload::OnlineGzip, true) => 300,
            (Workload::MatchedMcfHot, false) => 200,
            (Workload::MatchedMcfHot, true) => 50,
            (Workload::SweepGcc2t | Workload::CreateGcc, false) => 400,
            (Workload::SweepGcc2t | Workload::CreateGcc, true) => 100,
        }
    }

    fn program(self, quick: bool) -> Program {
        let bench = |name| by_name(name).expect("suite benchmark");
        match self {
            // ×6 makes the 2400 windows fit the 8-way design; the quick
            // run's 300 fit the unscaled benchmark.
            Workload::OnlineGzip => bench("gzip-like").scaled(if quick { 1 } else { 6 }),
            Workload::SweepGcc2t | Workload::CreateGcc => bench("gcc-like"),
            Workload::MatchedMcfHot => bench("mcf-like"),
        }
        .build()
    }

    fn creation(self, opts: &Options) -> CreationConfig {
        let base = match self {
            Workload::OnlineGzip | Workload::MatchedMcfHot => {
                CreationConfig::for_machine(&MachineConfig::eight_way())
            }
            // The design-space library: 16-way maximum geometry and
            // both Table 1 predictors.
            Workload::SweepGcc2t | Workload::CreateGcc => CreationConfig::default(),
        };
        base.with_sample_size(self.points(opts.quick)).with_seed(opts.seed)
    }

    /// The simulated machines; `create-gcc` simulates its written
    /// library on the first one to check it.
    fn machines(self) -> Vec<MachineConfig> {
        let eight = MachineConfig::eight_way();
        match self {
            Workload::OnlineGzip | Workload::CreateGcc => vec![eight],
            Workload::SweepGcc2t => vec![
                eight.clone(),
                eight.clone().with_mem_latency(200),
                eight.with_queues(64, 32),
                MachineConfig::sixteen_way(),
            ],
            Workload::MatchedMcfHot => vec![eight.clone(), eight.with_mem_latency(200)],
        }
    }

    /// Build the program and create the library on disk with two
    /// threads; read workloads then open it as a fresh run would.
    fn setup(self, opts: &Options, dir: &Path) -> Res<Fixture> {
        clear_decode_cache();
        let mut fx = Fixture {
            program: self.program(opts.quick),
            cfg: self.creation(opts),
            path: dir.join(format!("{}.slp", self.name())),
            library: None,
            reference: None,
        };
        let created = create_to_path(&fx)?;
        match self {
            Workload::CreateGcc => fx.reference = Some(create_bits(&created)),
            _ => {
                drop(created);
                fx.library = Some(LivePointLibrary::open(&fx.path).map_err(err)?);
                if self == Workload::MatchedMcfHot {
                    // The untimed warm run that fills the decode cache.
                    fx.reference = Some(self.rep(&fx)?.bits);
                }
            }
        }
        Ok(fx)
    }

    /// One timed rep.
    fn rep(self, fx: &Fixture) -> Res<RepOut> {
        match self {
            Workload::OnlineGzip => {
                clear_decode_cache();
                let est = OnlineRunner::new(fx.library(), MachineConfig::eight_way())
                    .run(&fx.program, &RunPolicy::default())
                    .map_err(err)?;
                let n = est.processed() as u64;
                let mut bits = estimate_bits(n, est.mean(), est.half_width()).to_vec();
                bits.push(u64::from(est.reached_target()));
                Ok(RepOut { bits, points: n })
            }
            Workload::SweepGcc2t => {
                let machines = self.machines();
                let configs = machines.len() as u64;
                let out = SweepRunner::new(fx.library(), machines)
                    .run_parallel(&fx.program, &exhaustive(), 2)
                    .map_err(err)?;
                let bits = out
                    .estimates()
                    .iter()
                    .flat_map(|e| estimate_bits(e.processed() as u64, e.mean(), e.half_width()))
                    .collect();
                Ok(RepOut { bits, points: out.processed() as u64 * configs })
            }
            Workload::MatchedMcfHot => {
                let [base, exp]: [MachineConfig; 2] =
                    self.machines().try_into().expect("two machines");
                let out = MatchedRunner::new(fx.library(), base, exp)
                    .run(&fx.program, &exhaustive())
                    .map_err(err)?;
                let n = out.processed() as u64;
                let bits = estimate_bits(n, out.delta_mean(), out.delta_half_width()).to_vec();
                Ok(RepOut { bits, points: 2 * n })
            }
            Workload::CreateGcc => {
                let lib = create_to_path(fx)?;
                Ok(RepOut { bits: create_bits(&lib), points: lib.len() as u64 })
            }
        }
    }

    /// Set up, run timed reps for `opts.seconds`, then make the traced
    /// passes and check every output.
    pub fn run(self, opts: &Options) -> Res<Outcome> {
        let dir = opts.work_dir.join(format!("{}-{}", self.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err)?;
        let result = self.run_in(opts, &dir);
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    fn run_in(self, opts: &Options, dir: &Path) -> Res<Outcome> {
        let mut out = Outcome::default();
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.threads() > host {
            out.degraded = true;
            eprintln!(
                "warning: {} runs {} threads on a host with {host} core(s); its numbers are \
                 DEGRADED",
                self.name(),
                self.threads()
            );
        }

        let setups = if opts.quick || opts.mode == Mode::Layers { 1 } else { SETUPS };
        let mut setup_s = Vec::with_capacity(setups);
        let mut fx = None;
        for _ in 0..setups {
            drop(fx.take()); // the previous set-up goes before the next is timed
            let t = Instant::now();
            fx = Some(self.setup(opts, dir)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let fx = fx.expect("at least one set-up");

        let before = spectral_telemetry::snapshot();
        let mut walls = Vec::new();
        let mut expected = fx.reference.clone();
        let mut points = 0;
        let started = Instant::now();
        while walls.len() < MIN_REPS
            || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds)
        {
            out.attempted += 1;
            let t = Instant::now();
            let rep = self.rep(&fx);
            let wall = t.elapsed().as_secs_f64();
            match rep {
                Ok(rep) => {
                    walls.push(wall);
                    points = rep.points;
                    match &expected {
                        None => expected = Some(rep.bits),
                        Some(bits) if *bits != rep.bits => out.failed += 1,
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.check("every rep runs", false, e);
                    break;
                }
            }
        }
        let after = spectral_telemetry::snapshot();
        let expected = expected.ok_or("no rep completed")?;
        let peak_rss_mb = peak_rss_mb();

        // The traced passes. The first also checks every simulation
        // against `simulate_live_point`, and traces the rest: the
        // set-up's creation for a read workload, or decoding and
        // simulating what `create-gcc` wrote.
        let passes = if opts.quick || opts.mode == Mode::EndToEnd { 1 } else { PASSES };
        let mut t = Tracer::new();
        let mut traced = Vec::with_capacity(passes);
        let mut differ = 0;
        for pass in 0..passes {
            // An untraced rep right before each traced pass: the two
            // share the host's state, so comparing them shows the
            // runner's own work rather than drift since the timed reps.
            out.attempted += 1;
            let paired = Instant::now();
            out.failed += u64::from(self.rep(&fx)?.bits != expected);
            let paired_s = paired.elapsed().as_secs_f64();
            let first_span = t.len();
            let first = pass == 0;
            let mut pass_sims = SimTotals::default();
            let bits = match self {
                Workload::CreateGcc => {
                    let (created, lib) = traced_create(&fx, &mut t, "rep", dir)?;
                    if first {
                        time_encode(&mut t, &created, dir, &mut out)?;
                        self.verify(&fx, &lib, &mut t, &mut pass_sims, &mut out)?;
                    }
                    create_bits(&lib)
                }
                _ => self.replay(&fx, &mut t, &mut pass_sims, first)?,
            };
            if first && self != Workload::CreateGcc && opts.mode != Mode::EndToEnd {
                let (created, lib) = traced_create(&fx, &mut t, "setup", dir)?;
                time_encode(&mut t, &created, dir, &mut out)?;
                let (got, want) = (lib.content_hash(), fx.library().content_hash());
                out.check(
                    "a serial traced creation writes the set-up's library",
                    got == want,
                    format!("{got:08x} vs {want:08x}"),
                );
            }
            differ += u64::from(bits != expected);
            traced.push((first_span..t.len(), pass_sims, paired_s));
        }
        let spans = t.into_spans();
        let sims = &traced[0].1; // the checked pass

        out.check(
            "every rep gives the same estimate bits",
            out.failed == 0,
            format!("{} of {} reps differ", out.failed, out.attempted),
        );
        out.check(
            "every traced pass reproduces the reps' estimate bits",
            differ == 0,
            format!("{differ} of {passes} passes differ from {expected:?}"),
        );
        out.check(
            "each traced point matches simulate_live_point",
            sims.mismatches == 0,
            format!("{} of {} simulations differ", sims.mismatches, sims.sims),
        );

        let m = &mut out.metrics;
        let wall_s = median(&walls);
        let threads = self.threads() as f64;
        m.insert("setup_s", median(&setup_s));
        m.insert("wall_s", wall_s);
        m.insert("reps", walls.len() as f64);
        if let Some(p75) = tail_quantile(&walls, 0.75) {
            m.insert("wall_p75_s", p75);
        }
        m.insert("points_per_s", points as f64 / wall_s);
        let instructions = match self {
            Workload::CreateGcc => functional_instructions(&fx),
            _ => sims.stats.committed,
        };
        m.insert("sim_mips", instructions as f64 / wall_s / 1e6);
        if let Some(mb) = peak_rss_mb {
            m.insert("peak_rss_mb", mb);
        }
        let file_bytes = std::fs::metadata(&fx.path).map_err(err)?.len();
        // create-gcc's bits lead with the point count it wrote.
        let stored_points = fx.library.as_ref().map_or(expected[0], |lib| lib.len() as u64);
        m.insert("bytes_per_point", file_bytes as f64 / stored_points as f64);
        m.insert("failed_frac", out.failed as f64 / out.attempted as f64);
        if self == Workload::OnlineGzip {
            if expected[3] == 1 {
                m.insert("points_to_target", expected[0] as f64);
            }
            if opts.mode == Mode::Full {
                // Outside set-up and the reps: the full-detail reference.
                let reference =
                    spectral_warming::complete_detailed(&MachineConfig::eight_way(), &fx.program);
                let estimate = f64::from_bits(expected[1]);
                m.insert(
                    "cpi_err_pct",
                    (estimate - reference.cpi()).abs() / reference.cpi() * 100.0,
                );
            }
        }

        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let (hits, misses) = (delta("core.lib.cache_hits"), delta("core.lib.cache_misses"));
        m.insert(
            "core.pointcache.hit_pct",
            if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 * 100.0 },
        );
        let (busy, idle) = (delta("core.sched.busy_ns"), delta("core.sched.idle_ns"));
        if busy + idle > 0 {
            m.insert("core.sched.idle_pct", idle as f64 / (busy + idle) as f64 * 100.0);
            m.insert(
                "core.run.lock_wait_us",
                delta("core.run.lock_wait_ns") as f64 / walls.len() as f64 / 1e3,
            );
        }

        // Each layer metric is the median over the passes that saw the
        // layer: one pass can land on a burst of host noise.
        let self_ns = trace::self_times(&spans);
        let per_pass: Vec<_> = traced
            .iter()
            .map(|(range, s, paired_s)| {
                layer_metrics(&spans, &self_ns, range.clone(), s, *paired_s, threads)
            })
            .collect();
        for name in per_pass.iter().flat_map(BTreeMap::keys) {
            let values: Vec<f64> = per_pass.iter().filter_map(|p| p.get(name).copied()).collect();
            m.insert(*name, median(&values));
        }
        out.spans = spans;
        Ok(out)
    }

    /// Decode every point `create-gcc` wrote and simulate it on the
    /// first machine, checked like a read workload's points.
    fn verify(
        self,
        fx: &Fixture,
        lib: &LivePointLibrary,
        t: &mut Tracer,
        sims: &mut SimTotals,
        out: &mut Outcome,
    ) -> Res<()> {
        let machines = self.machines();
        let id = t.open("verify", None);
        let mut scratch = DecodeScratch::new();
        let mut decoded = 0;
        for i in 0..lib.len() {
            let lp = t.leaf("codec.decode", Some(i as u64), || lib.get_with(&mut scratch, i));
            let Ok(lp) = lp else { continue };
            decoded += 1;
            sim_all(t, &lp, &fx.program, &machines, i as u64, sims, true)?;
        }
        t.close(id);
        out.check(
            "every point of the written file decodes",
            decoded == lib.len(),
            format!("{decoded} of {} points", lib.len()),
        );
        Ok(())
    }

    /// Replay one rep of a read workload through the layers' public
    /// calls, one span per call, with the runner's push order and stop
    /// rule; returns the estimate bits the rep should have produced.
    /// With `check`, every simulation is also checked.
    fn replay(
        self,
        fx: &Fixture,
        t: &mut Tracer,
        sims: &mut SimTotals,
        check: bool,
    ) -> Res<Vec<u64>> {
        let lib = fx.library();
        let machines = self.machines();
        let mut scratch = DecodeScratch::new();
        // A decode also frees the point it replaces, as the runners'
        // decode-cache insert frees the entry it evicts.
        let mut decode = |t: &mut Tracer, i: usize, replaced: Option<LivePoint>| {
            t.leaf("codec.decode", Some(i as u64), || {
                drop(replaced);
                lib.get_with(&mut scratch, i)
            })
            .map_err(err)
        };
        match self {
            Workload::OnlineGzip => {
                let policy = RunPolicy::default();
                let mut est = OnlineEstimator::new();
                let mut reached = false;
                let mut held = None;
                let rep = t.open("rep", None);
                for i in 0..lib.len() {
                    let point = t.open("point", Some(i as u64));
                    let replaced = held.take();
                    let lp: &LivePoint = held.insert(decode(t, i, replaced)?);
                    let cpi = sim_all(t, lp, &fx.program, &machines, i as u64, sims, check)?[0];
                    est.push(cpi);
                    reached = est.count() >= MIN_SAMPLE_SIZE
                        && est.relative_half_width(policy.confidence) <= policy.target_rel_err;
                    t.close(point);
                    if reached {
                        break;
                    }
                }
                t.close(rep);
                let mut bits =
                    estimate_bits(est.count(), est.mean(), est.half_width(policy.confidence))
                        .to_vec();
                bits.push(u64::from(reached));
                Ok(bits)
            }
            Workload::SweepGcc2t => {
                let confidence = exhaustive().confidence;
                let mut ests = vec![OnlineEstimator::new(); machines.len()];
                let mut held = None;
                let rep = t.open("rep", None);
                for i in 0..lib.len() {
                    let point = t.open("point", Some(i as u64));
                    let replaced = held.take();
                    let lp: &LivePoint = held.insert(decode(t, i, replaced)?);
                    let cpis = sim_all(t, lp, &fx.program, &machines, i as u64, sims, check)?;
                    for (est, cpi) in ests.iter_mut().zip(cpis) {
                        est.push(cpi);
                    }
                    t.close(point);
                }
                t.close(rep);
                Ok(ests
                    .iter()
                    .flat_map(|e| estimate_bits(e.count(), e.mean(), e.half_width(confidence)))
                    .collect())
            }
            Workload::MatchedMcfHot => {
                // The reps find every point in the decode cache, so the
                // decodes happen before the replayed rep, not inside it.
                let fill = t.open("fill", None);
                let points = (0..lib.len()).map(|i| decode(t, i, None)).collect::<Res<Vec<_>>>()?;
                t.close(fill);
                let mut pair = MatchedPair::new();
                let rep = t.open("rep", None);
                for (i, lp) in points.iter().enumerate() {
                    let point = t.open("point", Some(i as u64));
                    let cpis = sim_all(t, lp, &fx.program, &machines, i as u64, sims, check)?;
                    pair.push(cpis[0], cpis[1]);
                    t.close(point);
                }
                t.close(rep);
                let confidence = exhaustive().confidence;
                Ok(estimate_bits(
                    pair.count(),
                    pair.delta_mean(),
                    pair.delta_half_width(confidence),
                )
                .to_vec())
            }
            Workload::CreateGcc => unreachable!("create-gcc has no read side to replay"),
        }
    }
}

/// `create-gcc`'s bits: points, content hash, stored record bytes.
fn create_bits(lib: &LivePointLibrary) -> Vec<u64> {
    vec![lib.len() as u64, u64::from(lib.content_hash()), lib.total_compressed_bytes()]
}

/// The sample windows `create_parallel_to_path` picks over a benchmark
/// of `n` instructions, for the traced creation, which times the length
/// pass and the walk apart. The traced creation's content-hash check
/// catches any drift from the library's own choice.
fn design_windows(cfg: &CreationConfig, n: u64) -> Vec<WindowSpec> {
    SystematicDesign::new(cfg.unit_len, cfg.warm_len).windows(n, cfg.sample_size, cfg.seed)
}

/// The length pass, then the two-thread creation streamed to the
/// fixture's path.
fn create_to_path(fx: &Fixture) -> Res<LivePointLibrary> {
    LivePointLibrary::create_parallel_to_path(
        &fx.program,
        &fx.cfg,
        2,
        &fx.path,
        &V2WriteOptions::default(),
    )
    .map_err(err)
}

/// Instructions one creation executes functionally: the length pass
/// over the whole benchmark, then the warming walk up to the last
/// window's end plus its read slack.
fn functional_instructions(fx: &Fixture) -> u64 {
    let n = benchmark_length(&fx.program);
    let walk =
        design_windows(&fx.cfg, n).last().map_or(0, |w| (w.end() + fx.cfg.read_slack).min(n));
    n + walk
}

/// Create the fixture's library serially through public calls, one
/// span per layer, under a root span named `root`: the length pass,
/// the warming walk (which encodes and compresses each point), the v2
/// save with dictionaries, and the reopen. Returns the in-memory
/// library the walk built and the reopened file.
fn traced_create(
    fx: &Fixture,
    t: &mut Tracer,
    root: &'static str,
    dir: &Path,
) -> Res<(LivePointLibrary, LivePointLibrary)> {
    let path = dir.join("traced.slp");
    let cfg = &fx.cfg;
    let id = t.open(root, None);
    let n = t.leaf("isa.length_pass", None, || benchmark_length(&fx.program));
    let windows = design_windows(cfg, n);
    let created = t
        .leaf("core.create.walk", None, || {
            LivePointLibrary::create_with_windows(&fx.program, cfg, &windows)
        })
        .map_err(err)?;
    t.leaf("core.library.save_v2", None, || created.save_v2(&path, &V2WriteOptions::default()))
        .map_err(err)?;
    let opened =
        t.leaf("core.library.open", None, || LivePointLibrary::open(&path)).map_err(err)?;
    t.close(id);
    Ok((created, opened))
}

/// Time DER encode and LZSS compress of each point `created` holds, on
/// their own (the walk does both inside one call), and check that they
/// reproduce each stored record.
fn time_encode(
    t: &mut Tracer,
    created: &LivePointLibrary,
    dir: &Path,
    out: &mut Outcome,
) -> Res<()> {
    let id = t.open("encode", None);
    let mut scratch = lzss::CompressScratch::new();
    let (mut der_bytes, mut differ) = (0u64, 0u64);
    for i in 0..created.len() {
        let lp = created.get(i).map_err(err)?;
        let der = t.leaf("core.encode.der", Some(i as u64), || lp.to_der());
        let comp =
            t.leaf("codec.compress", Some(i as u64), || lzss::compress_with(&mut scratch, &der));
        der_bytes += der.len() as u64;
        differ += u64::from(Some(comp.len()) != created.record_bytes(i));
    }
    t.close(id);
    out.check(
        "DER encode + LZSS compress reproduce every stored record",
        differ == 0,
        format!("{differ} of {} records differ in length", created.len()),
    );
    let file_bytes = std::fs::metadata(dir.join("traced.slp")).map_err(err)?.len();
    out.metrics.insert("codec.ratio", der_bytes as f64 / file_bytes as f64);
    Ok(())
}

/// Simulate `lp` under every machine through the layers' public calls
/// — the steps of `simulate_live_point`, one span each. With `check`,
/// each result is also compared with `simulate_live_point` itself (in a
/// `check` span, which the layer totals leave out). Returns the
/// measured CPIs.
fn sim_all(
    t: &mut Tracer,
    lp: &LivePoint,
    program: &Program,
    machines: &[MachineConfig],
    req: u64,
    acc: &mut SimTotals,
    check: bool,
) -> Res<Vec<f64>> {
    let req = Some(req);
    let mut cpis = Vec::with_capacity(machines.len());
    for m in machines {
        let hierarchy = t
            .leaf("cache.reconstruct", req, || lp.reconstruct_hierarchy(&m.hierarchy))
            .map_err(err)?;
        let bpred = t.leaf("uarch.setup", req, || lp.predictor_for(&m.bpred)).map_err(err)?;
        let oracle = t.leaf("isa.memory_build", req, || {
            Emulator::from_state(program, lp.live_state.arch.clone(), lp.live_state.build_memory())
        });
        let mut sim = t.leaf("uarch.setup", req, || {
            DetailedSim::with_state(m, program, oracle, hierarchy, bpred)
        });
        let warm = t.leaf("uarch.warm", req, || sim.run(lp.window.warm_len()));
        let measure = t.leaf("uarch.measure", req, || sim.run(lp.window.measure_len));
        t.leaf("uarch.setup", req, || drop(sim)); // tear-down mirrors set-up
        if check {
            let reference =
                t.leaf("check", req, || simulate_live_point(lp, program, m)).map_err(err)?;
            acc.mismatches += u64::from(reference != measure);
        }
        acc.sims += 1;
        add_stats(&mut acc.stats, &warm);
        add_stats(&mut acc.stats, &measure);
        cpis.push(measure.cpi());
    }
    Ok(cpis)
}

/// Per-layer metrics from one traced pass: the spans in `pass`, the
/// simulations it made, and the wall time of the untraced rep run just
/// before it. A layer the pass did not trace is left out.
fn layer_metrics(
    spans: &[trace::Span],
    self_ns: &[u64],
    pass: std::ops::Range<usize>,
    sims: &SimTotals,
    paired_s: f64,
    threads: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let all = trace::totals(spans, self_ns, |i| {
        pass.contains(&i) && !STRUCTURAL.contains(&spans[i].name)
    });
    let rep = pass.clone().find(|&i| spans[i].name == "rep").expect("every pass has a rep");
    let in_rep = trace::totals(spans, self_ns, |i| trace::within(spans, i, rep));
    let rep_layers_ns: u64 =
        in_rep.iter().filter(|(n, _)| !STRUCTURAL.contains(n)).map(|(_, t)| t.self_ns).sum();
    let checks_ns: u64 = in_rep.get("check").map_or(0, |t| t.durations_ns.iter().sum());
    let rep_traced_ns = (spans[rep].duration_ns() - checks_ns) as f64;
    let busy_s = rep_layers_ns as f64 / 1e9;
    m.insert("core.runner.unattributed_pct", (1.0 - busy_s / (threads * paired_s)) * 100.0);
    m.insert("trace.overhead_pct", (rep_traced_ns - rep_layers_ns as f64) / rep_traced_ns * 100.0);
    if threads > 1.0 {
        m.insert("core.sched.parallel_eff_pct", busy_s / (threads * paired_s) * 100.0);
    }
    if in_rep.contains_key("core.create.walk") {
        m.insert("core.create.pipeline_speedup", busy_s / paired_s);
    }

    let ms = |name: &str| all.get(name).map(|t| t.self_ns as f64 / 1e6);
    for (metric, layer) in [
        ("core.library.open_ms", "core.library.open"),
        ("isa.length_pass_ms", "isa.length_pass"),
        ("core.create.walk_ms", "core.create.walk"),
        ("core.library.save_v2_ms", "core.library.save_v2"),
    ] {
        if let Some(v) = ms(layer) {
            m.insert(metric, v);
        }
    }
    if let Some(decode) = all.get("codec.decode") {
        m.insert("codec.decode_us", decode.mean_us());
        m.insert("codec.decode_p99_us", percentile(&decode.durations_ns, 0.99) / 1e3);
    }
    if let (Some(walk), Some(der), Some(comp)) =
        (all.get("core.create.walk"), all.get("core.encode.der"), all.get("codec.compress"))
    {
        let walk_ns = walk.self_ns as f64;
        m.insert(
            "core.create.warm_pct",
            (walk_ns - (der.self_ns + comp.self_ns) as f64) / walk_ns * 100.0,
        );
        m.insert("core.encode.der_us", der.mean_us());
        m.insert("codec.compress_us", comp.mean_us());
    }

    if sims.sims > 0 {
        let self_of = |name: &str| all.get(name).map_or(0, |t| t.self_ns) as f64;
        let per_sim_us = |name: &str| self_of(name) / sims.sims as f64 / 1e3;
        for (metric, layer) in [
            ("cache.reconstruct_us", "cache.reconstruct"),
            ("isa.memory_build_us", "isa.memory_build"),
            ("uarch.setup_us", "uarch.setup"),
            ("uarch.warm_us", "uarch.warm"),
            ("uarch.measure_us", "uarch.measure"),
        ] {
            m.insert(metric, per_sim_us(layer));
        }
        let run_ns = self_of("uarch.warm") + self_of("uarch.measure");
        let s = &sims.stats;
        let committed = s.committed as f64;
        m.insert("uarch.host_ns_per_inst", run_ns / committed);
        m.insert("uarch.host_ns_per_cycle", run_ns / s.cycles as f64);
        m.insert("uarch.committed", committed);
        m.insert("uarch.cycles", s.cycles as f64);
        m.insert("uarch.cpi", s.cycles as f64 / committed);
        m.insert("uarch.wrong_path_pct", s.wrong_path_fetched as f64 / committed * 100.0);
        m.insert("uarch.l1d_mpki", s.l1d_misses as f64 / committed * 1e3);
        m.insert("uarch.l2_mpki", s.l2_misses as f64 / committed * 1e3);
        m.insert("uarch.mispredict_pki", s.mispredicts as f64 / committed * 1e3);
    }
    m
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q` quantile of `xs`, or `None` when fewer than ten
/// samples lie beyond it — a tail read from fewer samples is noise.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= 10).then(|| v[rank - 1])
}

/// Nearest-rank `q` quantile of integer samples (0 when empty).
fn percentile(xs: &[u64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).map_or(0.0, |&x| x as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_p75() {
        let reps = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_quantile(&reps(39), 0.75), None, "39 reps leave 9 beyond p75");
        assert_eq!(tail_quantile(&reps(40), 0.75), Some(29.0), "40 reps leave 10 beyond p75");
        assert_eq!(tail_quantile(&reps(3), 0.75), None);
        assert_eq!(tail_quantile(&[], 0.75), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&(1..=100).collect::<Vec<u64>>(), 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
