//! Offline drop-in for the subset of the `criterion` crate this
//! workspace uses.
//!
//! The build environment has no registry access, so the workspace
//! path-patches `criterion` to this crate. Benches run a calibration
//! pass, then time `sample_size` batches and report min/median/max
//! per-iteration wall-clock. Measured medians are kept on the
//! [`Criterion`] instance ([`Criterion::results`]) so custom bench
//! mains can export machine-readable summaries.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Instant;

pub use std::hint::black_box;

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/benchmark` identifier.
    pub id: String,
    /// Fastest per-iteration seconds observed.
    pub min_s: f64,
    /// Median per-iteration seconds.
    pub median_s: f64,
    /// Slowest per-iteration seconds observed.
    pub max_s: f64,
    /// Declared per-iteration throughput, if any.
    pub throughput: Option<Throughput>,
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 20, throughput: None }
    }

    /// All measurements completed so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Per-iteration throughput declaration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier rendered from a parameter value.
    pub fn from_parameter(p: impl fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_owned())
    }
}

/// A group of benchmarks sharing a name prefix and sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher { sample_size: self.sample_size, samples: Vec::new() };
        f(&mut b);
        self.record(id, b);
        self
    }

    /// Measure one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher { sample_size: self.sample_size, samples: Vec::new() };
        f(&mut b, input);
        self.record(id, b);
        self
    }

    fn record(&mut self, id: BenchmarkId, b: Bencher) {
        let mut samples = b.samples;
        if samples.is_empty() {
            return;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let result = BenchResult {
            id: format!("{}/{}", self.name, id.0),
            min_s: samples[0],
            median_s: samples[samples.len() / 2],
            max_s: *samples.last().expect("nonempty"),
            throughput: self.throughput,
        };
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.0} elem/s", n as f64 / result.median_s)
            }
            None => String::new(),
        };
        println!(
            "{:<48} time: [{} {} {}]{}",
            result.id,
            fmt_time(result.min_s),
            fmt_time(result.median_s),
            fmt_time(result.max_s),
            rate
        );
        self.criterion.results.push(result);
    }

    /// End the group (measurements are recorded as they run).
    pub fn finish(self) {}
}

/// Passed to benchmark closures to time the measured routine.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Time `f`, batching iterations so each sample spans enough
    /// wall-clock to be measurable.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let calibrate = Instant::now();
        black_box(f());
        let once = calibrate.elapsed().as_secs_f64();
        // Target ~25 ms per sample, 1..=1e6 iterations.
        let iters = (0.025 / once.max(1e-9)).ceil().clamp(1.0, 1e6) as u64;
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(3);
            g.bench_function("spin", |b| {
                b.iter(|| (0..1000u64).sum::<u64>());
            });
            g.finish();
        }
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.id, "unit/spin");
        assert!(r.min_s <= r.median_s && r.median_s <= r.max_s);
        assert!(r.median_s > 0.0);
    }
}
