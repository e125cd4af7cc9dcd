//! # spectral-bench — the benchmarks behind CI's perf gates
//!
//! Each bench target answers one question and writes at most one file:
//!
//! * `kernel` — the serial hot-decode run rate (points/s of a
//!   single-thread exhaustive online run); writes `BENCH_kernel.json`,
//!   whose `run_points_per_s` CI's perf-smoke job gates on,
//! * `library` — v1 input vs paged v2 containers: open latency, cold
//!   and warm single-point reads, dictionary bytes/point and
//!   decode-cache reuse; writes `BENCH_library.json`, which CI's
//!   perf-smoke job gates on,
//! * `scaling` — the worker ladder (creation, sharded runs and
//!   decode-once sweeps at 1/2/4/8 workers, capped at the host's core
//!   count) and the run stream's wall-clock cost; writes
//!   `BENCH_parallel.json`, and indexes one run per cell in
//!   `SPECTRAL_REGISTRY` when set (CI's registry smoke),
//! * `warmstate` — CSR vs MTR record/reconstruct costs (DESIGN.md §5
//!   decision 2); console only, run by hand.
//!
//! Per-layer costs (codec, emulation, timing model, decode) are the
//! e2e benchmark's traced metrics, and Table 2 and Figure 8 are
//! measured by the `table2` and `fig8` experiment binaries.
//!
//! This library crate only exposes shared fixtures for those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spectral_core::{CreationConfig, LivePointLibrary, RunPolicy};
use spectral_isa::Program;
use spectral_uarch::MachineConfig;
use spectral_workloads::{tiny, Benchmark};

/// Whether `SPECTRAL_BENCH_QUICK` selects the CI smoke mode (fewer
/// samples, same measurements).
pub fn quick() -> bool {
    std::env::var_os("SPECTRAL_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The policy every timed run uses: a precision target no run
/// reaches and no trajectory, so each run processes the whole library.
pub fn exhaustive() -> RunPolicy {
    RunPolicy { target_rel_err: 1e-12, trajectory_stride: 0, ..RunPolicy::default() }
}

/// The benchmark used by cost benches (small enough to set up quickly,
/// busy enough to exercise every structure).
pub fn fixture_benchmark() -> Benchmark {
    tiny()
}

/// Build a small live-point library for `program` under the 8-way
/// machine.
///
/// # Panics
///
/// Panics if creation fails (fixture programs always host windows).
pub fn fixture_library(program: &Program, points: u64) -> LivePointLibrary {
    let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(points);
    LivePointLibrary::create(program, &cfg).expect("fixture library")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let p = fixture_benchmark().build();
        let lib = fixture_library(&p, 8);
        assert!(lib.len() >= 4);
    }
}
