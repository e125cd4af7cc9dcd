//! # spectral-bench — Criterion benchmarks for the paper's cost claims
//!
//! One bench target per quantitative claim (see DESIGN.md's experiment
//! index for the mapping to tables/figures):
//!
//! * `fig8_load` — live-point decompress+decode time as the stored
//!   maximum cache grows (Fig 8, right),
//! * `methods` — per-method unit costs: functional-warming rate,
//!   detailed-simulation rate, and per-live-point processing (the
//!   ingredients of Table 2's runtimes),
//! * `codec` — DER and LZSS throughput (the paper's "minimal storage and
//!   processing time overhead" claim for its encoding),
//! * `warmstate` — CSR vs MTR record/reconstruct costs (the DESIGN.md
//!   ablation for adaptable warm state),
//! * `pipeline` — out-of-order timing-model throughput per workload
//!   class,
//! * `scaling` — parallel-pipeline worker scaling (creation, sharded
//!   runs, decode-once sweeps at 1/2/4/8 workers, capped at the host's
//!   core count); also emits `BENCH_parallel.json` at the workspace
//!   root,
//! * `kernel` — per-point kernel layers bare (functional emulation,
//!   detailed pipeline, decode, single-thread end-to-end run); emits
//!   `BENCH_kernel.json`, which CI's perf-smoke job gates on.
//!
//! This library crate only exposes shared fixtures for those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spectral_core::{CreationConfig, LivePointLibrary};
use spectral_isa::Program;
use spectral_uarch::MachineConfig;
use spectral_workloads::{by_name, tiny, Benchmark};

/// The benchmark used by cost benches (small enough to set up quickly,
/// busy enough to exercise every structure).
pub fn fixture_benchmark() -> Benchmark {
    tiny()
}

/// A memory-heavy suite benchmark for cache-sensitive benches.
pub fn memory_benchmark() -> Benchmark {
    by_name("mcf-like").expect("suite benchmark")
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
