//! # spectral-workloads — a synthetic SPEC2K-like benchmark suite
//!
//! The paper evaluates on 41 SPEC CPU2000 benchmark/input combinations.
//! Real SPEC binaries (and an Alpha toolchain) are unavailable here, so
//! this crate generates *synthetic* SRISC benchmarks (22 of them) from parameterized
//! [`Kernel`]s, each tuned to reproduce the workload property that drives
//! a paper experiment:
//!
//! * **memory footprint & reuse-distance spectrum** — streaming walks,
//!   strided walks, pointer chasing, and random access at configurable
//!   footprints control cache warming behaviour (Figs 4/5, Table 3),
//! * **branch entropy** — biased vs LCG-random branches control
//!   predictor warming,
//! * **CPI variance & phases** — benchmarks run phase schedules
//!   ([`Schedule::Phased`]) so CPI varies across the run, which is what
//!   determines sample size (Table 2's runtime spread),
//! * **instruction mix** — FP stencil/matmul kernels vs integer
//!   pointer/branch kernels mirror the CFP/CINT split.
//!
//! Benchmark lengths are scaled ~10⁴× below SPEC reference inputs so a
//! *full-detail reference simulation* — the ground truth every bias
//! experiment needs — is feasible; every paper comparison is ratio- or
//! shape-based, so the scaling preserves the conclusions.
//!
//! [`random_program`] generates small seeded programs for differential
//! tests of the timing model: their unlearnable branches, calls and
//! indirect jumps reach mispredict recovery, the return-address stack
//! and wrong-path fetch.
//!
//! ## Example
//!
//! ```
//! use spectral_workloads::{suite, by_name};
//!
//! let all = suite();
//! assert!(all.len() >= 16);
//! let mcf = by_name("mcf-like").expect("in suite");
//! let program = mcf.build();
//! assert!(program.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod kernel;
mod random;

pub use bench::{by_name, suite, tiny, Benchmark, Schedule};
pub use kernel::{emit_call_targets, EmitCtx, Kernel, Predictability};
pub use random::random_program;

use spectral_isa::{Emulator, Program};

/// Run `program` functionally to completion and return the number of
/// committed instructions (the benchmark length `N` that sample designs
/// need).
///
/// This is a full functional pass; cache the result. A safety cap of
/// 2 × 10⁹ instructions guards against runaway programs.
pub fn dynamic_length(program: &Program) -> u64 {
    let mut emu = Emulator::new(program);
    let cap = 2_000_000_000u64;
    while emu.step().is_some() {
        if emu.seq() >= cap {
            break;
        }
    }
    emu.seq()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_benchmark_runs_to_completion() {
        let b = tiny();
        let p = b.build();
        let n = dynamic_length(&p);
        assert!(n > 10_000, "tiny benchmark too short: {n}");
        assert!(n < 500_000, "tiny benchmark too long: {n}");
    }

    #[test]
    fn dynamic_length_is_deterministic() {
        let p = tiny().build();
        assert_eq!(dynamic_length(&p), dynamic_length(&p));
    }
}
