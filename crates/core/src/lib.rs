//! # spectral-core — simulation sampling with live-points
//!
//! The primary contribution of the reproduced paper (*Simulation
//! Sampling with Live-points*, ISPASS 2006): checkpoints that store the
//! bare minimum of functionally-warmed state needed to simulate one
//! pre-selected execution window accurately, plus the sampling framework
//! that exploits their independence.
//!
//! * [`LivePoint`] — one checkpoint: architectural registers, the
//!   **live-state** memory subset (only words the window actually
//!   reads), timestamped Cache Set Records for every cache/TLB bounded
//!   by a user-selected maximum geometry, and one branch-predictor
//!   snapshot per selected predictor configuration,
//! * [`LivePointLibrary`] — creation (one functional pass per
//!   benchmark, optionally streamed straight to disk), shuffling, and
//!   one way of serving records: a paged v2 image, on disk or in
//!   memory, whose open reads only a footer index and whose point reads
//!   are O(1) (a positioned read of a file, a borrow from memory), with
//!   block-shared LZSS dictionaries and index-level merge
//!   ([`LivePointLibrary::merge_files`]). The
//!   single-compressed-stream v1 file the paper recommends (§6.1) is
//!   still read, re-framed into a v2 image on open,
//! * [`OnlineRunner`] — random-order processing with online confidence:
//!   results and their confidence are available *while the simulation
//!   runs*, and the run stops as soon as the target confidence is met
//!   (with the n ≥ 30 central-limit floor),
//! * [`MatchedRunner`] — matched-pair comparative experiments (§6.2):
//!   the same live-points measured under two machine configurations,
//!   building the confidence interval directly on the CPI delta,
//! * [`SweepRunner`] — decode-once design-space sweeps: each live-point
//!   is decompressed and decoded once, then simulated under every
//!   candidate machine, so per-config estimates are matched-pair
//!   comparable by construction,
//! * [`StratifiedRunner`] — position-band stratified estimation, whose
//!   combined interval converges sooner on phased programs,
//! * one run driver behind all four runners: each exposes
//!   `run(program, policy)` and `run_parallel(program, policy, threads)`,
//!   and `run` is `run_parallel` on one thread — the serial loop, on the
//!   calling thread, checking the stop rule after every point. More
//!   threads spread the work over [`std::thread::scope`]d workers
//!   (live-point independence makes this embarrassingly parallel) that
//!   claim chunks from a dynamic scheduler with decode-ahead prefetch
//!   ([`ChunkCursor`]). Rows are replayed in index order, so a run's
//!   estimate is bit-identical at every thread count, and
//!   [`RunPolicy::recovery`] checkpoints any run or resumes it
//!   ([`Recovery`]).
//!
//! ## Example
//!
//! ```no_run
//! use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
//! use spectral_uarch::MachineConfig;
//! use spectral_workloads::by_name;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = by_name("gzip-like").expect("in suite");
//! let program = bench.build();
//! let library = LivePointLibrary::create(&program, &CreationConfig::default())?;
//! let estimate = OnlineRunner::new(&library, MachineConfig::eight_way())
//!     .run(&program, &RunPolicy::default())?;
//! println!(
//!     "CPI {:.3} ± {:.3} after {} live-points",
//!     estimate.mean(),
//!     estimate.half_width(),
//!     estimate.processed()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod creation;
mod drive;
mod encode;
mod error;
mod health;
mod library;
mod livepoint;
mod livestate;
mod matched;
mod plan;
mod pointcache;
mod resume;
mod runner;
mod sched;
mod stratified;
mod sweep;

pub use creation::{benchmark_length, CreationConfig, L2StreamPolicy};
pub use error::CoreError;
pub use library::{DecodeScratch, LibraryHeader, LivePointLibrary, V2WriteOptions};
pub use livepoint::{LivePoint, SizeBreakdown, WarmPayload};
pub use livestate::{collect_live_state, LiveState, StateScope};
pub use matched::{MatchedOutcome, MatchedRunner};
pub use plan::{plan_library, LibraryPlan};
pub use pointcache::{clear_decode_cache, decode_cache_capacity, set_decode_cache_capacity};
pub use resume::{
    config_fingerprint, policy_fingerprint, CheckpointSpec, Recovery, RunCheckpoint, RunKind,
    CHECKPOINT_MAGIC,
};
pub use runner::{simulate_live_point, Estimate, OnlineRunner, RunPolicy};
pub use sched::ChunkCursor;
pub use stratified::{StratifiedEstimate, StratifiedRunner};
pub use sweep::{SweepOutcome, SweepRunner};
