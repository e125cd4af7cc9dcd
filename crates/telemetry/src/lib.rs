//! # spectral-telemetry — observability for the live-point pipeline
//!
//! The paper's headline claims are throughput numbers: live-point
//! processing rate, checkpoint bytes, warming cost, CPI confidence
//! trajectories. This crate gives every run an auditable account of
//! where time and bytes go:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — process-wide,
//!   lock-free, sharded over cache-line-padded atomic cells so
//!   `run_parallel`'s workers never contend on a counter line. Metrics
//!   register themselves on first touch; [`snapshot`] collects every
//!   registered metric into a mergeable, JSON-serializable
//!   [`MetricsSnapshot`].
//! * **Spans** ([`span`]) — RAII wall-clock timing with a thread-local
//!   depth stack. Every span aggregates into per-name totals (visible in
//!   snapshots) and, while the run stream is on, appends one record to
//!   it.
//! * **Run manifests** ([`RunManifest`]) — a structured record of one
//!   run: binary, benchmark, machine, thread count, library id/hash,
//!   seed, per-phase wall-clock, points processed, and the final
//!   estimate ± half-width, serialized to JSON (with the full metrics
//!   snapshot embedded) for `BENCH_*.json`-style comparison.
//! * **Sampling-health events** ([`ProgressEvent`], [`AnomalyEvent`]) —
//!   the run's *statistical* health: merge-stride convergence records
//!   (running mean, CI half-width, early-termination eligibility) and
//!   per-point anomaly records.
//! * **Worker-timeline profiles** ([`WorkerTimeline`], [`run_scope`]) —
//!   exact per-worker, per-phase aggregates (claim / prefetch-wait /
//!   decode / simulate / merge-wait / merge / idle) attributing every
//!   worker's wall-clock: the stream's one per-worker timing channel.
//! * **The run stream** ([`RunDir`], [`streaming`]) — one JSONL sink
//!   that spans, events and profiles all write to,
//!   one record kind per `type` field on one timebase. An experiment
//!   run's `--out DIR` holds it as `run.jsonl` beside `manifest.json`
//!   and `report.txt`; `spectral-doctor` reads it with one parser, and
//!   [`chrome_trace`] converts it into a Chrome `trace_event` document
//!   for <https://ui.perfetto.dev>.
//!
//! ## Zero cost when disabled
//!
//! Everything is behind the `enabled` feature (on by default). Built
//! with `--no-default-features`, every metric and span operation is an
//! inlined empty function on unit types: instrumented hot paths carry
//! no atomics, no clock reads, and no branches. The manifest, JSON and
//! run-directory layers remain available in both modes (they are never
//! hot).
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated `crate.subsystem.quantity[_unit]`:
//! `core.run.decode_ns`, `codec.lzss.compress_in_bytes`,
//! `uarch.commit.insts`. Span names are `subsystem.phase`:
//! `create.library`, `run.online`, `run.point`. See DESIGN.md's
//! Observability section for the full taxonomy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod json;
mod manifest;
mod metrics;
mod perfetto;
mod profile;
mod sink;
mod span;

pub use events::{
    derive_run_id, fnv1a64, next_run_seq, process_token, run_id, AnomalyEvent, CheckpointEvent,
    ProgressEvent,
};
pub use json::{number as json_number, quote as json_quote, JsonError, JsonValue};
pub use manifest::{EstimateSummary, Phase, RunManifest, MANIFEST_VERSION};
pub use metrics::{
    reset, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Stopwatch,
    HISTOGRAM_BUCKETS,
};
pub use perfetto::chrome_trace;
pub use profile::{run_scope, PhaseGuard, ProfilePhase, RunScope, WorkerTimeline};
pub use sink::{flush_stream, streaming, RunDir};
pub use span::{span, Span};

/// Whether telemetry was compiled in (the `enabled` feature).
pub const fn compiled_in() -> bool {
    cfg!(feature = "enabled")
}
