//! Worker-timeline profiler: exact per-worker, per-phase aggregates,
//! written to the run stream.
//!
//! The paper's value proposition is wall-clock, so every second a
//! runner worker spends *not* simulating (claiming chunks, decoding,
//! waiting on the merge lock, idling at the termination barrier)
//! erodes the reproduced speedup. This module accounts for where each
//! worker's wall-clock went, one record per worker and one bracket per
//! run:
//!
//! ```json
//! {"type":"profile_run","run_id":"9f2a…-1","seq":1,"run":"online",
//!  "workers":4,"t_us":120,"dur_us":81234}
//! {"type":"profile_worker","run_id":"9f2a…-1","seq":1,"run":"online",
//!  "worker":0,"t_us":130,"dur_us":80410,"recorded":412,
//!  "phases":{"claim":{"count":9,"ns":4100},"decode":{"count":96,"ns":…}}}
//! ```
//!
//! These records are the run stream's one per-worker timing channel:
//! `spectral-doctor` derives each worker's point count (`simulate`'s
//! count) and busy time (`prefetch_wait + decode + simulate`) from
//! them, so a run's shard balance is known once its workers finish.
//!
//! Recording is designed to stay out of the measured path:
//!
//! * While the run stream is off ([`streaming`](crate::streaming) is
//!   false — a single relaxed load) every [`WorkerTimeline`] operation
//!   is an inert branch: no clock reads, no allocation, no locks.
//! * When on, each interval folds into `(count, total_ns)` for its
//!   phase in the worker's own [`WorkerTimeline`] — no cross-thread
//!   synchronization and no allocation per interval. The stream lock is
//!   taken once, when the timeline drops.
//! * Wherever the runner has already measured a duration (decode and
//!   simulate times feed the health layer anyway), the timeline reuses
//!   it via [`WorkerTimeline::note`] instead of reading the clock
//!   again; only the phases without an existing measurement (claim,
//!   merge-wait, merge) pay for their own RAII guard
//!   ([`WorkerTimeline::enter`]), two clock reads per interval.
//!
//! `spectral-doctor profile` reads these records from the run stream
//! and computes wall-clock attribution, contention and straggler
//! analyses, and the profiler's own overhead estimate (`recorded ×
//! per-record cost`).

/// The phases a runner worker's wall-clock is attributed to.
///
/// `Idle` is never recorded directly — it is the remainder of a
/// worker's wall-clock after all recorded phases, computed by
/// consumers — but it participates in the wire format and rendering as
/// a first-class phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfilePhase {
    /// Claiming the next index chunk (scheduler atomics / stride math).
    Claim,
    /// Decode the simulator actually stalled on: the prefetch ring was
    /// empty, so detailed simulation waited for this decode.
    PrefetchWait,
    /// Decode-ahead work: topping the prefetch ring up past the point
    /// the simulator is about to consume.
    Decode,
    /// Detailed simulation (warming + measurement), the paid-for work.
    Simulate,
    /// Waiting to acquire the shared progress lock at a merge point.
    MergeWait,
    /// Merging the thread-local batch under the progress lock.
    Merge,
    /// Wall-clock not covered by any recorded phase.
    Idle,
}

impl ProfilePhase {
    /// Every phase, in canonical rendering order.
    pub const ALL: [ProfilePhase; 7] = [
        ProfilePhase::Claim,
        ProfilePhase::PrefetchWait,
        ProfilePhase::Decode,
        ProfilePhase::Simulate,
        ProfilePhase::MergeWait,
        ProfilePhase::Merge,
        ProfilePhase::Idle,
    ];

    /// The stable wire name carried by `profile_*` JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            ProfilePhase::Claim => "claim",
            ProfilePhase::PrefetchWait => "prefetch_wait",
            ProfilePhase::Decode => "decode",
            ProfilePhase::Simulate => "simulate",
            ProfilePhase::MergeWait => "merge_wait",
            ProfilePhase::Merge => "merge",
            ProfilePhase::Idle => "idle",
        }
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            ProfilePhase::Claim => 0,
            ProfilePhase::PrefetchWait => 1,
            ProfilePhase::Decode => 2,
            ProfilePhase::Simulate => 3,
            ProfilePhase::MergeWait => 4,
            ProfilePhase::Merge => 5,
            ProfilePhase::Idle => 6,
        }
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::fmt::Write as _;
    use std::time::Instant;

    use super::ProfilePhase;
    use crate::sink::{streaming, write};

    /// One run's wall-clock bracket: emits a `profile_run` record
    /// covering the whole run (serial body or parallel region +
    /// deterministic replay) when dropped. The doctor attributes worker
    /// phases against this duration.
    #[derive(Debug)]
    pub struct RunScope {
        on: bool,
        seq: u64,
        run: &'static str,
        workers: usize,
        open_us: u64,
        started: Option<Instant>,
    }

    /// Open the run-level profile bracket for run ordinal `seq` of kind
    /// `run` over `workers` workers. Inert while the run stream is off.
    pub fn run_scope(seq: u64, run: &'static str, workers: usize) -> RunScope {
        let on = streaming();
        RunScope {
            on,
            seq,
            run,
            workers,
            open_us: if on { crate::span::now_us() } else { 0 },
            started: on.then(Instant::now),
        }
    }

    impl Drop for RunScope {
        fn drop(&mut self) {
            let Some(started) = self.started else { return };
            if !self.on {
                return;
            }
            let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            write(format_args!(
                "{{\"type\":\"profile_run\",\"run_id\":{},\"seq\":{},\"run\":{},\
                 \"workers\":{},\"t_us\":{},\"dur_us\":{dur_us}}}\n",
                crate::json::quote(&crate::events::run_id(self.seq)),
                self.seq,
                crate::json::quote(self.run),
                self.workers,
                self.open_us,
            ));
        }
    }

    /// One worker's timeline: exact per-phase aggregates over every
    /// recorded interval. Owned by the worker thread — recording never
    /// crosses a thread boundary; serialization happens once, on drop.
    #[derive(Debug)]
    pub struct WorkerTimeline {
        on: bool,
        seq: u64,
        run: &'static str,
        worker: usize,
        open_us: u64,
        started: Option<Instant>,
        recorded: u64,
        /// `(count, total_ns)` per phase, indexed by `ProfilePhase::index`.
        aggregates: [(u64, u64); 7],
    }

    impl WorkerTimeline {
        /// A timeline for worker `worker` of run ordinal `seq`, kind
        /// `run`. Samples [`streaming`](crate::streaming) once: while
        /// the run stream is off every later operation is a dead branch.
        pub fn new(seq: u64, run: &'static str, worker: usize) -> Self {
            let on = streaming();
            WorkerTimeline {
                on,
                seq,
                run,
                worker,
                open_us: if on { crate::span::now_us() } else { 0 },
                started: on.then(Instant::now),
                recorded: 0,
                aggregates: [(0, 0); 7],
            }
        }

        /// Whether this timeline is recording.
        #[inline]
        pub fn is_on(&self) -> bool {
            self.on
        }

        fn record(&mut self, phase: ProfilePhase, dur_ns: u64) {
            self.recorded += 1;
            let a = &mut self.aggregates[phase.index()];
            a.0 += 1;
            a.1 = a.1.wrapping_add(dur_ns);
        }

        /// Record an interval of `phase` that ended just now and lasted
        /// `dur_ns` — for call sites that already measured the duration
        /// (decode/simulate feed the health layer anyway), so profiling
        /// adds no clock read of its own to the measured work.
        #[inline]
        pub fn note(&mut self, phase: ProfilePhase, dur_ns: u64) {
            if self.on {
                self.record(phase, dur_ns);
            }
        }

        /// Open an RAII guard timing `phase`; the interval is recorded
        /// when the guard drops (or [`switch`](PhaseGuard::switch)es).
        #[inline]
        pub fn enter(&mut self, phase: ProfilePhase) -> PhaseGuard<'_> {
            let started = self.on.then(Instant::now);
            PhaseGuard { tl: self, phase, started }
        }
    }

    impl Drop for WorkerTimeline {
        fn drop(&mut self) {
            let Some(started) = self.started else { return };
            if !self.on {
                return;
            }
            let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut out = String::with_capacity(256);
            let _ = write!(
                out,
                "{{\"type\":\"profile_worker\",\"run_id\":{},\"seq\":{},\"run\":{},\
                 \"worker\":{},\"t_us\":{},\"dur_us\":{dur_us},\"recorded\":{},\"phases\":{{",
                crate::json::quote(&crate::events::run_id(self.seq)),
                self.seq,
                crate::json::quote(self.run),
                self.worker,
                self.open_us,
                self.recorded,
            );
            let mut first = true;
            for phase in ProfilePhase::ALL {
                let (count, ns) = self.aggregates[phase.index()];
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{{\"count\":{count},\"ns\":{ns}}}", phase.name());
            }
            out.push_str("}}\n");
            write(format_args!("{out}"));
        }
    }

    /// An open phase interval; records into its timeline on drop.
    #[derive(Debug)]
    pub struct PhaseGuard<'a> {
        tl: &'a mut WorkerTimeline,
        phase: ProfilePhase,
        started: Option<Instant>,
    }

    impl PhaseGuard<'_> {
        /// Close the current interval and immediately open one for
        /// `phase` — e.g. merge-wait becomes merge the instant the lock
        /// is acquired.
        pub fn switch(&mut self, phase: ProfilePhase) {
            if let Some(started) = self.started.take() {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.tl.record(self.phase, ns);
                self.started = Some(Instant::now());
            }
            self.phase = phase;
        }
    }

    impl Drop for PhaseGuard<'_> {
        fn drop(&mut self) {
            if let Some(started) = self.started {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.tl.record(self.phase, ns);
            }
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::ProfilePhase;

    /// Disabled-build run bracket: zero-sized, drop does nothing.
    #[derive(Debug)]
    pub struct RunScope;

    /// No-op.
    #[inline(always)]
    pub fn run_scope(_seq: u64, _run: &'static str, _workers: usize) -> RunScope {
        RunScope
    }

    /// Disabled-build worker timeline: zero-sized, every method inlines
    /// to nothing.
    #[derive(Debug)]
    pub struct WorkerTimeline;

    impl WorkerTimeline {
        /// No-op.
        #[inline(always)]
        pub fn new(_seq: u64, _run: &'static str, _worker: usize) -> Self {
            WorkerTimeline
        }

        /// Always false.
        #[inline(always)]
        pub fn is_on(&self) -> bool {
            false
        }

        /// No-op.
        #[inline(always)]
        pub fn note(&mut self, _phase: ProfilePhase, _dur_ns: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn enter(&mut self, _phase: ProfilePhase) -> PhaseGuard<'_> {
            PhaseGuard(std::marker::PhantomData)
        }
    }

    /// Disabled-build phase guard: zero-sized, drop does nothing.
    #[derive(Debug)]
    pub struct PhaseGuard<'a>(std::marker::PhantomData<&'a ()>);

    impl PhaseGuard<'_> {
        /// No-op.
        #[inline(always)]
        pub fn switch(&mut self, _phase: ProfilePhase) {}
    }
}

pub use imp::{run_scope, PhaseGuard, RunScope, WorkerTimeline};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn timeline_records_through_the_sink() {
        let _lock = crate::sink::test_lock();
        let dir = crate::sink::test_dir("profile");
        dir.start().expect("temp run stream");
        assert!(crate::streaming());
        {
            let _run = run_scope(7, "online", 2);
            let mut tl = WorkerTimeline::new(7, "online", 1);
            assert!(tl.is_on());
            tl.note(ProfilePhase::Decode, 1_500_000);
            tl.note(ProfilePhase::Simulate, 4_000_000);
            {
                let mut g = tl.enter(ProfilePhase::MergeWait);
                std::thread::sleep(std::time::Duration::from_millis(1));
                g.switch(ProfilePhase::Merge);
            }
            let _claim = tl.enter(ProfilePhase::Claim);
        }
        crate::flush_stream();
        let text = std::fs::read_to_string(dir.stream()).expect("profile file");
        let _ = std::fs::remove_dir_all(dir.root());
        let records: Vec<JsonValue> =
            text.lines().map(|l| JsonValue::parse(l).expect("valid JSONL")).collect();
        // Worker drops before the run scope: one worker record, then
        // the run bracket, and no per-interval records.
        let kinds: Vec<&str> =
            records.iter().filter_map(|r| r.get("type").and_then(JsonValue::as_str)).collect();
        assert_eq!(kinds, ["profile_worker", "profile_run"]);
        let worker = records
            .iter()
            .find(|r| r.get("type").and_then(JsonValue::as_str) == Some("profile_worker"))
            .expect("worker record");
        assert_eq!(worker.get("seq").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(worker.get("worker").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(worker.get("recorded").and_then(JsonValue::as_u64), Some(5));
        let phases = worker.get("phases").expect("phase aggregates");
        let decode = phases.get("decode").expect("decode aggregate");
        assert_eq!(decode.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(decode.get("ns").and_then(JsonValue::as_u64), Some(1_500_000));
        let wait_ns =
            phases.get("merge_wait").and_then(|p| p.get("ns")).and_then(JsonValue::as_u64).unwrap();
        assert!(wait_ns >= 1_000_000, "guard slept ≥1ms, got {wait_ns} ns");
        assert!(phases.get("merge").is_some(), "switch opened a merge interval");
        assert!(phases.get("claim").is_some(), "plain guard recorded on drop");
        let simulate = phases.get("simulate").expect("simulate aggregate");
        assert_eq!(simulate.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(simulate.get("ns").and_then(JsonValue::as_u64), Some(4_000_000));
        assert!(phases.get("prefetch_wait").is_none(), "a phase never recorded is omitted");
        let run = records
            .iter()
            .find(|r| r.get("type").and_then(JsonValue::as_str) == Some("profile_run"))
            .expect("run record");
        assert_eq!(run.get("workers").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(run.get("run").and_then(JsonValue::as_str), Some("online"));
        assert!(run.get("dur_us").and_then(JsonValue::as_u64).unwrap() >= 1_000);
    }

    #[test]
    fn phase_names_round_trip_canonical_order() {
        let names: Vec<&str> = ProfilePhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["claim", "prefetch_wait", "decode", "simulate", "merge_wait", "merge", "idle"]
        );
    }
}
