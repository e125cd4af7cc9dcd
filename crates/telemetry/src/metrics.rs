//! Lock-free metrics: sharded counters.
//!
//! Each counter is declared as a `static` at its instrumentation site
//! and registers itself with the process-wide registry on first touch,
//! so [`snapshot`] sees exactly the counters the run exercised. Counter
//! cells are sharded across cache-line-padded atomics indexed by a
//! per-thread id, so concurrent workers (e.g. `run_parallel` shards)
//! increment disjoint lines; a snapshot sums the shards.

use std::fmt::Write as _;

/// A point-in-time copy of every registered counter and span aggregate,
/// sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: Vec<(String, u64)>,
    /// Span aggregates: `(name, close_count, total_ns)`.
    pub spans: Vec<(String, u64, u64)>,
}

impl MetricsSnapshot {
    /// Look up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serialize as a JSON object: `{"counters": {name: total, ...},
    /// "spans": {name: {count, total_ns}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", crate::json::quote(name));
        }
        s.push_str("},\"spans\":{");
        for (i, (name, count, ns)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ =
                write!(s, "{}:{{\"count\":{count},\"total_ns\":{ns}}}", crate::json::quote(name));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::MetricsSnapshot;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, Once};
    use std::time::Instant;

    /// Shards per counter: enough to keep an 8–16-worker run off shared
    /// cache lines without bloating every counter.
    const SHARDS: usize = 16;

    /// One cache line per cell so two workers' increments never share a
    /// line.
    #[repr(align(64))]
    #[derive(Debug)]
    struct Cell(AtomicU64);

    impl Cell {
        const fn new() -> Self {
            Cell(AtomicU64::new(0))
        }
    }

    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }

    fn shard() -> usize {
        THREAD_SHARD.with(|s| *s)
    }

    static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

    /// A monotone event counter, sharded across padded atomic cells.
    #[derive(Debug)]
    pub struct Counter {
        name: &'static str,
        registered: Once,
        cells: [Cell; SHARDS],
    }

    impl Counter {
        /// Declare a counter (use in a `static`).
        pub const fn new(name: &'static str) -> Self {
            Counter { name, registered: Once::new(), cells: [const { Cell::new() }; SHARDS] }
        }

        /// Add `n` to the calling thread's shard.
        #[inline]
        pub fn add(&'static self, n: u64) {
            self.registered.call_once(|| {
                COUNTERS.lock().expect("registry lock").push(self);
            });
            self.cells[shard()].0.fetch_add(n, Ordering::Relaxed);
        }

        /// Increment by one.
        #[inline]
        pub fn inc(&'static self) {
            self.add(1);
        }

        /// Sum over all shards.
        pub fn get(&self) -> u64 {
            self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
        }
    }

    /// A wall-clock stopwatch; pairs with counter `_ns` metrics.
    #[derive(Debug)]
    pub struct Stopwatch(Instant);

    impl Stopwatch {
        /// Start timing.
        #[inline]
        pub fn start() -> Self {
            Stopwatch(Instant::now())
        }

        /// Elapsed nanoseconds (saturating at `u64::MAX`).
        #[inline]
        pub fn ns(&self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    /// Snapshot every registered counter and span aggregate, sorted by
    /// name.
    pub fn snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: COUNTERS
                .lock()
                .expect("registry lock")
                .iter()
                .map(|c| (c.name.to_owned(), c.get()))
                .collect(),
            spans: crate::span::aggregates(),
        };
        snap.counters.sort();
        snap.spans.sort();
        snap
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::MetricsSnapshot;

    /// Disabled-build counter: every operation is an inlined no-op.
    #[derive(Debug)]
    pub struct Counter;

    impl Counter {
        /// No-op.
        pub const fn new(_name: &'static str) -> Self {
            Counter
        }

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn inc(&self) {}

        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// Disabled-build stopwatch: no clock read.
    #[derive(Debug)]
    pub struct Stopwatch;

    impl Stopwatch {
        /// No-op.
        #[inline(always)]
        pub fn start() -> Self {
            Stopwatch
        }

        /// Always zero.
        #[inline(always)]
        pub fn ns(&self) -> u64 {
            0
        }
    }

    /// Always empty.
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

pub use imp::{snapshot, Counter, Stopwatch};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn counter_shards_sum() {
        static C: Counter = Counter::new("test.metrics.counter_shards_sum");
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), 7);
        assert!(snapshot().counter("test.metrics.counter_shards_sum").unwrap() >= 7);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_ops_are_noops() {
        static C: Counter = Counter::new("noop");
        C.add(10);
        assert_eq!(C.get(), 0);
        assert_eq!(Stopwatch::start().ns(), 0);
        assert!(snapshot().counters.is_empty());
    }
}
