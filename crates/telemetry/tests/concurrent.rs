//! Concurrency guarantees: sharded counters lose no increments under
//! thread contention, and a snapshot taken mid-run is a valid partial
//! view.

#![cfg(feature = "enabled")]

use std::thread;

use spectral_telemetry::{snapshot, Counter};

static HAMMERED: Counter = Counter::new("test.concurrent.hammered");

#[test]
fn counter_exact_under_contention() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let before = HAMMERED.get();
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    HAMMERED.inc();
                }
            });
        }
    });
    assert_eq!(HAMMERED.get() - before, THREADS * PER_THREAD);
    assert_eq!(snapshot().counter("test.concurrent.hammered"), Some(HAMMERED.get()));
}

#[test]
fn snapshot_while_writers_run_is_consistent() {
    static LIVE: Counter = Counter::new("test.concurrent.live");
    thread::scope(|s| {
        let writer = s.spawn(|| {
            for _ in 0..100_000 {
                LIVE.inc();
            }
        });
        // Snapshots taken mid-run must never exceed the final total and
        // must be monotonically readable.
        let mut last = 0;
        while !writer.is_finished() {
            let now = snapshot().counter("test.concurrent.live").unwrap_or(0);
            assert!(now >= last, "snapshot went backwards: {last} -> {now}");
            last = now;
        }
    });
    assert!(LIVE.get() >= 100_000);
}
