//! RAII span timing with a thread-local depth stack.
//!
//! Every closed span aggregates `(count, total_ns)` under its name —
//! surfaced in [`MetricsSnapshot`](crate::MetricsSnapshot) — and, when
//! the run stream is on ([`streaming`](crate::streaming)), appends one
//! JSON line to it:
//!
//! ```json
//! {"type":"span","name":"run.online","tid":2,"depth":1,"t_us":1234,"dur_us":56}
//! ```
//!
//! `t_us` is the span-open offset from the first telemetry event in the
//! process; `tid` is a small per-thread ordinal.

#[cfg(feature = "enabled")]
mod imp {
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    use crate::sink::{streaming, write};

    static AGGREGATES: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        static DEPTH: Cell<u32> = const { Cell::new(0) };
    }

    fn epoch() -> Instant {
        *EPOCH.get_or_init(Instant::now)
    }

    /// Microseconds since the first telemetry event in the process —
    /// the one timebase of every run-stream record.
    pub(crate) fn now_us() -> u64 {
        u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// An open span; closes (and records) on drop.
    #[derive(Debug)]
    pub struct Span {
        name: &'static str,
        open_us: u64,
        started: Instant,
        depth: u32,
    }

    /// Open a span named `name`.
    pub fn span(name: &'static str) -> Span {
        let started = Instant::now();
        let open_us =
            u64::try_from(started.duration_since(epoch()).as_micros()).unwrap_or(u64::MAX);
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span { name, open_us, started, depth }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            {
                let mut agg = AGGREGATES.lock().expect("span aggregates lock");
                let e = agg.entry(self.name).or_insert((0, 0));
                e.0 += 1;
                e.1 = e.1.wrapping_add(ns);
            }
            if streaming() {
                let tid = TID.with(|t| *t);
                write(format_args!(
                    "{{\"type\":\"span\",\"name\":{},\"tid\":{tid},\"depth\":{},\
                     \"t_us\":{},\"dur_us\":{}}}\n",
                    crate::json::quote(self.name),
                    self.depth,
                    self.open_us,
                    ns / 1000,
                ));
            }
        }
    }

    /// Span aggregates as `(name, count, total_ns)` rows.
    pub(crate) fn aggregates() -> Vec<(String, u64, u64)> {
        AGGREGATES
            .lock()
            .expect("span aggregates lock")
            .iter()
            .map(|(name, &(count, ns))| ((*name).to_owned(), count, ns))
            .collect()
    }

    pub(crate) fn reset_aggregates() {
        AGGREGATES.lock().expect("span aggregates lock").clear();
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    /// Disabled-build span: zero-sized, drop does nothing.
    #[derive(Debug)]
    pub struct Span;

    /// No-op.
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span
    }
}

pub use imp::{span, Span};

#[cfg(feature = "enabled")]
pub(crate) use imp::{aggregates, now_us, reset_aggregates};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_and_nest() {
        let _lock = crate::sink::test_lock();
        {
            let _outer = span("test.span.outer");
            let _inner = span("test.span.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let agg = imp::aggregates();
        let outer = agg.iter().find(|(n, _, _)| n == "test.span.outer").unwrap();
        assert!(outer.1 >= 1);
        assert!(outer.2 >= 1_000_000, "outer span slept ≥1ms, got {} ns", outer.2);
    }
}
