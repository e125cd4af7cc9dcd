//! Chunk claiming, decode-ahead prefetch and the index-ordered row log
//! behind the run driver.
//!
//! Live-points are independent, so the paper's "process in any order,
//! in parallel" guarantee (§6) leaves the assignment of points to
//! workers up to us: workers claim contiguous chunks from a
//! [`ChunkCursor`], decode a few points ahead of simulation in a
//! [`PrefetchRing`], and log their rows per chunk in a [`ChunkLog`],
//! whose index-ordered replay makes the estimate the same at every
//! thread count. Steals, chunk sizes, ring occupancy and busy/idle
//! time land in the `core.sched.*` metrics.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spectral_telemetry::{Counter, Histogram, ProfilePhase, WorkerTimeline};

use crate::error::CoreError;
use crate::library::{DecodeScratch, LivePointLibrary};
use crate::livepoint::LivePoint;
use crate::runner::decode_point;

// Scheduler metrics; no-ops without the `telemetry` feature.
static TLM_STEALS: Counter = Counter::new("core.sched.steals");
static TLM_CHUNKS: Counter = Counter::new("core.sched.chunks");
static TLM_CHUNK_POINTS: Histogram = Histogram::new("core.sched.chunk_points");
static TLM_STEALS_PER_WORKER: Histogram = Histogram::new("core.sched.steals_per_worker");
static TLM_PREFETCH_OCCUPANCY: Histogram = Histogram::new("core.sched.prefetch_occupancy");
static TLM_BUSY_NS: Counter = Counter::new("core.sched.busy_ns");
static TLM_IDLE_NS: Counter = Counter::new("core.sched.idle_ns");

/// Shared atomic chunk cursor: carves `0..limit` into contiguous,
/// non-overlapping chunks claimed by competing workers.
///
/// The first `threads` chunks are pre-assigned (worker `w` owns
/// `[w·base, (w+1)·base)`), so every worker participates even when one
/// lane races ahead; the rest are claimed dynamically. Claims tile the
/// index space exactly once, whatever the interleaving or resizing.
#[derive(Debug)]
pub struct ChunkCursor {
    limit: usize,
    base: usize,
    /// Current adaptive chunk size for dynamic claims.
    chunk: AtomicUsize,
    /// Next unclaimed index (starts past the pre-assigned chunks).
    cursor: AtomicUsize,
}

impl ChunkCursor {
    /// A cursor over `0..limit` for `threads` workers with base chunk
    /// size `chunk`. The base is clamped to `limit / threads` (min 1)
    /// so each worker's pre-assigned first chunk is non-empty.
    pub fn new(limit: usize, threads: usize, chunk: usize) -> Self {
        let threads = threads.clamp(1, limit.max(1));
        let base = chunk.max(1).min((limit / threads).max(1));
        ChunkCursor {
            limit,
            base,
            chunk: AtomicUsize::new(base),
            cursor: AtomicUsize::new((threads * base).min(limit)),
        }
    }

    /// Base (maximum) chunk size after clamping.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Worker `w`'s pre-assigned first chunk: `[w·base, (w+1)·base)`.
    pub fn first(&self, worker: usize) -> Range<usize> {
        let start = (worker * self.base).min(self.limit);
        start..(start + self.base).min(self.limit)
    }

    /// Claim the next unowned chunk (a steal from the shared tail), or
    /// `None` once the index space is exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        let size = self.chunk.load(Ordering::Relaxed).max(1);
        let start = self.cursor.fetch_add(size, Ordering::Relaxed);
        if start >= self.limit {
            return None;
        }
        Some(start..(start + size).min(self.limit))
    }

    /// Adapt the dynamic chunk size to the run's distance from its
    /// confidence target: full base size while the relative half-width
    /// is at least twice the target, shrinking linearly to a single
    /// point as it closes in.
    pub fn note_rel_error(&self, rel_half_width: f64, target: f64) {
        if !(rel_half_width.is_finite() && target > 0.0) {
            return;
        }
        let ratio = rel_half_width / target;
        let size = if ratio >= 2.0 {
            self.base
        } else {
            // ratio in (−∞, 2): one base-sized chunk of headroom maps
            // linearly onto [1, base].
            ((self.base as f64 * (ratio - 1.0)).ceil()).clamp(1.0, self.base as f64) as usize
        };
        self.chunk.store(size, Ordering::Relaxed);
    }
}

/// A worker's source of index chunks: its pre-assigned first chunk,
/// then steals from the shared cursor (counted for telemetry).
pub(crate) struct WorkQueue<'a> {
    cursor: &'a ChunkCursor,
    worker: usize,
    first: bool,
    steals: u64,
}

impl<'a> WorkQueue<'a> {
    pub fn new(cursor: &'a ChunkCursor, worker: usize) -> Self {
        WorkQueue { cursor, worker, first: true, steals: 0 }
    }

    /// The worker's next chunk (timed as the `claim` phase), or `None`
    /// when the library is exhausted.
    pub fn next_chunk(&mut self, tl: &mut WorkerTimeline) -> Option<Range<usize>> {
        let _claim = tl.enter(ProfilePhase::Claim);
        let chunk = if self.first {
            self.first = false;
            self.cursor.first(self.worker)
        } else {
            let chunk = self.cursor.claim()?;
            self.steals += 1;
            TLM_STEALS.inc();
            chunk
        };
        if chunk.is_empty() {
            return None;
        }
        TLM_CHUNKS.inc();
        TLM_CHUNK_POINTS.record(chunk.len() as u64);
        Some(chunk)
    }

    /// Close out the worker's scheduling telemetry (steal histogram).
    pub fn finish(&self) {
        TLM_STEALS_PER_WORKER.record(self.steals);
    }
}

/// Record a worker's wall-clock split: `busy` decoding + simulating,
/// the rest of `wall` idle.
pub(crate) fn note_worker_time(busy_ns: u64, wall_ns: u64) {
    TLM_BUSY_NS.add(busy_ns);
    TLM_IDLE_NS.add(wall_ns.saturating_sub(busy_ns));
}

/// Bounded per-worker ring of pre-decoded live-points: decode runs up
/// to `depth` points ahead of detailed simulation within the current
/// chunk.
pub(crate) struct PrefetchRing {
    ring: VecDeque<(Arc<LivePoint>, u64)>,
    depth: usize,
}

impl PrefetchRing {
    /// A ring decoding up to `depth` points ahead (`0` behaves as `1`:
    /// decode-on-demand).
    pub fn new(depth: usize) -> Self {
        PrefetchRing { ring: VecDeque::with_capacity(depth.max(1)), depth: depth.max(1) }
    }

    /// Top the ring up from the front of `pending` (the chunk's
    /// undecoded, unrestored remainder, in index order). On an empty
    /// ring the first decode stalls the simulator (`prefetch_wait`);
    /// later ones are decode-ahead work (`decode`).
    pub fn fill(
        &mut self,
        library: &LivePointLibrary,
        pending: &mut impl Iterator<Item = usize>,
        scratch: &mut DecodeScratch,
        tl: &mut WorkerTimeline,
    ) -> Result<(), CoreError> {
        let mut stalled = self.ring.is_empty();
        while self.ring.len() < self.depth {
            let Some(index) = pending.next() else { break };
            let decoded = decode_point(library, index, scratch)?;
            let phase = if stalled { ProfilePhase::PrefetchWait } else { ProfilePhase::Decode };
            tl.note(phase, decoded.1);
            stalled = false;
            self.ring.push_back(decoded);
        }
        TLM_PREFETCH_OCCUPANCY.record(self.ring.len() as u64);
        Ok(())
    }

    /// The oldest pre-decoded point `(live-point, decode_ns)`.
    pub fn pop(&mut self) -> Option<(Arc<LivePoint>, u64)> {
        self.ring.pop_front()
    }
}

/// Per-chunk row log: each claimed chunk's rows in index order, keyed
/// by the chunk's start. Chunks are disjoint, so sorting all workers'
/// logs by start reproduces the serial push sequence exactly.
#[derive(Default)]
pub(crate) struct ChunkLog {
    chunks: Vec<(usize, Vec<f64>)>,
}

impl ChunkLog {
    /// Open a log segment for the chunk starting at `start`.
    pub fn begin(&mut self, start: usize, capacity: usize) {
        self.chunks.push((start, Vec::with_capacity(capacity)));
    }

    /// Append one row to the current chunk's segment.
    pub fn push(&mut self, row: &[f64]) {
        self.chunks.last_mut().expect("begin() opens a segment before push()").1.extend(row);
    }

    /// Concatenate per-worker logs into one row stream in ascending
    /// index order (the fixed reduction order).
    pub fn into_ordered(logs: Vec<ChunkLog>) -> Vec<f64> {
        let mut chunks: Vec<(usize, Vec<f64>)> = logs.into_iter().flat_map(|l| l.chunks).collect();
        chunks.sort_by_key(|&(start, _)| start);
        chunks.into_iter().flat_map(|(_, rows)| rows).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claimed_indices(cursor: &ChunkCursor, threads: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        for w in 0..threads {
            seen.extend(cursor.first(w));
        }
        while let Some(chunk) = cursor.claim() {
            seen.extend(chunk);
        }
        seen
    }

    #[test]
    fn chunks_tile_the_index_space_exactly_once() {
        for (limit, threads, chunk) in
            [(35, 4, 8), (24, 4, 8), (1, 1, 8), (7, 8, 3), (100, 3, 1), (64, 2, 64)]
        {
            let cursor = ChunkCursor::new(limit, threads, chunk);
            let mut seen = claimed_indices(&cursor, threads.min(limit));
            seen.sort_unstable();
            let expected: Vec<usize> = (0..limit).collect();
            assert_eq!(seen, expected, "limit {limit} threads {threads} chunk {chunk}");
        }
    }

    #[test]
    fn every_worker_gets_a_nonempty_first_chunk() {
        // 35 points, 4 workers, oversized chunk request: the base is
        // clamped so all four pre-assigned chunks are non-empty.
        let cursor = ChunkCursor::new(35, 4, 64);
        assert_eq!(cursor.base(), 8);
        for w in 0..4 {
            assert!(!cursor.first(w).is_empty(), "worker {w} starved");
        }
    }

    #[test]
    fn chunk_size_shrinks_near_the_target() {
        let cursor = ChunkCursor::new(1000, 2, 32);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(32));
        // Far from target: full base size.
        cursor.note_rel_error(0.30, 0.03);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(32));
        // Half-way into the last doubling: linear shrink.
        cursor.note_rel_error(0.045, 0.03);
        let mid = cursor.claim().map(|c| c.len()).unwrap();
        assert!((1..32).contains(&mid), "mid-range chunk {mid}");
        // At (or past) the target: single points.
        cursor.note_rel_error(0.03, 0.03);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(1));
        // Degenerate inputs leave the size untouched.
        cursor.note_rel_error(f64::NAN, 0.03);
        cursor.note_rel_error(0.5, 0.0);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(1));
    }

    #[test]
    fn chunk_log_replays_in_index_order() {
        let mut a = ChunkLog::default();
        a.begin(8, 4);
        a.push(&[80.0]);
        a.push(&[81.0]);
        let mut b = ChunkLog::default();
        b.begin(0, 4);
        b.push(&[0.0]);
        b.push(&[1.0]);
        b.begin(12, 4);
        b.push(&[120.0]);
        let ordered = ChunkLog::into_ordered(vec![a, b]);
        assert_eq!(ordered, vec![0.0, 1.0, 80.0, 81.0, 120.0]);
    }
}
