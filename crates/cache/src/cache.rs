//! Set-associative, LRU, tag-only cache model.
//!
//! Tags are stored flat: one `num_sets × assoc` slot array with a `u8`
//! length per set, each set's resident lines MRU-first at the front of
//! its slots. Set `s` occupies `slots[s * assoc..(s + 1) * assoc]`, and
//! the line and set of an address come from a shift and a mask (every
//! geometry is a power of two), so neither an access nor building a
//! warm cache allocates per set.

use crate::config::CacheConfig;

/// A line evicted by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block number (address / line size) of the victim.
    pub block: u64,
    /// Whether the victim was dirty (would cause a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    pub(crate) block: u64,
    pub(crate) dirty: bool,
}

impl Line {
    /// Filler for the unused slots of a set; never read as a line.
    const EMPTY: Line = Line { block: 0, dirty: false };
}

/// Serializable warm state of a cache: per-set lines in MRU-first order.
///
/// This is the representation embedded in live-points for structures
/// stored at a fixed configuration, and the output of
/// [`Csr::reconstruct`](crate::Csr::reconstruct).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheState {
    /// For each set, `(block_number, dirty)` in MRU-first order.
    pub sets: Vec<Vec<(u64, bool)>>,
}

impl CacheState {
    /// Total number of valid lines across all sets.
    pub fn line_count(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A set-associative cache with true-LRU replacement, modelling tags and
/// recency only (no data array — warming and timing never need values).
///
/// Statistics (hits/misses) accumulate until [`reset_stats`](Self::reset_stats).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    /// `num_sets × assoc` slots; set `s`'s lines are the first `lens[s]`
    /// of `slots[s * assoc..]`, MRU-first.
    slots: Vec<Line>,
    lens: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Create an empty (cold) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.num_sets() as usize;
        let assoc = config.assoc() as usize;
        Cache {
            config,
            line_shift: config.line_shift(),
            set_mask: config.num_sets() - 1,
            assoc,
            slots: vec![Line::EMPTY; n * assoc],
            lens: vec![0; n],
            hits: 0,
            misses: 0,
        }
    }

    /// Build a warm cache set by set: `fill(s, slots)` writes set `s`'s
    /// lines, MRU-first, to the front of its `assoc` slots and returns
    /// how many it wrote. This is the one writer behind [`from_state`]
    /// (Self::from_state) and [`Csr::reconstruct_cache`]
    /// (crate::Csr::reconstruct_cache).
    pub(crate) fn from_sets(
        config: CacheConfig,
        mut fill: impl FnMut(usize, &mut [Line]) -> usize,
    ) -> Self {
        let mut cache = Cache::new(config);
        let sets = cache.slots.chunks_exact_mut(cache.assoc).zip(&mut cache.lens);
        for (s, (lines, len)) in sets.enumerate() {
            // `CacheConfig` bounds the associativity to 255.
            *len = fill(s, lines) as u8;
        }
        cache
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The set holding `block`, and its resident lines (MRU-first).
    #[inline]
    fn lines_of(&self, block: u64) -> (usize, &[Line]) {
        let set = (block & self.set_mask) as usize;
        let base = set * self.assoc;
        (set, &self.slots[base..base + self.lens[set] as usize])
    }

    /// Access the line containing `addr`; returns `true` on hit.
    ///
    /// Misses allocate (any victim is silently dropped); use
    /// [`access_full`](Self::access_full) when the eviction matters.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.access_full(addr, write).0
    }

    /// Access the line containing `addr`; returns `(hit, eviction)`.
    pub fn access_full(&mut self, addr: u64, write: bool) -> (bool, Option<Eviction>) {
        let block = addr >> self.line_shift;
        let set = (block & self.set_mask) as usize;
        let len = self.lens[set] as usize;
        let base = set * self.assoc;
        let lines = &mut self.slots[base..base + self.assoc];

        if let Some(pos) = lines[..len].iter().position(|l| l.block == block) {
            let dirty = lines[pos].dirty | write;
            lines.copy_within(..pos, 1);
            lines[0] = Line { block, dirty };
            self.hits += 1;
            return (true, None);
        }

        self.misses += 1;
        let evicted = if len == self.assoc {
            let victim = lines[len - 1];
            lines.copy_within(..len - 1, 1);
            Some(Eviction { block: victim.block, dirty: victim.dirty })
        } else {
            lines.copy_within(..len, 1);
            self.lens[set] += 1;
            None
        };
        lines[0] = Line { block, dirty: write };
        (false, evicted)
    }

    /// Probe without updating recency or allocating; `true` if resident.
    ///
    /// Used by the timing model's wrong-path approximation, which must
    /// consult tags without perturbing state it does not own, and by
    /// tests.
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.lines_of(block).1.iter().any(|l| l.block == block)
    }

    /// Invalidate the line containing `addr` if resident; returns whether
    /// a line was removed.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let (set, lines) = self.lines_of(block);
        match lines.iter().position(|l| l.block == block) {
            Some(pos) => {
                let base = set * self.assoc;
                let len = lines.len();
                self.slots[base..base + len].copy_within(pos + 1.., pos);
                self.lens[set] -= 1;
                true
            }
            None => false,
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Zero the hit/miss counters (state is untouched).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Drop all lines (cold cache) and keep statistics.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }

    /// Export the warm state (tags + recency + dirty bits).
    pub fn to_state(&self) -> CacheState {
        CacheState {
            sets: self
                .slots
                .chunks_exact(self.assoc)
                .zip(&self.lens)
                .map(|(s, &len)| s[..len as usize].iter().map(|l| (l.block, l.dirty)).collect())
                .collect(),
        }
    }

    /// Build a cache with geometry `config` holding exactly `state`.
    ///
    /// Entries beyond the associativity and sets beyond the geometry are
    /// truncated; this makes loading a state saved from the same geometry
    /// lossless while remaining total on malformed input.
    pub fn from_state(config: CacheConfig, state: &CacheState) -> Self {
        Cache::from_sets(config, |s, lines| {
            let src = state.sets.get(s).map_or(&[][..], Vec::as_slice);
            for (line, &(block, dirty)) in lines.iter_mut().zip(src) {
                *line = Line { block, dirty };
            }
            src.len().min(lines.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, assoc: u32, line: u64) -> CacheConfig {
        CacheConfig::new(size, assoc, line).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(cfg(1024, 2, 32));
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x104, false), "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, everything maps to one set: use stride = sets*line.
        let c_cfg = cfg(1024, 2, 32); // 16 sets
        let stride = 16 * 32;
        let mut c = Cache::new(c_cfg);
        c.access(0, false); // A
        c.access(stride, false); // B  (set now B,A)
        c.access(0, false); // A hit (A,B)
        let (hit, ev) = c.access_full(2 * stride, false); // C evicts B
        assert!(!hit);
        assert_eq!(ev, Some(Eviction { block: c_cfg.block_of(stride), dirty: false }));
        assert!(c.probe(0));
        assert!(!c.probe(stride));
    }

    #[test]
    fn dirty_tracked_through_eviction() {
        let c_cfg = cfg(64, 1, 32); // 2 sets, direct mapped
        let mut c = Cache::new(c_cfg);
        c.access(0, true); // dirty write
        let (_, ev) = c.access_full(64, false); // same set (2 sets * 32B = 64)
        assert!(ev.unwrap().dirty);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(cfg(64, 1, 32));
        c.access(0, false);
        c.access(0, true); // hit, marks dirty
        let (_, ev) = c.access_full(64, false);
        assert!(ev.unwrap().dirty);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = Cache::new(cfg(1024, 2, 32));
        let stride = 16 * 32;
        c.access(0, false);
        c.access(stride, false);
        // Probing A must not refresh it:
        assert!(c.probe(0));
        let (_, ev) = c.access_full(2 * stride, false);
        // LRU victim is A (block 0) because probe didn't touch recency.
        assert_eq!(ev.unwrap().block, 0);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::new(cfg(1024, 2, 32));
        c.access(0x40, false);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn state_roundtrip_preserves_recency_and_dirty() {
        let c_cfg = cfg(2048, 4, 32);
        let mut c = Cache::new(c_cfg);
        for i in 0..200u64 {
            c.access(i * 40, i % 3 == 0);
        }
        let state = c.to_state();
        let restored = Cache::from_state(c_cfg, &state);
        assert_eq!(restored.to_state(), state);
        assert_eq!(restored.occupancy(), c.occupancy());
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(cfg(1024, 2, 32));
        c.access(0, false);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(0));
    }
}
