//! Cache Set Record (CSR) — adaptable warm cache state bounded by a
//! maximum configuration (Barr et al., ISPASS 2005; paper §4.3).
//!
//! A record is packed: one `Vec` of the occupied entries, set by set,
//! each set MRU-first, behind per-set start offsets. L2 records are
//! mostly empty (3–7 % of a 16-way 4 MB record's slots on gzip- and
//! gcc-like programs), so a slot array the size of the maximum geometry
//! would cost many times the entries themselves; the reconstructed
//! [`Cache`] is the slotted form.

use std::cmp::Reverse;

use crate::cache::{Cache, CacheState, Line};
use crate::config::CacheConfig;
use crate::error::CacheError;

/// One recorded line: block number, last-access time, dirty flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// Block number (address / line size).
    pub block: u64,
    /// Logical time (access counter) of the most recent access.
    pub last_access: u64,
    /// Whether the block has been written while resident.
    pub dirty: bool,
}

/// A *Cache Set Record*: a timestamp-annotated tag array for a
/// user-selected **maximum** cache configuration, recorded during
/// functional warming.
///
/// From a CSR one can exactly reconstruct the contents and LRU order of
/// any cache whose geometry the maximum [covers](CacheConfig::covers)
/// (same line size, sets dividing the recorded sets, associativity no
/// larger). This is the mechanism that lets a single live-point library
/// serve many cache configurations while costing only the *tag-array*
/// storage of the maximum configuration — the key storage-vs-reusability
/// trade of checkpointed warming.
///
/// Dirty flags are carried through reconstruction as an approximation:
/// the target cache's fill times are unknowable from recency alone, so a
/// block is marked dirty in the target if it was dirty under the maximum
/// configuration. Contents and LRU order are exact.
///
/// # Example
///
/// ```
/// use spectral_cache::{Csr, CacheConfig};
///
/// let max = CacheConfig::new(1 << 20, 4, 32)?;   // record up to 1MB/4-way
/// let mut csr = Csr::new(max);
/// for addr in (0..10_000u64).map(|i| i * 32) {
///     csr.record(addr, false);
/// }
/// // The record holds only the lines it saw, set by set, MRU-first.
/// assert_eq!(csr.entry_count(), 10_000);
/// assert_eq!(csr.sets().len(), 8192);
/// let small = CacheConfig::new(32 << 10, 2, 32)?; // simulate 32KB/2-way
/// let cache = csr.reconstruct_cache(&small)?;
/// assert_eq!(cache.occupancy(), 1024);
/// # Ok::<(), spectral_cache::CacheError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    max: CacheConfig,
    clock: u64,
    /// Occupied entries, set by set, each set MRU-first and at most the
    /// maximum associativity long.
    entries: Vec<CsrEntry>,
    /// `entries[starts[s]..starts[s + 1]]` is set `s`; `num_sets + 1`
    /// offsets.
    starts: Vec<u32>,
}

impl Csr {
    /// Create an empty record bounded by `max`.
    pub fn new(max: CacheConfig) -> Self {
        let n = max.num_sets() as usize;
        Csr { max, clock: 0, entries: Vec::new(), starts: vec![0; n + 1] }
    }

    /// Rebuild a record from its packed form: `entries` holds, in set
    /// order, `set_lens[s]` entries of set `s`, each set MRU-first. The
    /// clock resumes at the largest recorded timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadRecord`] unless `set_lens` has one length
    /// per set of `max`, each at most its associativity, summing to
    /// `entries.len()`.
    pub fn from_packed(
        max: CacheConfig,
        set_lens: &[u8],
        entries: Vec<CsrEntry>,
    ) -> Result<Self, CacheError> {
        if set_lens.len() as u64 != max.num_sets() {
            return Err(CacheError::BadRecord { what: "set count" });
        }
        let mut starts = Vec::with_capacity(set_lens.len() + 1);
        let mut at = 0u32;
        starts.push(at);
        for &len in set_lens {
            if u32::from(len) > max.assoc() {
                return Err(CacheError::BadRecord { what: "set length" });
            }
            at = at.checked_add(len.into()).ok_or(CacheError::BadRecord { what: "entry count" })?;
            starts.push(at);
        }
        if at as usize != entries.len() {
            return Err(CacheError::BadRecord { what: "entry count" });
        }
        let clock = entries.iter().map(|e| e.last_access).max().unwrap_or(0);
        Ok(Csr { max, clock, entries, starts })
    }

    /// The maximum configuration this record can reconstruct up to.
    pub fn max_config(&self) -> &CacheConfig {
        &self.max
    }

    /// Record an access to the line containing `addr`, exactly as the
    /// maximum-configuration cache would process it.
    ///
    /// A miss in a set that is not yet full inserts into the packed
    /// entries, which moves the later sets up by one; a record's life
    /// holds at most one insert per line of the maximum geometry.
    pub fn record(&mut self, addr: u64, write: bool) {
        self.clock += 1;
        let block = self.max.block_of(addr);
        let s = (block & (self.max.num_sets() - 1)) as usize;
        let (start, end) = (self.starts[s] as usize, self.starts[s + 1] as usize);
        let set = &mut self.entries[start..end];
        let mut entry = CsrEntry { block, last_access: self.clock, dirty: write };
        if let Some(pos) = set.iter().position(|e| e.block == block) {
            entry.dirty |= set[pos].dirty;
            set.copy_within(..pos, 1);
            set[0] = entry;
        } else if set.len() == self.max.assoc() as usize {
            set.copy_within(..set.len() - 1, 1);
            set[0] = entry;
        } else {
            self.entries.insert(start, entry);
            for at in &mut self.starts[s + 1..] {
                *at += 1;
            }
        }
    }

    /// Number of recorded lines.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Logical time of the most recent recorded access.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Set `s`'s entries, MRU-first.
    fn set(&self, s: usize) -> &[CsrEntry] {
        &self.entries[self.starts[s] as usize..self.starts[s + 1] as usize]
    }

    /// Every set's entries, in set order, each MRU-first.
    pub fn sets(&self) -> impl ExactSizeIterator<Item = &[CsrEntry]> + '_ {
        self.starts.windows(2).map(|w| &self.entries[w[0] as usize..w[1] as usize])
    }

    /// Reconstruct the warm state of a cache with geometry `target`:
    /// `reconstruct_cache(target)?.to_state()`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`reconstruct_cache`](Self::reconstruct_cache).
    pub fn reconstruct(&self, target: &CacheConfig) -> Result<CacheState, CacheError> {
        Ok(self.reconstruct_cache(target)?.to_state())
    }

    /// Reconstruct a warm [`Cache`] with geometry `target`: contents,
    /// LRU order and dirty flags. Recorded set `s` folds into target set
    /// `s % target_sets`; each target set takes the most recent
    /// `target.assoc()` of its entries, ordered by a stable sort on
    /// descending last-access time. This is the hot path of per-point
    /// hierarchy reconstruction: it writes the target's slots once,
    /// through one reused scratch buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::LineMismatch`] for a different line size and
    /// [`CacheError::TargetExceedsBounds`] when the target is larger or
    /// more associative than the recorded maximum (or its set count does
    /// not divide the maximum's).
    pub fn reconstruct_cache(&self, target: &CacheConfig) -> Result<Cache, CacheError> {
        self.check_target(target)?;
        let t_sets = target.num_sets() as usize;
        let mut scratch: Vec<CsrEntry> = Vec::new();
        Ok(Cache::from_sets(*target, |t, lines| {
            scratch.clear();
            for s in (t..self.starts.len() - 1).step_by(t_sets) {
                scratch.extend_from_slice(self.set(s));
            }
            scratch.sort_by_key(|e| Reverse(e.last_access));
            for (line, e) in lines.iter_mut().zip(&scratch) {
                *line = Line { block: e.block, dirty: e.dirty };
            }
            scratch.len().min(lines.len())
        }))
    }

    fn check_target(&self, target: &CacheConfig) -> Result<(), CacheError> {
        if target.line_bytes() != self.max.line_bytes() {
            return Err(CacheError::LineMismatch {
                recorded: self.max.line_bytes(),
                requested: target.line_bytes(),
            });
        }
        if !self.max.covers(target) {
            return Err(CacheError::TargetExceedsBounds { what: "size or associativity" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;

    fn cfg(size: u64, assoc: u32, line: u64) -> CacheConfig {
        CacheConfig::new(size, assoc, line).unwrap()
    }

    /// Drive a CSR and a directly-simulated cache with the same stream;
    /// reconstruction must match content and LRU order exactly.
    fn check_equivalence(max: CacheConfig, target: CacheConfig, stream: &[(u64, bool)]) {
        let mut csr = Csr::new(max);
        let mut direct = Cache::new(target);
        for &(addr, write) in stream {
            csr.record(addr, write);
            direct.access(addr, write);
        }
        let reconstructed = csr.reconstruct(&target).unwrap();
        let direct_state = direct.to_state();
        let blocks = |s: &CacheState| -> Vec<Vec<u64>> {
            s.sets.iter().map(|v| v.iter().map(|&(b, _)| b).collect()).collect()
        };
        assert_eq!(blocks(&reconstructed), blocks(&direct_state));
    }

    #[test]
    fn reconstruct_same_config_is_identity() {
        let max = cfg(4096, 4, 32);
        let stream: Vec<(u64, bool)> =
            (0..500u64).map(|i| (i.wrapping_mul(2654435761) % 65536, i % 4 == 0)).collect();
        check_equivalence(max, max, &stream);
    }

    #[test]
    fn reconstruct_smaller_and_less_associative() {
        let max = cfg(1 << 16, 4, 32);
        let stream: Vec<(u64, bool)> =
            (0..3000u64).map(|i| (i.wrapping_mul(0x9E3779B9) % (1 << 18), i % 5 == 0)).collect();
        check_equivalence(max, cfg(1 << 13, 2, 32), &stream);
        check_equivalence(max, cfg(1 << 12, 1, 32), &stream);
        // Same set count as max (1<<15 / 2-way = 512 sets), lower assoc.
        check_equivalence(max, cfg(1 << 15, 2, 32), &stream);
    }

    #[test]
    fn rejects_larger_target() {
        let csr = Csr::new(cfg(4096, 2, 32));
        assert!(matches!(
            csr.reconstruct(&cfg(8192, 2, 32)),
            Err(CacheError::TargetExceedsBounds { .. })
        ));
        assert!(matches!(
            csr.reconstruct(&cfg(4096, 4, 32)),
            Err(CacheError::TargetExceedsBounds { .. })
        ));
    }

    #[test]
    fn rejects_line_mismatch() {
        let csr = Csr::new(cfg(4096, 2, 32));
        assert!(matches!(csr.reconstruct(&cfg(2048, 2, 64)), Err(CacheError::LineMismatch { .. })));
    }

    #[test]
    fn packed_roundtrip() {
        let max = cfg(4096, 2, 32);
        let mut csr = Csr::new(max);
        for i in 0..100u64 {
            csr.record(i * 96, i % 2 == 0);
        }
        let lens: Vec<u8> = csr.sets().map(|s| s.len() as u8).collect();
        let entries: Vec<CsrEntry> = csr.sets().flatten().copied().collect();
        let restored = Csr::from_packed(max, &lens, entries).unwrap();
        assert_eq!(restored, csr);
        assert_eq!(restored.clock(), csr.clock());
        assert_eq!(restored.reconstruct(&max).unwrap(), csr.reconstruct(&max).unwrap());
    }

    #[test]
    fn from_packed_rejects_inconsistent_lengths() {
        let max = cfg(128, 2, 32); // 2 sets
        let e = CsrEntry { block: 0, last_access: 1, dirty: false };
        let bad = |what| Err(CacheError::BadRecord { what });
        assert_eq!(Csr::from_packed(max, &[1], vec![e]), bad("set count"));
        assert_eq!(Csr::from_packed(max, &[3, 0], vec![e; 3]), bad("set length"));
        assert_eq!(Csr::from_packed(max, &[1, 1], vec![e]), bad("entry count"));
        assert!(Csr::from_packed(max, &[0, 2], vec![e; 2]).is_ok());
    }

    #[test]
    fn bounded_storage() {
        let max = cfg(4096, 2, 32); // 128 lines max
        let mut csr = Csr::new(max);
        for i in 0..10_000u64 {
            csr.record(i * 32, false);
        }
        assert!(csr.entry_count() <= 128);
    }
}
