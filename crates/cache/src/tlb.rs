//! TLB model — a set-associative structure at page granularity.

use crate::cache::{Cache, CacheState};
use crate::config::{CacheConfig, MAX_ASSOC};
use crate::error::CacheError;

/// Geometry of a TLB: entry count, associativity, and page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    entries: u32,
    assoc: u32,
    page_bytes: u64,
}

impl TlbConfig {
    /// Create a validated TLB geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] if any parameter is zero or
    /// not a power of two, or if `assoc` exceeds 255 (a set's length is
    /// one byte, as for [`CacheConfig`]), and [`CacheError::TooSmall`] if
    /// `assoc > entries`.
    pub fn new(entries: u32, assoc: u32, page_bytes: u64) -> Result<Self, CacheError> {
        if entries == 0 || !entries.is_power_of_two() {
            return Err(CacheError::BadGeometry { what: "entries" });
        }
        if assoc == 0 || !assoc.is_power_of_two() || assoc > MAX_ASSOC {
            return Err(CacheError::BadGeometry { what: "assoc" });
        }
        if page_bytes == 0 || !page_bytes.is_power_of_two() {
            return Err(CacheError::BadGeometry { what: "page_bytes" });
        }
        if assoc > entries {
            return Err(CacheError::TooSmall);
        }
        Ok(TlbConfig { entries, assoc, page_bytes })
    }

    /// Total entry count.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Ways per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    fn as_cache_config(&self) -> CacheConfig {
        // A TLB is a cache of page translations: size = entries * page.
        CacheConfig::new(self.entries as u64 * self.page_bytes, self.assoc, self.page_bytes)
            .expect("validated TLB geometry maps to a valid cache geometry")
    }
}

/// Serializable warm TLB state (per-set MRU-ordered page numbers).
pub type TlbState = CacheState;

/// A set-associative, LRU TLB.
///
/// Internally a [`Cache`] whose "line size" is the page size, which gives
/// TLBs the same warm-state snapshot/restore and CSR-reconstruction
/// machinery as caches (the paper treats TLBs as cache-like structures
/// with adaptable stored state).
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    inner: Cache,
}

impl Tlb {
    /// Create an empty (cold) TLB.
    pub fn new(config: TlbConfig) -> Self {
        Tlb { config, inner: Cache::new(config.as_cache_config()) }
    }

    /// The TLB's geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Look up the page containing `addr`; returns `true` on TLB hit and
    /// installs the translation on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr, false)
    }

    /// Probe without perturbing recency.
    pub fn probe(&self, addr: u64) -> bool {
        self.inner.probe(addr)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Zero the statistics counters.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Number of resident translations.
    pub fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    /// Export warm state.
    pub fn to_state(&self) -> TlbState {
        self.inner.to_state()
    }

    /// Restore warm state into a fresh TLB of geometry `config`.
    pub fn from_state(config: TlbConfig, state: &TlbState) -> Self {
        Tlb { config, inner: Cache::from_state(config.as_cache_config(), state) }
    }

    /// Wrap an already-warm page-granularity cache as a TLB (the direct
    /// CSR-reconstruction path).
    ///
    /// # Panics
    ///
    /// Panics when `inner`'s geometry is not `config`'s cache view.
    pub fn from_warm_cache(config: TlbConfig, inner: Cache) -> Self {
        assert_eq!(
            *inner.config(),
            config.as_cache_config(),
            "warm cache geometry must match the TLB's cache view"
        );
        Tlb { config, inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dtlb_geometry() {
        // Table 1: 4-way 256-entry DTLB.
        let t = TlbConfig::new(256, 4, 4096).unwrap();
        assert_eq!(t.entries(), 256);
        let tlb = Tlb::new(t);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn miss_then_hit_same_page() {
        let mut tlb = Tlb::new(TlbConfig::new(16, 4, 4096).unwrap());
        assert!(!tlb.access(0x1000));
        assert!(tlb.access(0x1FF8), "same page");
        assert!(!tlb.access(0x2000), "next page");
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn rejects_assoc_beyond_entries() {
        assert!(TlbConfig::new(4, 8, 4096).is_err());
    }

    #[test]
    fn rejects_assoc_beyond_one_byte() {
        assert_eq!(TlbConfig::new(256, 256, 4096), Err(CacheError::BadGeometry { what: "assoc" }));
        assert!(TlbConfig::new(256, 128, 4096).is_ok());
    }

    #[test]
    fn state_roundtrip() {
        let cfg = TlbConfig::new(32, 4, 4096).unwrap();
        let mut tlb = Tlb::new(cfg);
        for i in 0..100u64 {
            tlb.access(i * 8192);
        }
        let state = tlb.to_state();
        let restored = Tlb::from_state(cfg, &state);
        assert_eq!(restored.to_state(), state);
    }
}
