//! Cache geometry configuration.

use crate::error::CacheError;
use std::fmt;

/// The largest associativity a [`CacheConfig`] or
/// [`TlbConfig`](crate::TlbConfig) accepts: a set's length is one byte,
/// in live-point records and in [`Cache`](crate::Cache).
pub(crate) const MAX_ASSOC: u32 = 255;

/// Geometry of a set-associative cache: total size, associativity, and
/// line size. All three must be powers of two, so every index is a shift
/// or a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: u32,
    line_bytes: u64,
}

impl CacheConfig {
    /// Create a validated geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] if any parameter is zero or
    /// not a power of two, or if `assoc` exceeds 255 (a set's length is
    /// one byte, in live-point records and in [`Cache`](crate::Cache)),
    /// and [`CacheError::TooSmall`] if the size does not accommodate at
    /// least one full set.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Result<Self, CacheError> {
        if size_bytes == 0 || !size_bytes.is_power_of_two() {
            return Err(CacheError::BadGeometry { what: "size_bytes" });
        }
        if assoc == 0 || !assoc.is_power_of_two() || assoc > MAX_ASSOC {
            return Err(CacheError::BadGeometry { what: "assoc" });
        }
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(CacheError::BadGeometry { what: "line_bytes" });
        }
        if size_bytes < assoc as u64 * line_bytes {
            return Err(CacheError::TooSmall);
        }
        Ok(CacheConfig { size_bytes, assoc, line_bytes })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Ways per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Line (block) size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes >> (self.assoc.trailing_zeros() + self.line_shift())
    }

    /// Number of lines (blocks) in the cache.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// log2 of the line size: `addr >> line_shift()` is the block number.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Block number of `addr` (address divided by line size).
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift()
    }

    /// Set index for `addr`.
    #[inline]
    pub fn set_of(&self, addr: u64) -> u64 {
        self.block_of(addr) & (self.num_sets() - 1)
    }

    /// Whether `target` can be exactly reconstructed from warm state
    /// recorded at `self` as the maximum configuration: same line size,
    /// associativity and set count no larger, and target sets dividing
    /// the recorded sets (so folding is well defined).
    pub fn covers(&self, target: &CacheConfig) -> bool {
        self.line_bytes == target.line_bytes
            && target.assoc <= self.assoc
            && target.num_sets() <= self.num_sets()
            && self.num_sets().is_multiple_of(target.num_sets())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size >= 1 << 20 && size.is_multiple_of(1 << 20) {
            write!(f, "{}MB {}-way {}B-line", size >> 20, self.assoc, self.line_bytes)
        } else if size >= 1 << 10 {
            write!(f, "{}KB {}-way {}B-line", size >> 10, self.assoc, self.line_bytes)
        } else {
            write!(f, "{}B {}-way {}B-line", size, self.assoc, self.line_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometry() {
        let c = CacheConfig::new(32 * 1024, 2, 32).unwrap();
        assert_eq!(c.num_sets(), 512);
        assert_eq!(c.num_lines(), 1024);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheConfig::new(3000, 2, 32).is_err());
        assert!(CacheConfig::new(4096, 3, 32).is_err());
        assert!(CacheConfig::new(4096, 2, 48).is_err());
        assert!(CacheConfig::new(0, 2, 32).is_err());
    }

    #[test]
    fn rejects_assoc_beyond_one_byte() {
        assert_eq!(
            CacheConfig::new(1 << 20, 256, 32),
            Err(CacheError::BadGeometry { what: "assoc" })
        );
        assert_eq!(CacheConfig::new(1 << 20, 128, 32).unwrap().assoc(), 128);
    }

    #[test]
    fn rejects_too_small() {
        assert_eq!(CacheConfig::new(64, 4, 32), Err(CacheError::TooSmall));
    }

    #[test]
    fn set_index_and_block() {
        let c = CacheConfig::new(1024, 2, 32).unwrap(); // 16 sets
        assert_eq!(c.block_of(0x40), 2);
        assert_eq!(c.set_of(0x40), 2);
        assert_eq!(c.set_of(0x40 + 16 * 32), 2, "wraps around sets");
        for (size, assoc, line) in [(1u64 << 20, 4u32, 128u64), (4096, 1, 1)] {
            let c = CacheConfig::new(size, assoc, line).unwrap();
            assert_eq!(c.num_sets(), size / (assoc as u64 * line));
            for addr in [0u64, 127, 128, 0xDEAD_BEEF, u64::MAX] {
                assert_eq!(c.block_of(addr), addr / line);
                assert_eq!(c.set_of(addr), addr / line % c.num_sets());
            }
        }
    }

    #[test]
    fn covers_relation() {
        let max = CacheConfig::new(1 << 20, 4, 32).unwrap();
        let small = CacheConfig::new(1 << 15, 2, 32).unwrap();
        assert!(max.covers(&small));
        assert!(max.covers(&max));
        assert!(!small.covers(&max));
        let wrong_line = CacheConfig::new(1 << 15, 2, 64).unwrap();
        assert!(!max.covers(&wrong_line));
        // More sets than max even though smaller overall: 1MB direct-mapped
        // has 32768 sets vs max's 8192 — not coverable.
        let direct = CacheConfig::new(1 << 20, 1, 32).unwrap();
        assert!(!max.covers(&direct));
    }

    #[test]
    fn display_human_units() {
        assert_eq!(CacheConfig::new(1 << 20, 4, 128).unwrap().to_string(), "1MB 4-way 128B-line");
        assert_eq!(CacheConfig::new(32 << 10, 2, 32).unwrap().to_string(), "32KB 2-way 32B-line");
    }
}
