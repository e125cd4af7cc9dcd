//! Error type for cache-model construction and reconstruction.

use std::error::Error;
use std::fmt;

/// Errors from invalid cache/TLB geometry or unsupported reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A geometry parameter was zero or not a power of two, or an
    /// associativity exceeded 255.
    BadGeometry {
        /// Human-readable description of the offending parameter.
        what: &'static str,
    },
    /// Requested size is smaller than `assoc * line` (fewer than one set).
    TooSmall,
    /// A reconstruction target exceeds the bounds recorded at warm time.
    TargetExceedsBounds {
        /// Which bound was exceeded.
        what: &'static str,
    },
    /// A packed record's set lengths do not fit its geometry or its
    /// entries.
    BadRecord {
        /// Which part of the record is inconsistent.
        what: &'static str,
    },
    /// A reconstruction target uses a different line size than recorded.
    LineMismatch {
        /// Line size the record was built with.
        recorded: u64,
        /// Line size requested.
        requested: u64,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::BadGeometry { what } => {
                write!(
                    f,
                    "cache geometry parameter {what} must be a nonzero power of two \
                     (associativity at most 255)"
                )
            }
            CacheError::TooSmall => {
                write!(f, "cache size yields fewer than one set")
            }
            CacheError::TargetExceedsBounds { what } => {
                write!(f, "reconstruction target exceeds recorded bound: {what}")
            }
            CacheError::BadRecord { what } => {
                write!(f, "cache set record is inconsistent: {what}")
            }
            CacheError::LineMismatch { recorded, requested } => {
                write!(f, "reconstruction line size {requested} differs from recorded {recorded}")
            }
        }
    }
}

impl Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        for e in [
            CacheError::BadGeometry { what: "assoc" },
            CacheError::TooSmall,
            CacheError::TargetExceedsBounds { what: "size" },
            CacheError::BadRecord { what: "set length" },
            CacheError::LineMismatch { recorded: 32, requested: 64 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
