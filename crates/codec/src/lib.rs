//! # spectral-codec — live-point wire formats
//!
//! The paper stores live-points in ASN.1 DER with gzip compression
//! ("We encode live-points using ASN.1 DER format and gzip compression,
//! which incur minimal storage and processing time overhead", §3).
//! Neither an ASN.1 library nor a gzip binding is available in this
//! environment, so this crate implements both substrates from scratch:
//!
//! * [`DerWriter`] / [`DerReader`] — a subset of X.690 Distinguished
//!   Encoding Rules: `INTEGER`, `BOOLEAN`, `OCTET STRING`, `UTF8String`,
//!   and definite-length `SEQUENCE`, with canonical minimal lengths,
//! * [`lzss`] — an LZ77-family byte compressor standing in for gzip
//!   (documented substitution; ratios on tag/predictor state are in the
//!   same ~4–6:1 band the paper reports for gzip),
//! * [`crc32`] — IEEE CRC-32 (slicing-by-8) integrity checks for container
//!   frames,
//! * [`Container`] — library format v1, the shuffled single-stream file
//!   recommended in §6.1 ("stored in a single compressed file to
//!   maximize I/O performance"), which libraries now read as legacy
//!   input only,
//! * [`paged`] — library format v2: a footer-indexed paged container
//!   with O(1) positioned record reads and block-shared LZSS
//!   dictionaries, the one format libraries serve records from
//!   ([`sniff_version`] dispatches between v1 and v2).
//!
//! ## Example: encode, compress, round-trip
//!
//! ```
//! use spectral_codec::{DerWriter, DerReader, lzss};
//!
//! let mut w = DerWriter::new();
//! w.seq(|w| {
//!     w.u64(1234);
//!     w.bytes(b"warm state");
//! });
//! let encoded = w.finish();
//! let packed = lzss::compress(&encoded);
//! let unpacked = lzss::decompress(&packed)?;
//! let mut r = DerReader::new(&unpacked);
//! let mut s = r.seq()?;
//! assert_eq!(s.u64()?, 1234);
//! assert_eq!(s.bytes()?, b"warm state");
//! # Ok::<(), spectral_codec::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
pub mod crc32;
mod der;
mod error;
pub mod lzss;
pub mod paged;
pub mod varint;

pub use container::{sniff_version, Container, ContainerReader, ContainerWriter};
pub use der::{DerReader, DerWriter};
pub use error::CodecError;
