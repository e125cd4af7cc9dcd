//! The single-stream container format (library format v1).
//!
//! A container is a single byte stream holding an ordered sequence of
//! compressed, CRC-protected records — the "single compressed file"
//! arrangement the paper recommends for shuffled live-point libraries
//! (§6.1). Libraries read it as legacy input only, re-framing its
//! records into the paged v2 format ([`crate::paged`]). Layout:
//!
//! ```text
//! magic "SPLP" | version u16 LE | count u32 LE
//! then per record:
//!   compressed_len u32 LE | crc32(compressed) u32 LE | compressed bytes
//! ```
//!
//! Records are individually LZSS-compressed so they remain independently
//! loadable — the property that makes random-order and parallel
//! processing possible.

use crate::crc32;
use crate::error::CodecError;
use crate::lzss;

pub(crate) const MAGIC: &[u8; 4] = b"SPLP";
const VERSION: u16 = 1;

/// Read the shared container magic and format version from a file
/// prefix without committing to a layout — the version-dispatch point
/// between the monolithic v1 container and the paged v2 container
/// ([`crate::paged`]).
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when fewer than 6 bytes are given
/// and [`CodecError::BadContainer`] on a bad magic.
pub fn sniff_version(prefix: &[u8]) -> Result<u16, CodecError> {
    if prefix.len() < 6 {
        return Err(CodecError::Truncated);
    }
    if &prefix[..4] != MAGIC {
        return Err(CodecError::BadContainer);
    }
    Ok(u16::from_le_bytes([prefix[4], prefix[5]]))
}

/// Build a container in memory, one record at a time.
///
/// Frames stream straight into the output buffer as they are pushed —
/// no per-record copies are retained; [`finish`](Self::finish) only
/// patches the record count into the header.
#[derive(Debug, Clone)]
pub struct ContainerWriter {
    out: Vec<u8>,
    count: u32,
}

impl Default for ContainerWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ContainerWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // count, patched in finish()
        ContainerWriter { out, count: 0 }
    }

    /// Append one record (uncompressed payload; compression happens
    /// here).
    pub fn push(&mut self, payload: &[u8]) {
        let compressed = lzss::compress(payload);
        self.push_compressed(&compressed);
    }

    /// Append a record that is already LZSS-compressed (as produced by
    /// [`lzss::compress`]) — avoids a decompress/recompress round trip
    /// when archiving records held compressed in memory. The bytes are
    /// framed directly into the output stream; the caller keeps
    /// ownership of its buffer.
    pub fn push_compressed(&mut self, compressed: &[u8]) {
        self.out.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&crc32::checksum(compressed).to_le_bytes());
        self.out.extend_from_slice(compressed);
        self.count += 1;
    }

    /// Number of records appended.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Serialize the container.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.out;
        out[6..10].copy_from_slice(&self.count.to_le_bytes());
        out
    }
}

/// Decode a container, iterating records in stored order.
#[derive(Debug, Clone)]
pub struct ContainerReader<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u32,
    index: usize,
}

impl<'a> ContainerReader<'a> {
    /// Open a container over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadContainer`] on a bad magic or version and
    /// [`CodecError::Truncated`] on short input.
    pub fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < 10 {
            return Err(CodecError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(CodecError::BadContainer);
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(CodecError::BadContainer);
        }
        let count = u32::from_le_bytes([data[6], data[7], data[8], data[9]]);
        Ok(ContainerReader { data, pos: 10, remaining: count, index: 0 })
    }

    /// Number of records left to read.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Read the next record (decompressed), or `None` at the end.
    ///
    /// # Errors
    ///
    /// CRC mismatches, truncation, and decompression faults are
    /// reported per frame.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        self.next_record_compressed()?.map(lzss::decompress).transpose()
    }

    /// Read the next record *without* decompressing (CRC still checked),
    /// borrowed from the container bytes, or `None` at the end.
    ///
    /// # Errors
    ///
    /// CRC mismatches and truncation are reported per frame.
    pub fn next_record_compressed(&mut self) -> Result<Option<&'a [u8]>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let data = self.data;
        if data.len() - self.pos < 8 {
            return Err(CodecError::Truncated);
        }
        let len =
            u32::from_le_bytes(data[self.pos..self.pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[self.pos + 4..self.pos + 8].try_into().expect("4 bytes"));
        self.pos += 8;
        if data.len() - self.pos < len {
            return Err(CodecError::Truncated);
        }
        let body = &data[self.pos..self.pos + len];
        if crc32::checksum(body) != crc {
            return Err(CodecError::CrcMismatch { frame: self.index });
        }
        self.pos += len;
        self.remaining -= 1;
        self.index += 1;
        Ok(Some(body))
    }
}

/// Convenience façade: build or parse a whole container at once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Container {
    /// The decompressed records, in stored order.
    pub records: Vec<Vec<u8>>,
}

impl Container {
    /// Serialize all records into container bytes.
    pub fn encode(records: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
        let mut w = ContainerWriter::new();
        for r in records {
            w.push(&r);
        }
        w.finish()
    }

    /// Parse container bytes into records.
    ///
    /// # Errors
    ///
    /// Propagates any frame-level error from [`ContainerReader`].
    pub fn decode(data: &[u8]) -> Result<Self, CodecError> {
        let mut reader = ContainerReader::new(data)?;
        let mut records = Vec::new();
        while let Some(rec) = reader.next_record()? {
            records.push(rec);
        }
        Ok(Container { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let recs: Vec<Vec<u8>> = (0..10)
            .map(|i| format!("live-point number {i} with warm state").into_bytes())
            .collect();
        let bytes = Container::encode(recs.clone());
        let decoded = Container::decode(&bytes).unwrap();
        assert_eq!(decoded.records, recs);
    }

    #[test]
    fn empty_container() {
        let bytes = Container::encode(Vec::<Vec<u8>>::new());
        assert_eq!(Container::decode(&bytes).unwrap().records.len(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = Container::encode(vec![b"x".to_vec()]);
        bytes[0] = b'X';
        assert_eq!(Container::decode(&bytes).unwrap_err(), CodecError::BadContainer);
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = Container::encode(vec![b"x".to_vec()]);
        bytes[4] = 99;
        assert_eq!(Container::decode(&bytes).unwrap_err(), CodecError::BadContainer);
    }

    #[test]
    fn detects_payload_corruption() {
        let bytes = Container::encode(vec![vec![7u8; 200]]);
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(matches!(Container::decode(&corrupt), Err(CodecError::CrcMismatch { frame: 0 })));
    }

    #[test]
    fn truncation_detected() {
        let bytes = Container::encode(vec![vec![7u8; 200]]);
        assert!(matches!(Container::decode(&bytes[..bytes.len() - 4]), Err(CodecError::Truncated)));
    }

    #[test]
    fn push_compressed_streams_identical_frames() {
        let payload = b"records stream straight into the output buffer".to_vec();
        let mut a = ContainerWriter::new();
        a.push(&payload);
        a.push(&payload);
        let mut b = ContainerWriter::new();
        assert!(b.is_empty());
        let compressed = lzss::compress(&payload);
        b.push_compressed(&compressed);
        b.push_compressed(&compressed);
        assert_eq!(b.len(), 2);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn streaming_reader_counts_down() {
        let bytes = Container::encode(vec![b"a".to_vec(), b"b".to_vec()]);
        let mut r = ContainerReader::new(&bytes).unwrap();
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.next_record().unwrap().unwrap(), b"a");
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.next_record().unwrap().unwrap(), b"b");
        assert_eq!(r.next_record().unwrap(), None);
    }
}
