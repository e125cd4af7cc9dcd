//! Paged random-access container — library format v2.
//!
//! The monolithic v1 [`Container`](crate::Container) must be parsed
//! front to back before the first record is usable. Format v2 keeps the
//! record bodies back to back with **no interleaved framing** and moves
//! all structure into a footer index at the end of the file, so an open
//! reads only the header and footer, and fetching record `i` is one
//! positioned read:
//!
//! ```text
//! magic "SPLP" | version u16 = 2 LE | meta_len u32 LE | meta_crc u32 LE
//! meta bytes                      (plain-LZSS-compressed DER metadata)
//! body: dictionary frames and record frames, raw bytes, back to back
//! footer:
//!   count u32 LE | block_count u32 LE
//!   per block:  dict_offset u64 | dict_len u32 | dict_crc u32
//!   per record: offset u64 | len u32 | crc u32 | block u32
//! trailer (fixed 24 bytes at EOF):
//!   footer_offset u64 | footer_len u32 | footer_crc u32
//!   | content_hash u32 | magic "SPL2"
//! ```
//!
//! All offsets are absolute file offsets. Records are grouped into
//! *blocks*; a block may carry a shared LZSS dictionary (itself
//! plain-LZSS-compressed) that primes the window for every record in the
//! block ([`lzss::compress_with_dict`]). A block with `dict_len == 0`
//! has no dictionary and its records are plain [`lzss::compress`]
//! streams — byte-identical to their v1 framing, which makes reading a
//! v1 stream into a dictionary-less v2 image a pure re-framing (no
//! decompression) and lets `merge` operate at the index level.
//!
//! The writer is purely streaming (`io::Write`, no seeks): shards can
//! append blocks as they are produced and a stitch pass only rewrites
//! the footer. `content_hash` is the CRC32 of the record bodies in
//! stored order — for dictionary-less files this equals the v1 library
//! content hash.

use std::io::{self, Write};

use crate::container::MAGIC;
use crate::crc32;
use crate::error::CodecError;
use crate::lzss;

/// Format version stored in the shared header.
pub const V2_VERSION: u16 = 2;

/// Length of the fixed v2 header (magic + version + meta_len + meta_crc).
pub const V2_HEADER_LEN: usize = 14;

/// Length of the fixed trailer at EOF.
pub const V2_TRAILER_LEN: usize = 24;

/// Magic closing the trailer (distinct from the header magic so a
/// truncated file can never alias a complete one).
const TRAILER_MAGIC: &[u8; 4] = b"SPL2";

/// Sentinel count limit: a footer can never index more entries than it
/// has bytes for; enforced structurally in [`parse_v2_footer`].
const FOOTER_FIXED_LEN: usize = 8;
const BLOCK_ENTRY_LEN: usize = 16;
const RECORD_ENTRY_LEN: usize = 20;

/// Footer entry for one dictionary block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute file offset of the compressed dictionary (meaningless
    /// when `dict_len == 0`).
    pub dict_offset: u64,
    /// Compressed dictionary length in bytes; 0 = no dictionary.
    pub dict_len: u32,
    /// CRC32 of the compressed dictionary bytes.
    pub dict_crc: u32,
}

/// Footer entry for one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordEntry {
    /// Absolute file offset of the record body.
    pub offset: u64,
    /// Record body length in bytes.
    pub len: u32,
    /// CRC32 of the record body.
    pub crc: u32,
    /// Index into the block table (always valid after parsing).
    pub block: u32,
}

/// Parsed v2 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Header {
    /// Compressed metadata length (bytes immediately after the header).
    pub meta_len: u32,
    /// CRC32 of the compressed metadata bytes.
    pub meta_crc: u32,
}

/// Parsed v2 trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Trailer {
    /// Absolute file offset of the footer.
    pub footer_offset: u64,
    /// Footer length in bytes.
    pub footer_len: u32,
    /// CRC32 of the footer bytes.
    pub footer_crc: u32,
    /// CRC32 of the record bodies in stored order.
    pub content_hash: u32,
}

/// Parse the fixed v2 header from a file prefix.
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input, [`CodecError::BadContainer`]
/// on a bad magic, [`CodecError::UnsupportedVersion`] when the version
/// is not 2.
pub fn parse_v2_header(prefix: &[u8]) -> Result<V2Header, CodecError> {
    if prefix.len() < V2_HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let version = crate::container::sniff_version(prefix)?;
    if version != V2_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let meta_len = u32::from_le_bytes(prefix[6..10].try_into().expect("4 bytes"));
    let meta_crc = u32::from_le_bytes(prefix[10..14].try_into().expect("4 bytes"));
    Ok(V2Header { meta_len, meta_crc })
}

/// CRC-check and decompress the metadata bytes that follow the header.
///
/// # Errors
///
/// [`CodecError::CrcMismatch`] (frame 0 = the metadata frame) on
/// corruption, plus any LZSS decode fault.
pub fn decode_v2_meta(header: &V2Header, meta_bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    if meta_bytes.len() != header.meta_len as usize {
        return Err(CodecError::Truncated);
    }
    if crc32::checksum(meta_bytes) != header.meta_crc {
        return Err(CodecError::CrcMismatch { frame: 0 });
    }
    lzss::decompress(meta_bytes)
}

/// Parse the fixed trailer from the last [`V2_TRAILER_LEN`] bytes of a
/// `file_len`-byte file, validating that the footer it points at lies
/// entirely inside the file and directly precedes the trailer.
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input, [`CodecError::BadFooter`]
/// on a bad trailer magic or inconsistent geometry.
pub fn parse_v2_trailer(tail: &[u8], file_len: u64) -> Result<V2Trailer, CodecError> {
    if tail.len() < V2_TRAILER_LEN || file_len < (V2_HEADER_LEN + V2_TRAILER_LEN) as u64 {
        return Err(CodecError::Truncated);
    }
    let t = &tail[tail.len() - V2_TRAILER_LEN..];
    if &t[20..24] != TRAILER_MAGIC {
        return Err(CodecError::BadFooter);
    }
    let footer_offset = u64::from_le_bytes(t[0..8].try_into().expect("8 bytes"));
    let footer_len = u32::from_le_bytes(t[8..12].try_into().expect("4 bytes"));
    let footer_crc = u32::from_le_bytes(t[12..16].try_into().expect("4 bytes"));
    let content_hash = u32::from_le_bytes(t[16..20].try_into().expect("4 bytes"));
    let end = footer_offset
        .checked_add(footer_len as u64)
        .and_then(|e| e.checked_add(V2_TRAILER_LEN as u64))
        .ok_or(CodecError::BadFooter)?;
    if end != file_len || footer_offset < V2_HEADER_LEN as u64 {
        return Err(CodecError::BadFooter);
    }
    Ok(V2Trailer { footer_offset, footer_len, footer_crc, content_hash })
}

/// Parse and validate the footer bytes against `trailer`. `body_start`
/// is the first offset a dictionary or record may legally occupy (end
/// of the metadata frame); every entry is bounds-checked into
/// `[body_start, trailer.footer_offset)` and every record's block index
/// is checked against the block table, so downstream positioned reads
/// can trust the index.
///
/// # Errors
///
/// [`CodecError::BadFooter`] on length/geometry violations,
/// [`CodecError::CrcMismatch`] (frame `usize::MAX` denotes the footer
/// itself) when the footer bytes fail their CRC.
pub fn parse_v2_footer(
    footer: &[u8],
    trailer: &V2Trailer,
    body_start: u64,
) -> Result<(Vec<BlockEntry>, Vec<RecordEntry>), CodecError> {
    if footer.len() != trailer.footer_len as usize || footer.len() < FOOTER_FIXED_LEN {
        return Err(CodecError::BadFooter);
    }
    if crc32::checksum(footer) != trailer.footer_crc {
        return Err(CodecError::CrcMismatch { frame: usize::MAX });
    }
    let count = u32::from_le_bytes(footer[0..4].try_into().expect("4 bytes")) as usize;
    let block_count = u32::from_le_bytes(footer[4..8].try_into().expect("4 bytes")) as usize;
    let expect_len = FOOTER_FIXED_LEN
        .checked_add(block_count.checked_mul(BLOCK_ENTRY_LEN).ok_or(CodecError::BadFooter)?)
        .and_then(|l| l.checked_add(count.checked_mul(RECORD_ENTRY_LEN)?))
        .ok_or(CodecError::BadFooter)?;
    if footer.len() != expect_len {
        return Err(CodecError::BadFooter);
    }
    let in_body = |offset: u64, len: u32| -> bool {
        offset >= body_start
            && offset.checked_add(len as u64).is_some_and(|e| e <= trailer.footer_offset)
    };
    let mut pos = FOOTER_FIXED_LEN;
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let dict_offset = u64::from_le_bytes(footer[pos..pos + 8].try_into().expect("8 bytes"));
        let dict_len = u32::from_le_bytes(footer[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let dict_crc = u32::from_le_bytes(footer[pos + 12..pos + 16].try_into().expect("4 bytes"));
        pos += BLOCK_ENTRY_LEN;
        if dict_len > 0 && !in_body(dict_offset, dict_len) {
            return Err(CodecError::BadFooter);
        }
        blocks.push(BlockEntry { dict_offset, dict_len, dict_crc });
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = u64::from_le_bytes(footer[pos..pos + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(footer[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(footer[pos + 12..pos + 16].try_into().expect("4 bytes"));
        let block = u32::from_le_bytes(footer[pos + 16..pos + 20].try_into().expect("4 bytes"));
        pos += RECORD_ENTRY_LEN;
        if !in_body(offset, len) || block as usize >= block_count {
            return Err(CodecError::BadFooter);
        }
        records.push(RecordEntry { offset, len, crc, block });
    }
    Ok((blocks, records))
}

/// Totals reported by [`PagedWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Summary {
    /// Records written.
    pub count: u32,
    /// CRC32 of the record bodies in stored order.
    pub content_hash: u32,
    /// Bytes of record bodies (excluding dictionaries, meta, footer).
    pub record_bytes: u64,
    /// Total file length.
    pub file_bytes: u64,
}

/// Streaming v2 writer: header and metadata up front, then blocks and
/// records in arrival order, footer + trailer on
/// [`finish`](Self::finish). Never seeks, so shards can stream blocks
/// straight to disk and a merge stitch pass can raw-copy bodies from
/// other containers.
#[derive(Debug)]
pub struct PagedWriter<W: Write> {
    w: W,
    offset: u64,
    blocks: Vec<BlockEntry>,
    records: Vec<RecordEntry>,
    record_bytes: u64,
    hash: crc32::Hasher,
    open_block: bool,
}

impl<W: Write> PagedWriter<W> {
    /// Start a container: compresses `meta_der` (the library metadata
    /// payload, identical to the v1 meta record) and writes the header
    /// and metadata frame.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn new(mut w: W, meta_der: &[u8]) -> io::Result<Self> {
        let meta = lzss::compress(meta_der);
        w.write_all(MAGIC)?;
        w.write_all(&V2_VERSION.to_le_bytes())?;
        w.write_all(&(meta.len() as u32).to_le_bytes())?;
        w.write_all(&crc32::checksum(&meta).to_le_bytes())?;
        w.write_all(&meta)?;
        Ok(PagedWriter {
            w,
            offset: (V2_HEADER_LEN + meta.len()) as u64,
            blocks: Vec::new(),
            records: Vec::new(),
            record_bytes: 0,
            hash: crc32::Hasher::new(),
            open_block: false,
        })
    }

    /// Open a new block primed by `dict_compressed` (a plain
    /// [`lzss::compress`] stream; pass an empty slice for a
    /// dictionary-less block). Subsequent records belong to this block
    /// until the next call.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn begin_block(&mut self, dict_compressed: &[u8]) -> io::Result<()> {
        let entry = BlockEntry {
            dict_offset: self.offset,
            dict_len: dict_compressed.len() as u32,
            dict_crc: crc32::checksum(dict_compressed),
        };
        if !dict_compressed.is_empty() {
            self.w.write_all(dict_compressed)?;
            self.offset += dict_compressed.len() as u64;
        }
        self.blocks.push(entry);
        self.open_block = true;
        Ok(())
    }

    /// Append one record body (compressed bytes; plain or
    /// dictionary-primed — the format does not care, the reader picks
    /// the decoder from the owning block's `dict_len`). Records pushed
    /// before any [`begin_block`](Self::begin_block) land in an implicit
    /// dictionary-less block.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn push_record(&mut self, compressed: &[u8]) -> io::Result<()> {
        if !self.open_block {
            self.begin_block(&[])?;
        }
        let block = (self.blocks.len() - 1) as u32;
        self.push_record_in_block(compressed, block)
    }

    /// Append one record body tied to an explicit, already-written block.
    /// This is the merge primitive: dictionaries from every input are
    /// written up front (one [`begin_block`](Self::begin_block) each) and
    /// record bodies then arrive in shuffled order, each pointing back at
    /// its original dictionary.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `block` does not name a
    /// written block; otherwise propagates writer I/O errors.
    pub fn push_record_in_block(&mut self, compressed: &[u8], block: u32) -> io::Result<()> {
        if block as usize >= self.blocks.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("block {block} not yet written ({} blocks)", self.blocks.len()),
            ));
        }
        self.w.write_all(compressed)?;
        self.hash.update(compressed);
        self.records.push(RecordEntry {
            offset: self.offset,
            len: compressed.len() as u32,
            crc: crc32::checksum(compressed),
            block,
        });
        self.offset += compressed.len() as u64;
        self.record_bytes += compressed.len() as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been written.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Write the footer and trailer and flush.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn finish(mut self) -> io::Result<V2Summary> {
        let footer_offset = self.offset;
        let mut footer = Vec::with_capacity(
            FOOTER_FIXED_LEN
                + self.blocks.len() * BLOCK_ENTRY_LEN
                + self.records.len() * RECORD_ENTRY_LEN,
        );
        footer.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        footer.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            footer.extend_from_slice(&b.dict_offset.to_le_bytes());
            footer.extend_from_slice(&b.dict_len.to_le_bytes());
            footer.extend_from_slice(&b.dict_crc.to_le_bytes());
        }
        for r in &self.records {
            footer.extend_from_slice(&r.offset.to_le_bytes());
            footer.extend_from_slice(&r.len.to_le_bytes());
            footer.extend_from_slice(&r.crc.to_le_bytes());
            footer.extend_from_slice(&r.block.to_le_bytes());
        }
        let content_hash = self.hash.finalize();
        self.w.write_all(&footer)?;
        self.w.write_all(&footer_offset.to_le_bytes())?;
        self.w.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.w.write_all(&crc32::checksum(&footer).to_le_bytes())?;
        self.w.write_all(&content_hash.to_le_bytes())?;
        self.w.write_all(TRAILER_MAGIC)?;
        self.w.flush()?;
        Ok(V2Summary {
            count: self.records.len() as u32,
            content_hash,
            record_bytes: self.record_bytes,
            file_bytes: footer_offset + (footer.len() + V2_TRAILER_LEN) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(records: &[&[u8]], dict: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = PagedWriter::new(&mut out, b"meta-payload").unwrap();
        if let Some(d) = dict {
            w.begin_block(&lzss::compress(d)).unwrap();
        }
        for r in records {
            w.push_record(&lzss::compress(r)).unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.count as usize, records.len());
        assert_eq!(summary.file_bytes as usize, out.len());
        out
    }

    type Opened = (Vec<u8>, Vec<BlockEntry>, Vec<RecordEntry>);

    fn open(bytes: &[u8]) -> Result<Opened, CodecError> {
        let header = parse_v2_header(bytes)?;
        let meta_end = V2_HEADER_LEN + header.meta_len as usize;
        if bytes.len() < meta_end {
            return Err(CodecError::Truncated);
        }
        let meta = decode_v2_meta(&header, &bytes[V2_HEADER_LEN..meta_end])?;
        let trailer = parse_v2_trailer(bytes, bytes.len() as u64)?;
        let footer = &bytes[trailer.footer_offset as usize
            ..(trailer.footer_offset + trailer.footer_len as u64) as usize];
        let (blocks, records) = parse_v2_footer(footer, &trailer, meta_end as u64)?;
        Ok((meta, blocks, records))
    }

    #[test]
    fn roundtrip_without_dict() {
        let recs: Vec<Vec<u8>> =
            (0..5).map(|i| format!("record number {i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
        let bytes = build(&refs, None);
        let (meta, blocks, records) = open(&bytes).unwrap();
        assert_eq!(meta, b"meta-payload");
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].dict_len, 0);
        assert_eq!(records.len(), 5);
        for (r, want) in records.iter().zip(&recs) {
            let body = &bytes[r.offset as usize..(r.offset + r.len as u64) as usize];
            assert_eq!(crc32::checksum(body), r.crc);
            assert_eq!(lzss::decompress(body).unwrap(), *want);
        }
    }

    #[test]
    fn roundtrip_with_dict_block() {
        let dict = b"shared prefix shared prefix shared prefix".to_vec();
        let mut out = Vec::new();
        let mut w = PagedWriter::new(&mut out, b"m").unwrap();
        w.begin_block(&lzss::compress(&dict)).unwrap();
        let mut scratch = lzss::CompressScratch::new();
        let payload = b"shared prefix shared prefix payload tail";
        w.push_record(&lzss::compress_with_dict(&mut scratch, &dict, payload)).unwrap();
        w.finish().unwrap();
        let (_, blocks, records) = open(&out).unwrap();
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].dict_len > 0);
        let dict_bytes = &out[blocks[0].dict_offset as usize
            ..(blocks[0].dict_offset + blocks[0].dict_len as u64) as usize];
        assert_eq!(crc32::checksum(dict_bytes), blocks[0].dict_crc);
        let dict_back = lzss::decompress(dict_bytes).unwrap();
        assert_eq!(dict_back, dict);
        let r = &records[0];
        let body = &out[r.offset as usize..(r.offset + r.len as u64) as usize];
        let mut decoded = Vec::new();
        lzss::decompress_into_with_dict(&dict_back, body, &mut decoded).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn content_hash_covers_record_bodies_in_order() {
        let recs: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 64]).collect();
        let refs: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
        let bytes = build(&refs, None);
        let trailer = parse_v2_trailer(&bytes, bytes.len() as u64).unwrap();
        let mut h = crc32::Hasher::new();
        for r in &recs {
            h.update(&lzss::compress(r));
        }
        assert_eq!(trailer.content_hash, h.finalize());
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = build(&[b"some record data"], None);
        for cut in [0, 3, V2_HEADER_LEN - 1, bytes.len() - 1, bytes.len() - V2_TRAILER_LEN] {
            let err = open(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated | CodecError::BadFooter | CodecError::BadContainer
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn footer_corruption_is_typed() {
        let bytes = build(&[b"some record data"], None);
        let trailer = parse_v2_trailer(&bytes, bytes.len() as u64).unwrap();
        // Flip a footer byte: CRC must catch it.
        let mut corrupt = bytes.clone();
        corrupt[trailer.footer_offset as usize] ^= 0xFF;
        assert!(matches!(open(&corrupt), Err(CodecError::CrcMismatch { .. })));
        // Flip a trailer geometry byte: structural check must catch it.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() - V2_TRAILER_LEN] ^= 0xFF;
        assert!(matches!(
            open(&corrupt),
            Err(CodecError::BadFooter | CodecError::Truncated | CodecError::CrcMismatch { .. })
        ));
        // Wrong trailer magic.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] = b'X';
        assert_eq!(open(&corrupt).unwrap_err(), CodecError::BadFooter);
    }

    #[test]
    fn v1_bytes_are_dispatched_away() {
        let v1 = crate::Container::encode(vec![b"x".to_vec()]);
        assert_eq!(crate::container::sniff_version(&v1).unwrap(), 1);
        assert!(matches!(
            parse_v2_header(&v1),
            Err(CodecError::UnsupportedVersion { found: 1 } | CodecError::Truncated)
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = build(&[], None);
        let (meta, blocks, records) = open(&bytes).unwrap();
        assert_eq!(meta, b"meta-payload");
        assert!(blocks.is_empty());
        assert!(records.is_empty());
    }
}
