//! Live-point libraries: creation, shuffling, and on-disk containers.
//!
//! Every library serves its records the same way (see `DESIGN.md`
//! §5e): from a paged v2 image ([`spectral_codec::paged`]) whose footer
//! index locates each record. The image is a file opened with
//! [`LivePointLibrary::open`], where each
//! [`get`](LivePointLibrary::get) is one CRC-checked positioned read,
//! or lives in memory after fresh creation,
//! [`from_bytes`](LivePointLibrary::from_bytes) or
//! [`merge`](LivePointLibrary::merge), where `get` borrows the record
//! bytes, checked once when the image was built. v2 blocks may carry
//! shared LZSS dictionaries that prime the compression window for every
//! record in the block.
//!
//! The monolithic v1 [`Container`](spectral_codec::Container) stream is
//! read-only input: `open` and `from_bytes` dispatch on the version
//! byte and re-frame a v1 stream's CRC-checked compressed records into
//! a dictionary-less v2 image, never decompressing one.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use spectral_cache::HierarchyConfig;
use spectral_codec::{
    crc32, lzss, paged, sniff_version, CodecError, ContainerReader, DerReader, DerWriter,
};
use spectral_isa::{Emulator, Program};
use spectral_stats::{SampleDesign, SystematicDesign, WindowSpec};
use spectral_telemetry::{Counter, Histogram, Stopwatch};

use crate::creation::{benchmark_length, CreationConfig, CreationWarmers, TouchedState};
use crate::encode::{
    dec_hierarchy, dec_scope, decode_livepoint, enc_hierarchy, enc_scope, encode_livepoint,
};
use crate::error::CoreError;
use crate::livepoint::{LivePoint, SizeBreakdown, WarmPayload};
use crate::livestate::{LiveStateCollector, StateScope};

// Library-creation metrics: where creation time goes (functional
// warming vs. state snapshot vs. DER encode vs. LZSS compress) and how
// big each record is before/after compression. All no-ops without the
// `telemetry` feature.
static TLM_WINDOWS: Counter = Counter::new("core.create.windows");
static TLM_WARM_NS: Counter = Counter::new("core.create.warm_ns");
static TLM_SNAPSHOT_NS: Counter = Counter::new("core.create.snapshot_ns");
static TLM_ENCODE_NS: Counter = Counter::new("core.create.der_encode_ns");
static TLM_COMPRESS_NS: Counter = Counter::new("core.create.compress_ns");
static TLM_DER_BYTES: Histogram = Histogram::new("core.create.record_der_bytes");
static TLM_RECORD_BYTES: Histogram = Histogram::new("core.create.record_bytes");

// Library-access metrics: open cost of every image a library serves
// from (files, and the in-memory images of fresh creation, `from_bytes`
// and `merge`), per-record positioned reads of files, and time spent
// building shared dictionaries.
static TLM_OPENS: Counter = Counter::new("core.lib.opens");
static TLM_OPEN_NS: Counter = Counter::new("core.lib.open_ns");
static TLM_PAGED_READS: Counter = Counter::new("core.lib.paged_reads");
static TLM_PAGED_READ_BYTES: Counter = Counter::new("core.lib.paged_read_bytes");
static TLM_DICT_BUILD_NS: Counter = Counter::new("core.lib.dict_build_ns");

/// Mixed into the creation seed to derive the creation shuffle.
const CREATION_SHUFFLE_SALT: u64 = 0x0F1E_2D3C;

/// DER-encode one live-point, feeding the per-record telemetry: the
/// whole of a creation worker's job when the target file has
/// dictionaries, whose records are compressed once, in the stitch.
fn encode_record(lp: &LivePoint) -> Vec<u8> {
    let sw = Stopwatch::start();
    let der = encode_livepoint(lp);
    TLM_ENCODE_NS.add(sw.ns());
    TLM_DER_BYTES.record(der.len() as u64);
    der
}

/// DER-encode and plain-LZSS-compress one live-point, feeding the
/// per-record telemetry: the creation worker's job for in-memory and
/// dictionary-less targets. The caller keeps one [`CompressScratch`]
/// per thread so the match-finder tables are allocated once, not per
/// record.
///
/// [`CompressScratch`]: lzss::CompressScratch
fn compress_record(scratch: &mut lzss::CompressScratch, lp: &LivePoint) -> Vec<u8> {
    let der = encode_record(lp);
    let sw = Stopwatch::start();
    let bytes = lzss::compress_with(scratch, &der);
    TLM_COMPRESS_NS.add(sw.ns());
    TLM_RECORD_BYTES.record(bytes.len() as u64);
    bytes
}

/// Reusable decode buffers for [`LivePointLibrary::get_with`]: holds
/// the compressed record read from the image and its decompressed DER
/// image between decodes, so steady-state point processing performs no
/// decompression-side heap allocation. Keep one per runner thread.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    der: Vec<u8>,
    comp: Vec<u8>,
}

impl DecodeScratch {
    /// Create empty scratch; the buffers grow to the largest record
    /// decoded through them and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where a v2 image's bytes are read from.
#[derive(Debug)]
enum Source {
    /// An open file; records are fetched with positioned reads.
    File(File),
    /// An in-memory image (fresh creation, `from_bytes`, `merge`).
    Bytes(Vec<u8>),
}

impl Source {
    /// The `len` bytes at absolute `offset`: borrowed from an in-memory
    /// image, or read into `buf` with one positioned read of a file.
    fn bytes_at<'a>(
        &'a self,
        offset: u64,
        len: usize,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], CoreError> {
        match self {
            Source::File(f) => {
                buf.resize(len, 0);
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    f.read_exact_at(buf, offset)?;
                }
                #[cfg(not(unix))]
                {
                    let _ = (f, offset);
                    unimplemented!("paged libraries require positioned reads (unix)");
                }
                Ok(buf)
            }
            Source::Bytes(data) => usize::try_from(offset)
                .ok()
                .and_then(|start| data.get(start..start.checked_add(len)?))
                .ok_or_else(|| CodecError::Truncated.into()),
        }
    }
}

/// An opened v2 image: the source plus its parsed footer index and a
/// lazily-populated per-block cache of decompressed dictionaries.
/// Shared (`Arc`) so cloning a library copies no record bytes.
#[derive(Debug)]
struct PagedSource {
    source: Source,
    blocks: Vec<paged::BlockEntry>,
    records: Vec<paged::RecordEntry>,
    /// Trailer content hash (CRC32 of record bodies in stored order).
    stored_hash: u32,
    /// Sum of record body lengths from the footer index.
    record_bytes: u64,
    /// Decompressed shared dictionaries, filled on first use per block.
    dicts: Vec<Mutex<Option<Arc<Vec<u8>>>>>,
}

impl PagedSource {
    /// Open a v2 image over `source`: header, metadata and footer
    /// index only; no record is read. Returns the index and the
    /// decompressed metadata DER.
    fn open(source: Source, file_len: u64) -> Result<(Self, Vec<u8>), CoreError> {
        if file_len < (paged::V2_HEADER_LEN + paged::V2_TRAILER_LEN) as u64 {
            return Err(CodecError::Truncated.into());
        }
        let mut buf = Vec::new();
        let header = paged::parse_v2_header(source.bytes_at(0, paged::V2_HEADER_LEN, &mut buf)?)?;
        let meta_end = paged::V2_HEADER_LEN as u64 + u64::from(header.meta_len);
        if meta_end + paged::V2_TRAILER_LEN as u64 > file_len {
            return Err(CodecError::Truncated.into());
        }
        let meta_bytes =
            source.bytes_at(paged::V2_HEADER_LEN as u64, header.meta_len as usize, &mut buf)?;
        let meta_der = paged::decode_v2_meta(&header, meta_bytes)?;
        let tail = source.bytes_at(
            file_len - paged::V2_TRAILER_LEN as u64,
            paged::V2_TRAILER_LEN,
            &mut buf,
        )?;
        let trailer = paged::parse_v2_trailer(tail, file_len)?;
        if trailer.footer_offset < meta_end {
            return Err(CodecError::BadFooter.into());
        }
        let footer =
            source.bytes_at(trailer.footer_offset, trailer.footer_len as usize, &mut buf)?;
        let (blocks, records) = paged::parse_v2_footer(footer, &trailer, meta_end)?;
        let record_bytes = records.iter().map(|r| u64::from(r.len)).sum();
        let dicts = blocks.iter().map(|_| Mutex::new(None)).collect();
        let paged = PagedSource {
            source,
            blocks,
            records,
            stored_hash: trailer.content_hash,
            record_bytes,
            dicts,
        };
        Ok((paged, meta_der))
    }

    /// The compressed body of stored record `stored`. A file record is
    /// read into `buf` and CRC-checked on every read. An in-memory
    /// record is borrowed unchecked: every in-memory image had its
    /// records CRC-checked once, when it was written or loaded.
    fn read_record<'a>(
        &'a self,
        stored: usize,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], CoreError> {
        let e = &self.records[stored];
        let body = self.source.bytes_at(e.offset, e.len as usize, buf)?;
        if let Source::File(_) = self.source {
            if crc32::checksum(body) != e.crc {
                return Err(CodecError::CrcMismatch { frame: stored }.into());
            }
            TLM_PAGED_READS.inc();
            TLM_PAGED_READ_BYTES.add(e.len as u64);
        }
        Ok(body)
    }

    /// CRC-check every record body once — what makes an in-memory image
    /// from outside safe to serve unchecked.
    fn check_records(&self) -> Result<(), CoreError> {
        let mut buf = Vec::new();
        for (stored, e) in self.records.iter().enumerate() {
            let body = self.source.bytes_at(e.offset, e.len as usize, &mut buf)?;
            if crc32::checksum(body) != e.crc {
                return Err(CodecError::CrcMismatch { frame: stored }.into());
            }
        }
        Ok(())
    }

    /// Block `block`'s compressed dictionary bytes, CRC-checked (they
    /// may be raw-copied into a merged image without decompression).
    fn read_dict_raw<'a>(
        &'a self,
        block: usize,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], CoreError> {
        let b = &self.blocks[block];
        let dict = self.source.bytes_at(b.dict_offset, b.dict_len as usize, buf)?;
        if crc32::checksum(dict) != b.dict_crc {
            return Err(CodecError::CrcMismatch { frame: block }.into());
        }
        Ok(dict)
    }

    /// Fill `scratch.der` with the decompressed DER image of stored
    /// record `stored`, through its block's shared dictionary when it
    /// has one.
    fn decompress_into(&self, stored: usize, scratch: &mut DecodeScratch) -> Result<(), CoreError> {
        let comp = self.read_record(stored, &mut scratch.comp)?;
        match self.dict(self.records[stored].block as usize)? {
            None => lzss::decompress_into(comp, &mut scratch.der)?,
            Some(dict) => lzss::decompress_into_with_dict(&dict, comp, &mut scratch.der)?,
        }
        Ok(())
    }

    /// The DER image of stored record `stored`: decompressed into
    /// `scratch.der` from an LZSS image, or read as it is from a DER
    /// spool.
    fn der<'a>(
        &'a self,
        stored: usize,
        coding: RecordCoding,
        scratch: &'a mut DecodeScratch,
    ) -> Result<&'a [u8], CoreError> {
        match coding {
            RecordCoding::Lzss => {
                self.decompress_into(stored, scratch)?;
                Ok(&scratch.der)
            }
            RecordCoding::Der => self.read_record(stored, &mut scratch.comp),
        }
    }

    /// The decompressed shared dictionary for `block`, or `None` for a
    /// dictionary-less block. Decompressed once and cached; concurrent
    /// first uses may race benignly (last write wins, values identical).
    fn dict(&self, block: usize) -> Result<Option<Arc<Vec<u8>>>, CoreError> {
        if self.blocks[block].dict_len == 0 {
            return Ok(None);
        }
        if let Some(d) = self.dicts[block].lock().expect("dict lock").as_ref() {
            return Ok(Some(d.clone()));
        }
        let mut buf = Vec::new();
        let dict = Arc::new(lzss::decompress(self.read_dict_raw(block, &mut buf)?)?);
        *self.dicts[block].lock().expect("dict lock") = Some(dict.clone());
        Ok(Some(dict))
    }
}

/// Knobs for writing a v2 paged container
/// ([`LivePointLibrary::save_v2`]).
#[derive(Debug, Clone)]
pub struct V2WriteOptions {
    /// Records per dictionary block.
    pub block_points: usize,
    /// Whether to build block-shared LZSS dictionaries. Without
    /// dictionaries every record is a plain LZSS stream, so the write
    /// is a pure re-framing (no decompression) of a dictionary-less
    /// library and keeps its content hash.
    pub dict: bool,
    /// Maximum dictionary size in bytes (decompressed).
    pub dict_cap: usize,
    /// Records sampled (evenly spaced) per block to seed the dictionary.
    pub dict_samples: usize,
}

impl Default for V2WriteOptions {
    fn default() -> Self {
        V2WriteOptions { block_points: 64, dict: true, dict_cap: 16 * 1024, dict_samples: 4 }
    }
}

/// Metadata from [`LivePointLibrary::open_header`]: everything the
/// experiment binaries print about a library without decompressing a
/// single record.
#[derive(Debug, Clone)]
pub struct LibraryHeader {
    /// Container format version of the file (1 or 2).
    pub format_version: u16,
    /// The benchmark the library samples.
    pub benchmark: String,
    /// Warm-state scope the library was created with.
    pub scope: StateScope,
    /// Maximum hierarchy geometry the library supports.
    pub max_hierarchy: HierarchyConfig,
    /// Number of live-points.
    pub points: u64,
    /// Dictionary blocks of the v2 image (for v1 input, of the image it
    /// is re-framed into).
    pub blocks: u64,
    /// Sum of compressed record body lengths.
    pub total_compressed_bytes: u64,
    /// Total container file length.
    pub file_bytes: u64,
    /// The v2 image's trailer content hash (for v1 input, that of the
    /// re-framed image, which equals the v1 content hash).
    pub content_hash: u32,
}

/// A benchmark's live-point library: independently-loadable compressed
/// records, pre-shuffled into random order (paper §6.1: "we recommend
/// shuffling live-points on disk, prior to simulation").
#[derive(Debug, Clone)]
pub struct LivePointLibrary {
    benchmark: String,
    scope: StateScope,
    max_hierarchy: HierarchyConfig,
    paged: Arc<PagedSource>,
    /// Processing order: processing index `i` reads stored record
    /// `order[i]`.
    order: Vec<u32>,
    /// Cached [`content_hash`](Self::content_hash); reset by any
    /// reordering mutation (shuffle, merge).
    cache_hash: OnceLock<u32>,
}

impl LivePointLibrary {
    /// Create a library with the paper's periodic sample design: one
    /// functional pass to measure the benchmark, one creation pass to
    /// collect the points, then a seeded shuffle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] when the benchmark
    /// cannot host a single window.
    pub fn create(program: &Program, cfg: &CreationConfig) -> Result<Self, CoreError> {
        Self::create_parallel(program, cfg, 1)
    }

    /// Create a library with the paper's periodic sample design, using a
    /// pipelined creation pass: the inherently sequential
    /// functional-warming walk stays on the calling thread while
    /// `threads` workers DER-encode and LZSS-compress each window's
    /// snapshot concurrently. Record order — and therefore the library's
    /// bytes — is identical to the serial pass for the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] when the benchmark
    /// cannot host a single window.
    pub fn create_parallel(
        program: &Program,
        cfg: &CreationConfig,
        threads: usize,
    ) -> Result<Self, CoreError> {
        let windows = design_windows(program, cfg);
        Self::create_with_windows_parallel(program, cfg, &windows, threads)
    }

    /// Create a library for caller-chosen windows (sorted,
    /// non-overlapping).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] for an empty window list.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is unsorted.
    pub fn create_with_windows(
        program: &Program,
        cfg: &CreationConfig,
        windows: &[WindowSpec],
    ) -> Result<Self, CoreError> {
        Self::create_with_windows_parallel(program, cfg, windows, 1)
    }

    /// [`create_with_windows`](Self::create_with_windows) with the
    /// encode/compress stage fanned out over `threads` workers (see
    /// [`create_parallel`](Self::create_parallel)); `threads <= 1` runs
    /// fully inline.
    ///
    /// The compressed records are written once, already in shuffled
    /// order, into a dictionary-less in-memory v2 image: stored order
    /// is processing order, so the content hash is the image's trailer
    /// hash.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] for an empty window list.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is unsorted.
    pub fn create_with_windows_parallel(
        program: &Program,
        cfg: &CreationConfig,
        windows: &[WindowSpec],
        threads: usize,
    ) -> Result<Self, CoreError> {
        check_windows(windows)?;
        let _span = spectral_telemetry::span("create.library");
        let mut records = Vec::with_capacity(windows.len());
        spool_pipelined(program, cfg, windows, threads, RecordCoding::Lzss, |rec| {
            records.push(rec);
            Ok(())
        })?;
        if records.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        // Shuffle indices, not records: the same permutation `shuffle`
        // applies to a processing order, so every creation path agrees.
        let mut order: Vec<u32> = (0..records.len() as u32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(cfg.seed ^ CREATION_SHUFFLE_SALT));
        // Size the image up front (the metadata frame and the 20-byte
        // index entries fit the generous slack) and free each record as
        // it is copied in, so the records and the image are not both
        // held whole.
        let meta = encode_meta_der(program.name(), cfg.scope, &cfg.max_hierarchy);
        let body: usize = records.iter().map(Vec::len).sum();
        let mut image = Vec::with_capacity(body + 2 * meta.len() + 32 * records.len() + 256);
        let mut w = paged::PagedWriter::new(&mut image, &meta)?;
        for &i in &order {
            w.push_record(&std::mem::take(&mut records[i as usize]))?;
        }
        w.finish()?;
        Self::from_image(image)
    }

    /// Create a library directly on disk as a v2 paged container:
    /// records stream to a spool file (`<path>.spool`) as the warming
    /// walk produces them, then a stitch pass writes them in shuffled
    /// order to `path` through a temp sibling, fsync and rename.
    ///
    /// With dictionaries (`opts.dict`, the default) the `threads`
    /// workers only DER-encode, the spool holds DER images (about 3.5×
    /// the size of compressed records), and the stitch compresses each
    /// record exactly once, against its block's dictionary, on
    /// `threads` workers. The file equals what
    /// [`save_v2`](Self::save_v2) writes for
    /// [`create_parallel`](Self::create_parallel)'s library with the
    /// same seed and options, byte for byte. Without dictionaries the
    /// workers compress and the stitch raw-copies the record bodies,
    /// decompressing nothing; the content hash then equals
    /// `create_parallel`'s. Either way at most O(`threads`) records
    /// or blocks are held in memory.
    ///
    /// Returns the finished library, opened paged from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] when no window fits,
    /// plus any I/O fault (the spool file is removed on all paths).
    pub fn create_parallel_to_path(
        program: &Program,
        cfg: &CreationConfig,
        threads: usize,
        path: impl AsRef<Path>,
        opts: &V2WriteOptions,
    ) -> Result<Self, CoreError> {
        let windows = design_windows(program, cfg);
        Self::create_with_windows_to_path(program, cfg, &windows, threads, path, opts)
    }

    /// [`create_parallel_to_path`](Self::create_parallel_to_path) for
    /// caller-chosen windows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkTooShort`] for an empty window
    /// list, plus any I/O fault.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is unsorted.
    pub fn create_with_windows_to_path(
        program: &Program,
        cfg: &CreationConfig,
        windows: &[WindowSpec],
        threads: usize,
        path: impl AsRef<Path>,
        opts: &V2WriteOptions,
    ) -> Result<Self, CoreError> {
        check_windows(windows)?;
        let path = path.as_ref();
        let mut spool_name = path.as_os_str().to_owned();
        spool_name.push(".spool");
        let spool = std::path::PathBuf::from(spool_name);

        let _span = spectral_telemetry::span("create.library");
        let result = Self::spool_and_stitch(program, cfg, windows, threads, path, &spool, opts);
        std::fs::remove_file(&spool).ok();
        result
    }

    /// Phase 1 (spool): stream records in window order into a
    /// dictionary-less v2 file — DER images when the target has
    /// dictionaries, plain-LZSS records otherwise. Phase 2 (stitch):
    /// read the spool back through its paged index, apply the creation
    /// shuffle, and write `path`: dictionary blocks compressed on
    /// `threads` workers, or a raw copy of the plain records.
    fn spool_and_stitch(
        program: &Program,
        cfg: &CreationConfig,
        windows: &[WindowSpec],
        threads: usize,
        path: &Path,
        spool: &Path,
        opts: &V2WriteOptions,
    ) -> Result<Self, CoreError> {
        let meta = encode_meta_der(program.name(), cfg.scope, &cfg.max_hierarchy);
        let coding = if opts.dict { RecordCoding::Der } else { RecordCoding::Lzss };
        let mut w = paged::PagedWriter::new(BufWriter::new(File::create(spool)?), &meta)?;
        spool_pipelined(program, cfg, windows, threads, coding, |rec| w.push_record(&rec))?;
        if w.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        w.finish()?;

        // Not a `LivePointLibrary`: DER records would not decode.
        let file = File::open(spool)?;
        let len = file.metadata()?.len();
        let (spooled, _) = PagedSource::open(Source::File(file), len)?;
        let mut order: Vec<u32> = (0..spooled.records.len() as u32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(cfg.seed ^ CREATION_SHUFFLE_SALT));
        save_image(path, &meta, |w| match coding {
            RecordCoding::Der => {
                write_dict_blocks(w, &spooled, &order, RecordCoding::Der, opts, threads)
            }
            RecordCoding::Lzss => {
                let mut buf = Vec::new();
                for &stored in &order {
                    w.push_record(spooled.read_record(stored as usize, &mut buf)?)?;
                }
                Ok(())
            }
        })?;
        drop(spooled);
        Self::open(path)
    }

    /// The benchmark this library samples.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The warm-state scope the library was created with.
    pub fn scope(&self) -> StateScope {
        self.scope
    }

    /// The maximum hierarchy geometry the library supports.
    pub fn max_hierarchy(&self) -> &HierarchyConfig {
        &self.max_hierarchy
    }

    /// The container format serving this library's records: always 2,
    /// since fresh and v1 libraries are served from a v2 image too.
    pub fn format_version(&self) -> u16 {
        paged::V2_VERSION
    }

    /// Number of live-points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the library holds no live-points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode live-point `index` (one positioned read, decompression and
    /// DER decode — the cost the paper charts as "checkpoint processing
    /// time" in Fig 8).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfRange`] or a codec/I-O fault.
    pub fn get(&self, index: usize) -> Result<LivePoint, CoreError> {
        self.get_with(&mut DecodeScratch::new(), index)
    }

    /// Decode live-point `index` reusing `scratch`'s buffers — the
    /// hot-path variant of [`get`](Self::get) used by the runners so
    /// repeated decodes allocate nothing for decompression.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfRange`] or a codec/I-O fault.
    pub fn get_with(
        &self,
        scratch: &mut DecodeScratch,
        index: usize,
    ) -> Result<LivePoint, CoreError> {
        self.decompress_record_into(index, scratch)?;
        decode_livepoint(&scratch.der)
    }

    /// Fill `scratch.der` with the decompressed DER image of record
    /// `index` (processing order).
    fn decompress_record_into(
        &self,
        index: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CoreError> {
        let stored = *self
            .order
            .get(index)
            .ok_or(CoreError::IndexOutOfRange { index, len: self.order.len() })?;
        self.paged.decompress_into(stored as usize, scratch)
    }

    /// Iterate decoded live-points in (shuffled) processing order.
    ///
    /// ```no_run
    /// # use spectral_core::{CreationConfig, LivePointLibrary};
    /// # fn demo(library: &LivePointLibrary) -> Result<(), spectral_core::CoreError> {
    /// for lp in library.iter() {
    ///     let lp = lp?;
    ///     println!("window at {}", lp.window.measure_start);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter { library: self, index: 0, scratch: DecodeScratch::new() }
    }

    /// Compressed size of record `index` in bytes, straight from the
    /// footer index — no read, no decompression.
    pub fn record_bytes(&self, index: usize) -> Option<usize> {
        let stored = *self.order.get(index)? as usize;
        Some(self.paged.records[stored].len as usize)
    }

    /// Total compressed library size in bytes (the paper's "12 GB for
    /// SPEC2K" quantity, at this repo's scale): the footer-index sum —
    /// no reads.
    pub fn total_compressed_bytes(&self) -> u64 {
        self.paged.record_bytes
    }

    /// CRC32 content hash over the compressed records in processing
    /// order — the library identity stamped into run manifests (two
    /// libraries with equal hashes process identical points in
    /// identical order). Computed once and cached; any reordering
    /// mutation invalidates the cache.
    ///
    /// A library in its stored order — fresh, opened, or merged —
    /// returns the trailer hash (for dictionary-less images this is the
    /// v1 content hash of the same records). A *re-shuffled* library
    /// hashes the footer's per-record CRCs in processing order instead —
    /// still a deterministic identity, without touching record bodies.
    pub fn content_hash(&self) -> u32 {
        *self.cache_hash.get_or_init(|| {
            let p = &self.paged;
            if self.order.iter().enumerate().all(|(i, &s)| i as u32 == s) {
                p.stored_hash
            } else {
                let mut h = crc32::Hasher::new();
                for &s in &self.order {
                    h.update(&p.records[s as usize].crc.to_le_bytes());
                }
                h.finalize()
            }
        })
    }

    /// Mean compressed bytes per live-point.
    pub fn mean_point_bytes(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.total_compressed_bytes() / self.len() as u64
        }
    }

    /// Mean uncompressed (DER) bytes per live-point, with the Figure 7
    /// component breakdown averaged over up to `sample` points.
    ///
    /// # Errors
    ///
    /// Propagates decode faults.
    pub fn mean_breakdown(&self, sample: usize) -> Result<SizeBreakdown, CoreError> {
        let n = sample.min(self.len()).max(1);
        let mut acc = SizeBreakdown::default();
        for i in 0..n {
            let b = self.get(i)?.size_breakdown();
            acc.regs_tlb += b.regs_tlb;
            acc.bpred += b.bpred;
            acc.l1i_tags += b.l1i_tags;
            acc.l1d_tags += b.l1d_tags;
            acc.l2_tags += b.l2_tags;
            acc.memory_data += b.memory_data;
        }
        let n = n as u64;
        Ok(SizeBreakdown {
            regs_tlb: acc.regs_tlb / n,
            bpred: acc.bpred / n,
            l1i_tags: acc.l1i_tags / n,
            l1d_tags: acc.l1d_tags / n,
            l2_tags: acc.l2_tags / n,
            memory_data: acc.memory_data / n,
        })
    }

    /// Re-shuffle the processing order (deterministic in `seed`). Only
    /// the in-memory order indirection moves — the image is untouched.
    pub fn shuffle(&mut self, seed: u64) {
        self.order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        self.cache_hash = OnceLock::new();
    }

    /// The library metadata payload (benchmark, scope, hierarchy
    /// bounds) as DER — the v2 metadata frame.
    fn meta_der(&self) -> Vec<u8> {
        encode_meta_der(&self.benchmark, self.scope, &self.max_hierarchy)
    }

    /// Visit the plain-LZSS bytes of every record in processing order.
    /// Dictionary-less records are raw-copied; dictionary records are
    /// decompressed and deterministically recompressed, so writing a
    /// library with dictionaries and back without them is
    /// byte-identical.
    fn for_each_plain_record(
        &self,
        mut f: impl FnMut(&[u8]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let p = &self.paged;
        let mut buf = Vec::new();
        let mut der = Vec::new();
        let mut scratch = lzss::CompressScratch::new();
        for &stored in &self.order {
            let stored = stored as usize;
            let comp = p.read_record(stored, &mut buf)?;
            match p.dict(p.records[stored].block as usize)? {
                None => f(comp)?,
                Some(dict) => {
                    lzss::decompress_into_with_dict(&dict, comp, &mut der)?;
                    f(&lzss::compress_with(&mut scratch, &der))?;
                }
            }
        }
        Ok(())
    }

    /// Serialize the library to its canonical v2 image: records in
    /// processing order, one dictionary-less block — what
    /// [`save_v2`](Self::save_v2) writes with `dict: false`. Libraries
    /// with equal images hold identical points in identical order.
    ///
    /// # Errors
    ///
    /// Propagates read faults from the library's image.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut image = Vec::new();
        let mut w = paged::PagedWriter::new(&mut image, &self.meta_der())?;
        self.for_each_plain_record(|rec| Ok(w.push_record(rec)?))?;
        w.finish()?;
        Ok(image)
    }

    /// Parse a library from container bytes of either format. A v2
    /// image is copied and every record CRC-checked once; a v1 stream is
    /// re-framed into a dictionary-less v2 image, each record
    /// CRC-checked and copied, never decompressed. Either way, reads
    /// then borrow the records without a per-read check.
    ///
    /// # Errors
    ///
    /// Propagates container/DER faults; a v1 container without a
    /// metadata record is [`CoreError::EmptyLibrary`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        if sniff_version(data)? == paged::V2_VERSION {
            let lib = Self::from_image(data.to_vec())?;
            lib.paged.check_records()?;
            return Ok(lib);
        }
        let mut reader = ContainerReader::new(data)?;
        let meta = reader.next_record()?.ok_or(CoreError::EmptyLibrary)?;
        let mut image = Vec::with_capacity(data.len());
        let mut w = paged::PagedWriter::new(&mut image, &meta)?;
        while let Some(rec) = reader.next_record_compressed()? {
            w.push_record(rec)?;
        }
        w.finish()?;
        Self::from_image(image)
    }

    /// Serve a library from an in-memory v2 image whose records the
    /// caller has CRC-checked (or just written).
    fn from_image(image: Vec<u8>) -> Result<Self, CoreError> {
        let len = image.len() as u64;
        Self::open_paged(Source::Bytes(image), len)
    }

    /// Save to a file as a v2 paged container, returning the writer's
    /// size summary. Without dictionaries this is a pure re-framing of
    /// the plain-compressed records (no decompression for
    /// dictionary-less libraries). With dictionaries every record is
    /// decompressed to its DER image once and handed, a block of
    /// [`V2WriteOptions::block_points`] records at a time, to the
    /// dictionary block writer that streamed creation uses too: it
    /// samples the block's dictionary from the block's own records and
    /// compresses each record once against it.
    ///
    /// The container streams into a temp sibling and is fsynced and
    /// renamed into place only after a complete, CRC-consistent write
    /// (fault site `library.v2.save`), so a crash mid-save never leaves
    /// a torn container at `path`.
    ///
    /// # Example
    ///
    /// Build a small library, save it, and reopen it:
    ///
    /// ```
    /// use spectral_core::{CreationConfig, LivePointLibrary, V2WriteOptions};
    /// use spectral_uarch::MachineConfig;
    ///
    /// let program = spectral_workloads::tiny().build();
    /// let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(4);
    /// let library = LivePointLibrary::create(&program, &cfg)?;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-save-{}.slp", std::process::id()));
    /// library.save_v2(&path, &V2WriteOptions::default())?;
    /// let reopened = LivePointLibrary::open(&path)?;
    /// assert_eq!(reopened.len(), library.len());
    /// assert_eq!(reopened.benchmark(), library.benchmark());
    /// std::fs::remove_file(&path).ok();
    /// # Ok::<(), spectral_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec faults.
    pub fn save_v2(
        &self,
        path: impl AsRef<Path>,
        opts: &V2WriteOptions,
    ) -> Result<paged::V2Summary, CoreError> {
        save_image(path.as_ref(), &self.meta_der(), |w| {
            if opts.dict {
                write_dict_blocks(w, &self.paged, &self.order, RecordCoding::Lzss, opts, 1)
            } else {
                self.for_each_plain_record(|rec| Ok(w.push_record(rec)?))
            }
        })
    }

    /// Open a library file of either format. v2 files open paged — only
    /// the header, metadata, and footer index are read, and records are
    /// fetched with positioned reads on demand; v1 files are read whole
    /// and re-framed (see [`from_bytes`](Self::from_bytes)).
    ///
    /// # Errors
    ///
    /// Propagates I/O and container faults.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::open_versioned(path.as_ref()).map(|(_, lib)| lib)
    }

    /// [`open`](Self::open), also returning the file's format version.
    fn open_versioned(path: &Path) -> Result<(u16, Self), CoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 6 {
            return Err(CodecError::Truncated.into());
        }
        let source = Source::File(file);
        let version = sniff_version(source.bytes_at(0, 6, &mut Vec::new())?)?;
        let lib = match version {
            1 => Self::from_bytes(&std::fs::read(path)?)?,
            paged::V2_VERSION => Self::open_paged(source, file_len)?,
            v => return Err(CodecError::UnsupportedVersion { found: v }.into()),
        };
        Ok((version, lib))
    }

    /// Open a v2 image over `source`: header + metadata + footer index
    /// only; no record is read or decompressed.
    fn open_paged(source: Source, file_len: u64) -> Result<Self, CoreError> {
        let sw = Stopwatch::start();
        let (paged, meta_der) = PagedSource::open(source, file_len)?;
        let (benchmark, scope, max_hierarchy) = parse_meta_der(&meta_der)?;
        let lib = LivePointLibrary {
            benchmark,
            scope,
            max_hierarchy,
            order: (0..paged.records.len() as u32).collect(),
            paged: Arc::new(paged),
            cache_hash: OnceLock::new(),
        };
        TLM_OPEN_NS.add(sw.ns());
        TLM_OPENS.inc();
        Ok(lib)
    }

    /// Metadata-only open: benchmark, scope, hierarchy bounds, point
    /// count, and size totals without decompressing a single record. A
    /// v2 file is read for its header and footer only; a v1 file is
    /// read whole and re-framed, so the header reports the re-framed
    /// image's blocks and content hash.
    ///
    /// # Errors
    ///
    /// Propagates I/O and container faults.
    pub fn open_header(path: impl AsRef<Path>) -> Result<LibraryHeader, CoreError> {
        let path = path.as_ref();
        let file_bytes = std::fs::metadata(path)?.len();
        let (format_version, lib) = Self::open_versioned(path)?;
        let p = &lib.paged;
        Ok(LibraryHeader {
            format_version,
            benchmark: lib.benchmark.clone(),
            scope: lib.scope,
            max_hierarchy: lib.max_hierarchy,
            points: p.records.len() as u64,
            blocks: p.blocks.len() as u64,
            total_compressed_bytes: p.record_bytes,
            file_bytes,
            content_hash: p.stored_hash,
        })
    }

    /// Points from libraries with different benchmarks or creation
    /// bounds cannot be processed interchangeably.
    fn check_mergeable(&self, other: &Self) -> Result<(), CoreError> {
        if other.benchmark != self.benchmark
            || other.max_hierarchy != self.max_hierarchy
            || other.scope != self.scope
        {
            return Err(CoreError::BenchmarkMismatch {
                expected: self.benchmark.clone(),
                found: other.benchmark.clone(),
            });
        }
        Ok(())
    }

    /// Merge another library of the same benchmark into this one
    /// (growing the sample-size upper bound, e.g. when a comparative
    /// study needs more points than originally planned — the risk §6.2
    /// discusses). The merged records are re-shuffled into a new
    /// in-memory image by the index-level writer of
    /// [`merge_files`](Self::merge_files), so no record is
    /// decompressed and the permutation matches `merge_files` of the
    /// same inputs with the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkMismatch`] when the benchmark or
    /// creation bounds differ, plus any read fault.
    pub fn merge(&mut self, other: LivePointLibrary, shuffle_seed: u64) -> Result<(), CoreError> {
        self.check_mergeable(&other)?;
        let mut image = Vec::new();
        Self::merge_into(&[&*self, &other], &mut image, shuffle_seed)?;
        *self = Self::from_image(image)?;
        Ok(())
    }

    /// Merge library files of either format into one v2 container at
    /// the index level: dictionaries and record bodies are raw-copied
    /// (CRC-verified, never decompressed), block pointers are remapped,
    /// and the combined records are written in a seeded shuffled order.
    ///
    /// Returns the merged library, opened paged from `out`.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyLibrary`] for no inputs,
    /// [`CoreError::BenchmarkMismatch`] when the inputs disagree on
    /// benchmark or creation bounds, plus any I/O or container fault.
    pub fn merge_files<P: AsRef<Path>>(
        inputs: &[P],
        out: impl AsRef<Path>,
        shuffle_seed: u64,
    ) -> Result<Self, CoreError> {
        if inputs.is_empty() {
            return Err(CoreError::EmptyLibrary);
        }
        let libs = inputs.iter().map(Self::open).collect::<Result<Vec<_>, _>>()?;
        for lib in &libs[1..] {
            libs[0].check_mergeable(lib)?;
        }
        let out = out.as_ref();
        spectral_faultd::probe("library.merge.save")?;
        let tmp = tmp_sibling(out);
        let refs: Vec<&Self> = libs.iter().collect();
        let written = File::create(&tmp)
            .map_err(CoreError::from)
            .and_then(|f| Self::merge_into(&refs, BufWriter::new(f), shuffle_seed));
        publish("library.merge.save", &tmp, out, written)?;
        Self::open(out)
    }

    /// The index-level merge writer behind [`merge`](Self::merge) and
    /// [`merge_files`](Self::merge_files), streaming the merged
    /// container into `out`.
    fn merge_into<W: Write>(libs: &[&Self], out: W, shuffle_seed: u64) -> Result<(), CoreError> {
        let mut w = paged::PagedWriter::new(out, &libs[0].meta_der())?;

        // Write every input's dictionaries up front; records then point
        // back at them through a per-input block-id base.
        let mut block_base = Vec::with_capacity(libs.len());
        let mut written_blocks = 0u32;
        let mut buf = Vec::new();
        for lib in libs {
            block_base.push(written_blocks);
            let p = &lib.paged;
            for (bi, b) in p.blocks.iter().enumerate() {
                if b.dict_len == 0 {
                    w.begin_block(&[])?;
                } else {
                    w.begin_block(p.read_dict_raw(bi, &mut buf)?)?;
                }
                written_blocks += 1;
            }
        }

        // Shuffle the concatenated processing orders.
        let mut all: Vec<(u32, u32)> = Vec::new();
        for (li, lib) in libs.iter().enumerate() {
            all.extend((0..lib.len() as u32).map(|i| (li as u32, i)));
        }
        all.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle_seed));

        for (li, i) in all {
            let p = &libs[li as usize].paged;
            let stored = libs[li as usize].order[i as usize] as usize;
            let rec = p.read_record(stored, &mut buf)?;
            w.push_record_in_block(rec, block_base[li as usize] + p.records[stored].block)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Create one library per program, spreading `threads` workers
    /// across benchmarks and, within each benchmark, across the
    /// encode/compress pipeline of
    /// [`create_parallel`](Self::create_parallel) — the batch shape the
    /// experiment binaries use ("simulation on clusters", §6.1).
    /// Results are returned in input order and are identical to
    /// per-program serial creation.
    ///
    /// # Errors
    ///
    /// Propagates the first per-program creation fault.
    pub fn create_all(
        programs: &[Program],
        cfg: &CreationConfig,
        threads: usize,
    ) -> Result<Vec<LivePointLibrary>, CoreError> {
        if programs.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.max(1);
        let outer = threads.min(programs.len());
        if outer <= 1 {
            return programs.iter().map(|p| Self::create_parallel(p, cfg, threads)).collect();
        }
        // Remaining parallelism goes to each benchmark's encode stage.
        let inner = (threads / outer).max(1);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<LivePointLibrary, CoreError>>>> =
            programs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..outer {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(program) = programs.get(i) else { break };
                    let lib = Self::create_parallel(program, cfg, inner);
                    *results[i].lock().expect("result lock") = Some(lib);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("result lock").expect("worker filled slot"))
            .collect()
    }
}

/// The paper's periodic sample design over `program` for `cfg`.
fn design_windows(program: &Program, cfg: &CreationConfig) -> Vec<WindowSpec> {
    let n = benchmark_length(program);
    SystematicDesign::new(cfg.unit_len, cfg.warm_len).windows(n, cfg.sample_size, cfg.seed)
}

/// Reject an empty window list; panic on an unsorted one.
fn check_windows(windows: &[WindowSpec]) -> Result<(), CoreError> {
    if windows.is_empty() {
        return Err(CoreError::BenchmarkTooShort);
    }
    assert!(
        windows.windows(2).all(|w| w[0].end() <= w[1].detail_start),
        "windows must be sorted and non-overlapping"
    );
    Ok(())
}

/// The temp sibling a streaming save writes to before its atomic
/// rename: `<file>.tmp.<pid>`, in the same directory so the rename
/// stays within one filesystem.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".tmp.{}", std::process::id()));
    std::path::PathBuf::from(name)
}

/// Finish a streaming save: when `written` succeeded, durably publish
/// the temp file at `path` — fsync the temp, rename it over `path`,
/// then fsync the parent directory (best-effort) so the rename itself
/// survives a crash; when it failed, remove the temp. `{site}.rename`
/// is a fault kill-point between fsync and rename — a SIGKILL there
/// leaves the old file (or nothing) plus a temp sibling, never a torn
/// container.
fn publish<T>(
    site: &str,
    tmp: &Path,
    path: &Path,
    written: Result<T, CoreError>,
) -> Result<T, CoreError> {
    let value = match written {
        Ok(value) => value,
        Err(e) => {
            std::fs::remove_file(tmp).ok();
            return Err(e);
        }
    };
    File::open(tmp)?.sync_all()?;
    spectral_faultd::kill_point(&format!("{site}.rename"));
    std::fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(value)
}

/// Write a v2 container to `path` durably: a [`paged::PagedWriter`]
/// over a temp sibling, filled by `fill`, finished, then published by
/// [`publish`] under fault site `library.v2.save`.
fn save_image(
    path: &Path,
    meta_der: &[u8],
    fill: impl FnOnce(&mut paged::PagedWriter<BufWriter<File>>) -> Result<(), CoreError>,
) -> Result<paged::V2Summary, CoreError> {
    spectral_faultd::probe("library.v2.save")?;
    let tmp = tmp_sibling(path);
    let written = File::create(&tmp).map_err(CoreError::from).and_then(|f| {
        let mut w = paged::PagedWriter::new(BufWriter::new(f), meta_der)?;
        fill(&mut w)?;
        Ok(w.finish()?)
    });
    publish("library.v2.save", &tmp, path, written)
}

/// How the records of a paged image are coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordCoding {
    /// LZSS streams, plain or primed by their block's dictionary: a
    /// library image.
    Lzss,
    /// Uncompressed DER images: a creation spool bound for a file with
    /// dictionaries.
    Der,
}

/// One dictionary block, compressed: its plain-LZSS dictionary (empty
/// for none) and its records compressed against the dictionary.
struct DictBlock {
    dict: Vec<u8>,
    records: Vec<Vec<u8>>,
}

/// The dictionary block writer: append records `order[0..]` of `src`
/// (stored indices, in processing order) to `w` as blocks of
/// [`V2WriteOptions::block_points`] records, each compressed once
/// against a dictionary sampled from its own records. Blocks are
/// compressed on `threads` workers and written in block order.
fn write_dict_blocks<W: Write + Send>(
    w: &mut paged::PagedWriter<W>,
    src: &PagedSource,
    order: &[u32],
    coding: RecordCoding,
    opts: &V2WriteOptions,
    threads: usize,
) -> Result<(), CoreError> {
    let per = opts.block_points.max(1);
    ordered_pipeline(
        threads,
        2 * threads,
        |emit| {
            for block in order.chunks(per) {
                if !emit(block) {
                    break;
                }
            }
        },
        || (DecodeScratch::new(), lzss::CompressScratch::new()),
        |(dec, lz), block| compress_dict_block(src, block, coding, opts, dec, lz),
        |block: DictBlock| {
            w.begin_block(&block.dict)?;
            for rec in &block.records {
                w.push_record(rec)?;
            }
            Ok(())
        },
    )
}

/// Compress the stored records `block` of `src` as one dictionary
/// block. The dictionary concatenates prefixes of up to
/// [`V2WriteOptions::dict_samples`] evenly-spaced records of the block,
/// capped at [`V2WriteOptions::dict_cap`] bytes: live-point DER images
/// within a benchmark share heavy structure (same hierarchy geometry,
/// overlapping warm sets), so even a small sample primes the LZSS
/// window well.
fn compress_dict_block(
    src: &PagedSource,
    block: &[u32],
    coding: RecordCoding,
    opts: &V2WriteOptions,
    dec: &mut DecodeScratch,
    lz: &mut lzss::CompressScratch,
) -> Result<DictBlock, CoreError> {
    let sw = Stopwatch::start();
    let mut dict = Vec::new();
    if opts.dict_cap > 0 && opts.dict_samples > 0 {
        let samples = opts.dict_samples.min(block.len());
        let per = (opts.dict_cap / samples).max(1);
        for k in 0..samples {
            let der = src.der(block[k * block.len() / samples] as usize, coding, dec)?;
            dict.extend_from_slice(&der[..per.min(der.len())]);
            if dict.len() >= opts.dict_cap {
                dict.truncate(opts.dict_cap);
                break;
            }
        }
    }
    let dict_comp = if dict.is_empty() { Vec::new() } else { lzss::compress_with(lz, &dict) };
    TLM_DICT_BUILD_NS.add(sw.ns());
    let mut records = Vec::with_capacity(block.len());
    for &stored in block {
        records.push(lzss::compress_with_dict(lz, &dict, src.der(stored as usize, coding, dec)?));
    }
    Ok(DictBlock { dict: dict_comp, records })
}

/// DER-encode the library metadata payload.
fn encode_meta_der(benchmark: &str, scope: StateScope, h: &HierarchyConfig) -> Vec<u8> {
    let mut meta = DerWriter::new();
    meta.seq(|w| {
        w.utf8(benchmark);
        w.u64(enc_scope(scope));
        enc_hierarchy(w, h);
    });
    meta.finish()
}

/// Parse the library metadata payload written by [`encode_meta_der`].
fn parse_meta_der(meta: &[u8]) -> Result<(String, StateScope, HierarchyConfig), CoreError> {
    let mut r = DerReader::new(meta);
    let mut s = r.seq()?;
    let benchmark = s.utf8()?.to_owned();
    let scope = dec_scope(s.u64()?);
    Ok((benchmark, scope, dec_hierarchy(&mut s)?))
}

/// Run the sequential functional-warming walk over `windows`, handing
/// each completed window's [`LivePoint`] to `sink` in window order.
/// Stops early when the benchmark halts before the remaining windows,
/// or when `sink` returns `false`.
fn walk_windows(
    program: &Program,
    cfg: &CreationConfig,
    windows: &[WindowSpec],
    mut sink: impl FnMut(LivePoint) -> bool,
) {
    let mut warmers = CreationWarmers::new(cfg);
    let mut emu = Emulator::new(program);
    for (i, w) in windows.iter().enumerate() {
        // Functional warming up to the window.
        let sw = Stopwatch::start();
        while emu.seq() < w.detail_start && !emu.is_halted() {
            if let Some(di) = emu.step() {
                warmers.observe(&di);
            }
        }
        TLM_WARM_NS.add(sw.ns());
        if emu.is_halted() {
            break;
        }
        let sw = Stopwatch::start();
        let payload = warmers.snapshot();
        let mut collector = LiveStateCollector::begin(&emu);
        let mut touched = TouchedState::default();
        let hard_end = windows.get(i + 1).map(|next| next.detail_start).unwrap_or(u64::MAX);
        let limit = (w.end() + cfg.read_slack).min(hard_end);
        while emu.seq() < limit && !emu.is_halted() {
            let Some(di) = emu.step() else { break };
            warmers.observe(&di);
            if di.seq < w.end() && cfg.scope == StateScope::Restricted {
                touched.observe(&di, &cfg.max_hierarchy);
            }
            if let Some((op, addr)) = di.mem {
                collector.observe(op, addr, emu.memory().read_u64(addr));
            }
        }
        let live_state = collector.finish();
        let warm = match cfg.scope {
            StateScope::Full => payload,
            StateScope::Restricted => restrict_payload(payload, &touched),
        };
        TLM_SNAPSHOT_NS.add(sw.ns());
        TLM_WINDOWS.inc();
        let more = sink(LivePoint {
            benchmark: program.name().to_owned(),
            window: *w,
            scope: cfg.scope,
            live_state,
            warm,
            max_hierarchy: cfg.max_hierarchy,
        });
        if !more {
            break;
        }
    }
}

/// Records the warming walk may run ahead of the spool writer beyond the
/// `2 × threads` that keep its encode workers fed. The walk is the
/// creation's critical path, and its workers and writer wake once per
/// record: the slack lets the walk run on while one of them waits for a
/// CPU, where a bound of `2 × threads` stalls it at each such wait. A
/// queued gcc-like live-point holds about 150 KB, so the slack costs at
/// most about 10 MB.
const WALK_SLACK: usize = 64;

/// The creation pipeline behind both creation paths: run the warming
/// walk over `windows` and hand each record to `sink` in window order —
/// a DER image for [`RecordCoding::Der`], a plain-LZSS record
/// otherwise. `threads <= 1` encodes inline; otherwise the walk feeds
/// `threads` encode workers through [`ordered_pipeline`], so at most
/// `2 × threads +` [`WALK_SLACK`] records are in flight beyond what the
/// sink keeps. Returns the first sink fault, after which no record
/// reaches the sink and the walk stops.
fn spool_pipelined(
    program: &Program,
    cfg: &CreationConfig,
    windows: &[WindowSpec],
    threads: usize,
    coding: RecordCoding,
    sink: impl FnMut(Vec<u8>) -> std::io::Result<()> + Send,
) -> std::io::Result<()> {
    ordered_pipeline(
        threads,
        2 * threads + WALK_SLACK,
        |emit| walk_windows(program, cfg, windows, emit),
        lzss::CompressScratch::new,
        |scratch, lp| {
            Ok(match coding {
                RecordCoding::Der => encode_record(&lp),
                RecordCoding::Lzss => compress_record(scratch, &lp),
            })
        },
        sink,
    )
}

/// Map the items `produce` emits through `work` on `threads` workers,
/// each with its own `scratch()`, and hand the results to `sink` in
/// emission order, on a writer thread that reorders them. The producer
/// runs on the calling thread and takes one of `window` credits per
/// item, which the writer returns once the item is sunk: at most that
/// many items are queued, being worked on, or waiting to be written.
/// Returns the first fault of `work` or `sink` in emission order; from
/// then on nothing more reaches the sink and `emit` returns `false`, so
/// the producer can stop. A panic in `work` is carried to the writer
/// and resumed on the calling thread.
/// `threads <= 1` runs everything inline on the calling thread.
fn ordered_pipeline<I: Send, O: Send, S, E: Send>(
    threads: usize,
    window: usize,
    produce: impl FnOnce(&mut dyn FnMut(I) -> bool),
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, I) -> Result<O, E> + Sync,
    mut sink: impl FnMut(O) -> Result<(), E> + Send,
) -> Result<(), E> {
    use std::sync::mpsc;
    let mut result = Ok(());
    if threads <= 1 {
        let mut s = scratch();
        produce(&mut |item| {
            if result.is_ok() {
                result = work(&mut s, item).and_then(&mut sink);
            }
            result.is_ok()
        });
        return result;
    }
    let window = window.max(1);
    let (credit_tx, credits) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        credit_tx.send(()).expect("the credit channel holds every credit");
    }
    let (tx, rx) = mpsc::channel::<(usize, I)>();
    let (otx, orx) = mpsc::channel::<(usize, std::thread::Result<Result<O, E>>)>();
    let rx = Mutex::new(rx);
    let stopped = &std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (rx, otx, scratch, work) = (&rx, otx.clone(), &scratch, &work);
            scope.spawn(move || {
                let mut s = scratch();
                loop {
                    // Take the queue lock only to pull the next item;
                    // the work runs unlocked.
                    let job = rx.lock().expect("job queue lock").recv();
                    let Ok((seq, item)) = job else { break };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        work(&mut s, item)
                    }));
                    if otx.send((seq, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(otx);
        let writer = scope.spawn(move || {
            let mut pending = BTreeMap::new();
            let mut next = 0usize;
            for (seq, out) in orx {
                pending.insert(seq, out);
                while let Some(out) = pending.remove(&next) {
                    let sunk = out
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                        .and_then(&mut sink);
                    if sunk.is_err() {
                        stopped.store(true, std::sync::atomic::Ordering::Relaxed);
                        return sunk;
                    }
                    next += 1;
                    // Never blocks: only `window` credits exist.
                    let _ = credit_tx.send(());
                }
            }
            Ok(())
        });
        // A failed writer raises `stopped`, and a panicked one drops the
        // credit sender, so `recv` fails once its credits are spent:
        // either way `emit` reports the stop.
        let mut seq = 0;
        produce(&mut |item| {
            let sent = !stopped.load(std::sync::atomic::Ordering::Relaxed)
                && credits.recv().is_ok()
                && tx.send((seq, item)).is_ok();
            seq += 1;
            sent
        });
        drop(tx);
        result = writer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    });
    result
}

/// Iterator over a library's decoded live-points; created by
/// [`LivePointLibrary::iter`]. Carries its own [`DecodeScratch`] so a
/// full-library sweep reuses one decompression buffer.
#[derive(Debug)]
pub struct Iter<'l> {
    library: &'l LivePointLibrary,
    index: usize,
    scratch: DecodeScratch,
}

impl Iterator for Iter<'_> {
    type Item = Result<LivePoint, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.library.len() {
            return None;
        }
        let item = self.library.get_with(&mut self.scratch, self.index);
        self.index += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.library.len() - self.index;
        (left, Some(left))
    }
}

fn restrict_payload(payload: WarmPayload, touched: &TouchedState) -> WarmPayload {
    use crate::creation::filter_csr;
    WarmPayload {
        l1i: filter_csr(&payload.l1i, &touched.l1i),
        l1d: filter_csr(&payload.l1d, &touched.l1d),
        l2: filter_csr(&payload.l2, &touched.l2),
        itlb: filter_csr(&payload.itlb, &touched.itlb),
        dtlb: filter_csr(&payload.dtlb, &touched.dtlb),
        bpreds: payload.bpreds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectral_uarch::MachineConfig;
    use spectral_workloads::tiny;

    fn small_cfg() -> CreationConfig {
        CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(12)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("spectral_test_{name}_{}", std::process::id()))
    }

    /// Decoded window starts in processing order — the order-sensitive
    /// fingerprint used to compare libraries across containers.
    fn window_seq(l: &LivePointLibrary) -> Vec<u64> {
        (0..l.len()).map(|i| l.get(i).unwrap().window.measure_start).collect()
    }

    /// Frame `lib` as a legacy v1 stream, as the v1 writer laid it out:
    /// the meta record, then every record in processing order.
    fn v1_bytes(lib: &LivePointLibrary) -> Vec<u8> {
        let mut w = spectral_codec::ContainerWriter::new();
        w.push(&lib.meta_der());
        lib.for_each_plain_record(|rec| {
            w.push_compressed(rec);
            Ok(())
        })
        .unwrap();
        w.finish()
    }

    #[test]
    fn create_and_decode() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        assert!(lib.len() >= 10, "got {} points", lib.len());
        let lp = lib.get(0).unwrap();
        assert_eq!(lp.benchmark, "tiny");
        assert!(lp.live_state.word_count() > 0);
        assert!(lp.warm.l2.entry_count() > 0);
    }

    #[test]
    fn shuffled_but_deterministic() {
        let p = tiny().build();
        let a = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let b = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        // Same seed → same order.
        assert_eq!(window_seq(&a), window_seq(&b));
        // Shuffled: not in program order.
        let s = window_seq(&a);
        assert!(s.windows(2).any(|w| w[0] > w[1]), "library should be shuffled: {s:?}");
    }

    #[test]
    fn container_roundtrip() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let bytes = lib.to_bytes().unwrap();
        let back = LivePointLibrary::from_bytes(&bytes).unwrap();
        assert_eq!(back.benchmark(), lib.benchmark());
        assert_eq!(back.len(), lib.len());
        assert_eq!(back.max_hierarchy(), lib.max_hierarchy());
        assert_eq!(back.get(3).unwrap().window, lib.get(3).unwrap().window);
    }

    #[test]
    fn corrupt_record_fails_the_file_read_and_the_bytes_load() {
        let p = tiny().build();
        let mut bytes = LivePointLibrary::create(&p, &small_cfg()).unwrap().to_bytes().unwrap();
        let offset = LivePointLibrary::from_bytes(&bytes).unwrap().paged.records[0].offset;
        bytes[offset as usize] ^= 0x5a;
        let crc_fault = |r: Result<_, CoreError>| {
            matches!(r, Err(CoreError::Codec(CodecError::CrcMismatch { frame: 0 })))
        };
        // In memory the records are checked once, up front ...
        assert!(crc_fault(LivePointLibrary::from_bytes(&bytes).map(|_| ())));
        // ... while a file checks each record as it is read.
        let path = temp_path("corrupt_record.splp");
        std::fs::write(&path, &bytes).unwrap();
        let opened = LivePointLibrary::open(&path).unwrap();
        assert!(crc_fault(opened.get(0).map(|_| ())));
        assert!(opened.get(1).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_is_reframed_on_open() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let path = temp_path("library_v1.splp");
        std::fs::write(&path, v1_bytes(&lib)).unwrap();
        let back = LivePointLibrary::open(&path).unwrap();
        assert_eq!(back.format_version(), 2);
        assert_eq!(back.len(), lib.len());
        assert_eq!(back.content_hash(), lib.content_hash());
        assert_eq!(back.to_bytes().unwrap(), lib.to_bytes().unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_roundtrip_dict_off() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let path = temp_path("library_v2_plain.splp");
        let opts = V2WriteOptions { dict: false, ..V2WriteOptions::default() };
        let summary = lib.save_v2(&path, &opts).unwrap();
        assert_eq!(summary.count as usize, lib.len());
        // Dictionary-less records are raw-copied, so the stored content
        // hash equals the in-memory hash …
        assert_eq!(summary.content_hash, lib.content_hash());
        let back = LivePointLibrary::open(&path).unwrap();
        assert_eq!(back.format_version(), 2);
        assert_eq!(back.benchmark(), lib.benchmark());
        assert_eq!(back.scope(), lib.scope());
        assert_eq!(back.max_hierarchy(), lib.max_hierarchy());
        assert_eq!(back.len(), lib.len());
        assert_eq!(back.content_hash(), lib.content_hash());
        // … as do the footer-derived sizes.
        assert_eq!(back.total_compressed_bytes(), lib.total_compressed_bytes());
        for i in 0..lib.len() {
            assert_eq!(back.record_bytes(i), lib.record_bytes(i));
        }
        assert_eq!(window_seq(&back), window_seq(&lib));
        assert_eq!(
            back.mean_breakdown(4).unwrap().regs_tlb,
            lib.mean_breakdown(4).unwrap().regs_tlb
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_roundtrip_dict_on_and_ratio() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let path = temp_path("library_v2_dict.splp");
        lib.save_v2(&path, &V2WriteOptions::default()).unwrap();
        let back = LivePointLibrary::open(&path).unwrap();
        assert_eq!(back.len(), lib.len());
        assert_eq!(window_seq(&back), window_seq(&lib));
        // Every point decodes identically through the dictionary.
        for i in 0..lib.len() {
            assert_eq!(back.get(i).unwrap().window, lib.get(i).unwrap().window);
        }
        // Shared dictionaries must not cost bytes per record.
        assert!(
            back.total_compressed_bytes() <= lib.total_compressed_bytes(),
            "dict records {} B should be <= plain {} B",
            back.total_compressed_bytes(),
            lib.total_compressed_bytes()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dict_round_trip_restores_the_canonical_image() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let image = lib.to_bytes().unwrap();
        let path = temp_path("library_v2_rt.splp");
        lib.save_v2(&path, &V2WriteOptions::default()).unwrap();
        let back = LivePointLibrary::open(&path).unwrap();
        // Dictionary records decompress + deterministically recompress
        // to the exact original plain streams.
        assert_eq!(back.to_bytes().unwrap(), image);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_header_reports_both_formats() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let v1_path = temp_path("header_v1.splp");
        let v2_path = temp_path("header_v2.splp");
        std::fs::write(&v1_path, v1_bytes(&lib)).unwrap();
        let opts = V2WriteOptions { dict: false, ..V2WriteOptions::default() };
        lib.save_v2(&v2_path, &opts).unwrap();

        let h1 = LivePointLibrary::open_header(&v1_path).unwrap();
        assert_eq!(h1.format_version, 1);
        assert_eq!(h1.benchmark, lib.benchmark());
        assert_eq!(h1.points as usize, lib.len());
        assert_eq!(h1.total_compressed_bytes, lib.total_compressed_bytes());
        assert_eq!(h1.scope, lib.scope());
        assert_eq!(&h1.max_hierarchy, lib.max_hierarchy());
        assert_eq!(h1.content_hash, lib.content_hash());
        assert_eq!(h1.file_bytes, std::fs::metadata(&v1_path).unwrap().len());

        let h2 = LivePointLibrary::open_header(&v2_path).unwrap();
        assert_eq!(h2.format_version, 2);
        assert_eq!(h2.benchmark, lib.benchmark());
        assert_eq!(h2.points as usize, lib.len());
        assert_eq!(h2.total_compressed_bytes, lib.total_compressed_bytes());
        assert_eq!(h2.content_hash, lib.content_hash());
        assert!(h2.blocks > 0);

        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    #[test]
    fn streamed_creation_matches_in_memory() {
        let p = tiny().build();
        let cfg = small_cfg();
        let mem = LivePointLibrary::create(&p, &cfg).unwrap();
        let opts = V2WriteOptions { dict: false, ..V2WriteOptions::default() };
        for threads in [1, 4] {
            let path = temp_path(&format!("streamed_{threads}.splp"));
            let streamed =
                LivePointLibrary::create_parallel_to_path(&p, &cfg, threads, &path, &opts).unwrap();
            assert_eq!(streamed.format_version(), 2);
            assert_eq!(streamed.len(), mem.len());
            // Same records, same shuffle ⇒ same stream ⇒ same hash.
            assert_eq!(streamed.content_hash(), mem.content_hash());
            assert_eq!(streamed.to_bytes().unwrap(), mem.to_bytes().unwrap());
            assert_eq!(window_seq(&streamed), window_seq(&mem));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn merge_files_matches_in_memory_merge() {
        let p = tiny().build();
        let a = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let b = LivePointLibrary::create(&p, &small_cfg().with_seed(991)).unwrap();
        let a_path = temp_path("merge_a_v1.splp");
        let b_path = temp_path("merge_b_v2.splp");
        let out_plain = temp_path("merge_out_plain.splp");
        let out_dict = temp_path("merge_out_dict.splp");
        std::fs::write(&a_path, v1_bytes(&a)).unwrap();

        let mut expected = a.clone();
        expected.merge(b.clone(), 5).unwrap();

        // Dictionary-less v2 input: the merged stream raw-copies the
        // exact plain bodies, so the content hash matches in-memory.
        b.save_v2(&b_path, &V2WriteOptions { dict: false, ..V2WriteOptions::default() }).unwrap();
        let merged = LivePointLibrary::merge_files(&[&a_path, &b_path], &out_plain, 5).unwrap();
        assert_eq!(merged.len(), expected.len());
        assert_eq!(merged.content_hash(), expected.content_hash());
        assert_eq!(window_seq(&merged), window_seq(&expected));

        // Dictionary v2 input: bodies differ (dictionary-compressed,
        // copied without decompression) but the order and every decoded
        // point must still match.
        b.save_v2(&b_path, &V2WriteOptions::default()).unwrap();
        let merged = LivePointLibrary::merge_files(&[&a_path, &b_path], &out_dict, 5).unwrap();
        assert_eq!(merged.len(), expected.len());
        assert_eq!(window_seq(&merged), window_seq(&expected));

        for p in [&a_path, &b_path, &out_plain, &out_dict] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn paged_shuffle_is_deterministic_and_complete() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let path = temp_path("library_v2_shuffle.splp");
        lib.save_v2(&path, &V2WriteOptions::default()).unwrap();
        let mut a = LivePointLibrary::open(&path).unwrap();
        let mut b = LivePointLibrary::open(&path).unwrap();
        let before_hash = a.content_hash();
        a.shuffle(7);
        b.shuffle(7);
        assert_eq!(window_seq(&a), window_seq(&b));
        assert_ne!(a.content_hash(), before_hash, "reshuffle must change the identity stamp");
        // Same multiset of points, different order.
        let mut sa = window_seq(&a);
        let mut sl = window_seq(&lib);
        sa.sort_unstable();
        sl.sort_unstable();
        assert_eq!(sa, sl);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_accepts_paged_backing() {
        let p = tiny().build();
        let a = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let b = LivePointLibrary::create(&p, &small_cfg().with_seed(991)).unwrap();
        let path = temp_path("merge_paged_in.splp");
        a.save_v2(&path, &V2WriteOptions::default()).unwrap();
        let b_path = temp_path("merge_paged_b.splp");
        b.save_v2(&b_path, &V2WriteOptions { dict: false, ..V2WriteOptions::default() }).unwrap();
        let out = temp_path("merge_paged_out.splp");
        let on_disk = LivePointLibrary::merge_files(&[&path, &b_path], &out, 5).unwrap();
        let mut paged = LivePointLibrary::open(&path).unwrap();
        let total = a.len() + b.len();
        paged.merge(b, 5).unwrap();
        assert_eq!(paged.len(), total);
        for i in 0..paged.len() {
            paged.get(i).unwrap();
        }
        // The dictionary blocks are copied as they are, so the merged
        // identity is that of the image `merge_files` writes, not the
        // hash of the same points as plain records.
        assert_eq!(paged.content_hash(), on_disk.content_hash());
        let plain = LivePointLibrary::from_bytes(&paged.to_bytes().unwrap()).unwrap();
        assert_ne!(paged.content_hash(), plain.content_hash());
        for file in [&path, &b_path, &out] {
            std::fs::remove_file(file).ok();
        }
    }

    #[test]
    fn restricted_is_smaller_than_full() {
        let p = tiny().build();
        let full = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let restricted =
            LivePointLibrary::create(&p, &small_cfg().with_scope(StateScope::Restricted)).unwrap();
        assert!(
            restricted.total_compressed_bytes() < full.total_compressed_bytes(),
            "restricted {} vs full {}",
            restricted.total_compressed_bytes(),
            full.total_compressed_bytes()
        );
        assert_eq!(restricted.scope(), StateScope::Restricted);
    }

    #[test]
    fn a_sink_fault_comes_back_from_the_pipelined_walk() {
        // A sink error at record k on two threads returns that error:
        // the walk stops instead of blocking on a full queue, and no
        // record after the fault reaches the sink. Run on a watchdog
        // thread so a blocked pipeline fails instead of hanging.
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = tiny().build();
            let cfg = small_cfg();
            let windows = design_windows(&p, &cfg);
            for coding in [RecordCoding::Lzss, RecordCoding::Der] {
                for k in [1, 3] {
                    let mut sunk = 0;
                    let err = spool_pipelined(&p, &cfg, &windows, 2, coding, |_| {
                        sunk += 1;
                        if sunk == k {
                            Err(std::io::Error::other("sink full"))
                        } else {
                            Ok(())
                        }
                    })
                    .unwrap_err();
                    assert_eq!(err.to_string(), "sink full");
                    assert_eq!(sunk, k, "{coding:?}: no record after the fault");
                }
            }
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the pipeline returned the sink fault");
    }

    #[test]
    fn ordered_pipeline_keeps_order_and_bounds_what_is_in_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (threads, window) = (2, 4);
        let sunk = AtomicUsize::new(0);
        let (mut got, mut in_flight) = (Vec::new(), 0);
        ordered_pipeline(
            threads,
            window,
            |emit| {
                for i in 0..64usize {
                    assert!(emit(i));
                    in_flight = in_flight.max(i + 1 - sunk.load(Ordering::SeqCst));
                }
            },
            || (),
            |_, i| {
                // Every 16th item is slow, so later items finish first.
                if i % 16 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Ok::<_, ()>(i)
            },
            |i| {
                got.push(i);
                sunk.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, (0..64).collect::<Vec<_>>(), "results arrive in emission order");
        assert!(in_flight <= window, "{in_flight} items in flight");
    }

    #[test]
    fn pipelined_creation_is_byte_identical() {
        let p = tiny().build();
        let cfg = small_cfg();
        let serial = LivePointLibrary::create_parallel(&p, &cfg, 1).unwrap();
        for threads in [2, 4, 8] {
            let piped = LivePointLibrary::create_parallel(&p, &cfg, threads).unwrap();
            assert_eq!(
                serial.to_bytes().unwrap(),
                piped.to_bytes().unwrap(),
                "pipelined creation with {threads} workers must be byte-identical"
            );
        }
    }

    #[test]
    fn create_all_matches_individual_creation() {
        let programs = vec![tiny().build(), tiny().scaled(2).build()];
        let cfg = small_cfg();
        let batch = LivePointLibrary::create_all(&programs, &cfg, 4).unwrap();
        assert_eq!(batch.len(), 2);
        for (program, lib) in programs.iter().zip(&batch) {
            let solo = LivePointLibrary::create(program, &cfg).unwrap();
            assert_eq!(lib.to_bytes().unwrap(), solo.to_bytes().unwrap());
        }
    }

    #[test]
    fn merge_grows_library() {
        let p = tiny().build();
        let mut a = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let b = LivePointLibrary::create(&p, &small_cfg().with_seed(991)).unwrap();
        let total = a.len() + b.len();
        a.merge(b, 5).unwrap();
        assert_eq!(a.len(), total);
        // Every merged record still decodes.
        for i in 0..a.len() {
            a.get(i).unwrap();
        }
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let p = tiny().build();
        let mut a = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let bigger = CreationConfig::default().with_sample_size(12);
        let b = LivePointLibrary::create(&p, &bigger).unwrap();
        assert!(a.merge(b, 5).is_err());
    }

    #[test]
    fn meta_rejects_a_truncating_associativity() {
        // Caches claiming 2^32 + 4 ways used to read back as 4-way.
        let meta = |assoc: u64| {
            let mut w = DerWriter::new();
            w.seq(|w| {
                w.utf8("tiny").u64(0);
                for _ in 0..3 {
                    w.seq(|w| {
                        w.u64(32 * 1024).u64(assoc).u64(64);
                    });
                }
                for _ in 0..2 {
                    w.seq(|w| {
                        w.u64(64).u64(4).u64(4096);
                    });
                }
            });
            w.finish()
        };
        let (_, _, h) = parse_meta_der(&meta(4)).unwrap();
        assert_eq!(h.l2.assoc(), 4);
        assert!(matches!(
            parse_meta_der(&meta((1 << 32) + 4)),
            Err(CoreError::Codec(CodecError::BadLength))
        ));
    }

    #[test]
    fn out_of_range_get() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        assert!(matches!(lib.get(99_999), Err(CoreError::IndexOutOfRange { .. })));
    }

    #[test]
    fn live_points_far_smaller_than_conventional() {
        // §5's headline: live-state shrinks checkpoints by orders of
        // magnitude relative to the process footprint.
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let lp = lib.get(0).unwrap();
        let conventional = lp.live_state.conventional_bytes;
        let live = lib.mean_point_bytes();
        assert!(
            live * 4 < conventional,
            "live-point {live} B should be far below conventional {conventional} B"
        );
    }
}
