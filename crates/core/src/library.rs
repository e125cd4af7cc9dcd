//! Live-point libraries: creation, shuffling, and on-disk containers.
//!
//! Two on-disk formats are supported (see `DESIGN.md` §library-format):
//!
//! * **v1** — the monolithic [`Container`](spectral_codec::Container)
//!   stream; loading parses every frame up front and holds all
//!   compressed records in memory ([`Backing::Memory`]).
//! * **v2** — the paged container ([`spectral_codec::paged`]); opening
//!   reads only the header and footer index, and each
//!   [`get`](LivePointLibrary::get) is one positioned read
//!   ([`Backing::Paged`]). v2 blocks may carry shared LZSS
//!   dictionaries that prime the compression window for every record
//!   in the block.
//!
//! [`LivePointLibrary::open`] dispatches on the version byte, so
//! callers never care which format a file uses.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use spectral_cache::HierarchyConfig;
use spectral_codec::{
    crc32, frame_header, lzss, paged, sniff_version, CodecError, ContainerReader, ContainerWriter,
    DerReader, DerWriter, FRAME_HEADER_LEN, V1_HEADER_LEN,
};
use spectral_isa::{Emulator, Program};
use spectral_stats::{SampleDesign, SystematicDesign, WindowSpec};
use spectral_telemetry::{Counter, Histogram, Stopwatch};

use crate::creation::{benchmark_length, CreationConfig, CreationWarmers, TouchedState};
use crate::encode::{decode_livepoint, encode_livepoint};
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

// Library-access metrics: open cost and per-record positioned reads on
// the paged backing, plus time spent building shared dictionaries.
static TLM_OPENS: Counter = Counter::new("core.lib.opens");
static TLM_OPEN_NS: Counter = Counter::new("core.lib.open_ns");
static TLM_PAGED_READS: Counter = Counter::new("core.lib.paged_reads");
static TLM_PAGED_READ_BYTES: Counter = Counter::new("core.lib.paged_read_bytes");
static TLM_DICT_BUILD_NS: Counter = Counter::new("core.lib.dict_build_ns");

/// DER-encode and LZSS-compress one live-point, feeding the per-record
/// telemetry — the single compression site for both the serial and the
/// pipelined creation paths. The caller keeps one [`CompressScratch`]
/// per thread so the match-finder tables are allocated once, not per
/// record.
///
/// [`CompressScratch`]: lzss::CompressScratch
fn compress_record(scratch: &mut lzss::CompressScratch, lp: &LivePoint) -> Vec<u8> {
    let sw = Stopwatch::start();
    let der = encode_livepoint(lp);
    TLM_ENCODE_NS.add(sw.ns());
    TLM_DER_BYTES.record(der.len() as u64);
    let sw = Stopwatch::start();
    let bytes = lzss::compress_with(scratch, &der);
    TLM_COMPRESS_NS.add(sw.ns());
    TLM_RECORD_BYTES.record(bytes.len() as u64);
    bytes
}

/// Reusable decode buffers for [`LivePointLibrary::get_with`]: holds
/// the decompressed DER image (and, for paged libraries, the compressed
/// record read from disk) between decodes so steady-state point
/// processing performs no decompression-side heap allocation. Keep one
/// per runner thread.
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

/// Where a record's bytes are read from.
#[derive(Debug)]
enum Source {
    /// An open file; records are fetched with positioned reads.
    File(File),
    /// An in-memory image (e.g. [`LivePointLibrary::from_bytes`]).
    Bytes(Arc<Vec<u8>>),
}

impl Source {
    /// Read exactly `buf.len()` bytes at absolute `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), CoreError> {
        match self {
            Source::File(f) => {
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
            }
            Source::Bytes(data) => {
                let start = usize::try_from(offset).map_err(|_| CodecError::Truncated)?;
                let end = start
                    .checked_add(buf.len())
                    .filter(|&e| e <= data.len())
                    .ok_or(CodecError::Truncated)?;
                buf.copy_from_slice(&data[start..end]);
            }
        }
        Ok(())
    }
}

/// An opened v2 container: the source plus its parsed footer index and
/// a lazily-populated per-block cache of decompressed dictionaries.
/// Shared (`Arc`) so cloning a paged library clones no file state.
#[derive(Debug)]
struct PagedSource {
    source: Source,
    blocks: Vec<paged::BlockEntry>,
    records: Vec<paged::RecordEntry>,
    /// Trailer content hash (CRC32 of record bodies in stored order).
    stored_hash: u32,
    /// Sum of record body lengths from the footer index.
    record_bytes: u64,
    file_bytes: u64,
    /// Decompressed shared dictionaries, filled on first use per block.
    dicts: Vec<Mutex<Option<Arc<Vec<u8>>>>>,
}

impl PagedSource {
    /// Positioned read + CRC check of stored record `stored` into `buf`.
    fn read_record(&self, stored: usize, buf: &mut Vec<u8>) -> Result<(), CoreError> {
        let e = &self.records[stored];
        buf.resize(e.len as usize, 0);
        self.source.read_exact_at(buf, e.offset)?;
        if crc32::checksum(buf) != e.crc {
            return Err(CodecError::CrcMismatch { frame: stored }.into());
        }
        TLM_PAGED_READS.inc();
        TLM_PAGED_READ_BYTES.add(e.len as u64);
        Ok(())
    }

    /// Positioned read + CRC check of block `block`'s compressed
    /// dictionary bytes (which may be raw-copied into a merged file
    /// without decompression).
    fn read_dict_raw(&self, block: usize, buf: &mut Vec<u8>) -> Result<(), CoreError> {
        let b = &self.blocks[block];
        buf.resize(b.dict_len as usize, 0);
        self.source.read_exact_at(buf, b.dict_offset)?;
        if crc32::checksum(buf) != b.dict_crc {
            return Err(CodecError::CrcMismatch { frame: block }.into());
        }
        Ok(())
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
        let mut raw = Vec::new();
        self.read_dict_raw(block, &mut raw)?;
        let dict = Arc::new(lzss::decompress(&raw)?);
        *self.dicts[block].lock().expect("dict lock") = Some(dict.clone());
        Ok(Some(dict))
    }
}

/// The two record backings: all compressed records resident (v1 load,
/// fresh creation) or a footer-indexed file read on demand (v2 open).
#[derive(Debug, Clone)]
enum Backing {
    /// LZSS-compressed DER live-points, in shuffled processing order.
    Memory(Vec<Vec<u8>>),
    Paged(Arc<PagedSource>),
}

/// Knobs for writing a v2 paged container
/// ([`LivePointLibrary::save_v2`]).
#[derive(Debug, Clone)]
pub struct V2WriteOptions {
    /// Records per dictionary block.
    pub block_points: usize,
    /// Whether to build block-shared LZSS dictionaries. Without
    /// dictionaries records are byte-identical to their v1 bodies, so
    /// conversion is a pure re-framing (no decompression) and the v2
    /// content hash equals the v1 content hash.
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

/// Metadata from a metadata-only open ([`LivePointLibrary::open_header`]):
/// everything the experiment binaries print about a library without
/// decompressing a single record.
#[derive(Debug, Clone)]
pub struct LibraryHeader {
    /// Container format version (1 or 2).
    pub format_version: u16,
    /// The benchmark the library samples.
    pub benchmark: String,
    /// Warm-state scope the library was created with.
    pub scope: StateScope,
    /// Maximum hierarchy geometry the library supports.
    pub max_hierarchy: HierarchyConfig,
    /// Number of live-points.
    pub points: u64,
    /// Dictionary blocks (0 for v1).
    pub blocks: u64,
    /// Sum of compressed record body lengths.
    pub total_compressed_bytes: u64,
    /// Total container file length.
    pub file_bytes: u64,
    /// Stored content hash (v2 trailer); `None` for v1, where computing
    /// it would require reading every record body.
    pub content_hash: Option<u32>,
}

/// A benchmark's live-point library: independently-loadable compressed
/// records, pre-shuffled into random order (paper §6.1: "we recommend
/// shuffling live-points on disk, prior to simulation").
#[derive(Debug, Clone)]
pub struct LivePointLibrary {
    benchmark: String,
    scope: StateScope,
    max_hierarchy: HierarchyConfig,
    backing: Backing,
    /// Paged processing order: processing index `i` reads stored record
    /// `order[i]`. Empty for the memory backing (which shuffles the
    /// record vector itself).
    order: Vec<u32>,
    /// Cached [`content_hash`](Self::content_hash); reset by any
    /// reordering mutation (shuffle, merge).
    cache_hash: OnceLock<u32>,
}

impl LivePointLibrary {
    fn from_records(
        benchmark: String,
        scope: StateScope,
        max_hierarchy: HierarchyConfig,
        records: Vec<Vec<u8>>,
    ) -> Self {
        LivePointLibrary {
            benchmark,
            scope,
            max_hierarchy,
            backing: Backing::Memory(records),
            order: Vec::new(),
            cache_hash: OnceLock::new(),
        }
    }

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
        let n = benchmark_length(program);
        let design = SystematicDesign::new(cfg.unit_len, cfg.warm_len);
        let windows = design.windows(n, cfg.sample_size, cfg.seed);
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
        if windows.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        assert!(
            windows.windows(2).all(|w| w[0].end() <= w[1].detail_start),
            "windows must be sorted and non-overlapping"
        );

        let _span = spectral_telemetry::span("create.library");
        let records = if threads <= 1 {
            let mut records = Vec::with_capacity(windows.len());
            let mut scratch = lzss::CompressScratch::new();
            walk_windows(program, cfg, windows, |_, lp| {
                records.push(compress_record(&mut scratch, &lp));
            });
            records
        } else {
            encode_pipelined(program, cfg, windows, threads)
        };

        if records.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        let mut lib =
            Self::from_records(program.name().to_owned(), cfg.scope, cfg.max_hierarchy, records);
        lib.shuffle(cfg.seed ^ 0x0F1E_2D3C);
        Ok(lib)
    }

    /// Create a library directly on disk as a v2 paged container:
    /// records stream to a spool file as the warming walk produces them
    /// (nothing is held in memory), then a stitch pass raw-copies the
    /// record bodies into shuffled order and writes the footer index —
    /// for a dictionary-less target this performs **zero**
    /// decompression. The processing order, decoded points, and (for
    /// `dict: false`) the content hash are identical to
    /// [`create_parallel`](Self::create_parallel) with the same seed.
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
        let n = benchmark_length(program);
        let design = SystematicDesign::new(cfg.unit_len, cfg.warm_len);
        let windows = design.windows(n, cfg.sample_size, cfg.seed);
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
        if windows.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        assert!(
            windows.windows(2).all(|w| w[0].end() <= w[1].detail_start),
            "windows must be sorted and non-overlapping"
        );
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
    /// dictionary-less v2 file. Phase 2 (stitch): open the spool paged,
    /// shuffle, and re-save to `path` — a raw copy for dictionary-less
    /// targets.
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
        let file = File::create(spool)?;
        let mut w = paged::PagedWriter::new(BufWriter::new(file), &meta)?;
        let mut io_err: Option<std::io::Error> = None;
        if threads <= 1 {
            let mut scratch = lzss::CompressScratch::new();
            walk_windows(program, cfg, windows, |_, lp| {
                if io_err.is_some() {
                    return;
                }
                let bytes = compress_record(&mut scratch, &lp);
                if let Err(e) = w.push_record(&bytes) {
                    io_err = Some(e);
                }
            });
        } else {
            io_err = spool_pipelined(program, cfg, windows, threads, &mut w);
        }
        if let Some(e) = io_err {
            return Err(e.into());
        }
        if w.is_empty() {
            return Err(CoreError::BenchmarkTooShort);
        }
        w.finish()?;

        let mut spooled = Self::open(spool)?;
        spooled.shuffle(cfg.seed ^ 0x0F1E_2D3C);
        spooled.save_v2(path, opts)?;
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

    /// The container format backing this library: 1 when all records
    /// are resident in memory, 2 when reads go through a paged file.
    pub fn format_version(&self) -> u16 {
        match &self.backing {
            Backing::Memory(_) => 1,
            Backing::Paged(_) => paged::V2_VERSION,
        }
    }

    /// Number of live-points.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Memory(records) => records.len(),
            Backing::Paged(_) => self.order.len(),
        }
    }

    /// Whether the library holds no live-points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode live-point `index` (decompression + DER decode — the cost
    /// the paper charts as "checkpoint processing time" in Fig 8). On a
    /// paged library this is one positioned read plus the decode.
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
    /// `index` (processing order), reading through the paged backing
    /// and its shared dictionary when needed.
    fn decompress_record_into(
        &self,
        index: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CoreError> {
        match &self.backing {
            Backing::Memory(records) => {
                let rec = records
                    .get(index)
                    .ok_or(CoreError::IndexOutOfRange { index, len: records.len() })?;
                lzss::decompress_into(rec, &mut scratch.der)?;
            }
            Backing::Paged(p) => {
                let stored = *self
                    .order
                    .get(index)
                    .ok_or(CoreError::IndexOutOfRange { index, len: self.order.len() })?
                    as usize;
                p.read_record(stored, &mut scratch.comp)?;
                match p.dict(p.records[stored].block as usize)? {
                    None => lzss::decompress_into(&scratch.comp, &mut scratch.der)?,
                    Some(dict) => {
                        lzss::decompress_into_with_dict(&dict, &scratch.comp, &mut scratch.der)?;
                    }
                }
            }
        }
        Ok(())
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

    /// Compressed size of record `index` in bytes. For a paged library
    /// this comes straight from the footer index — no read, no
    /// decompression.
    pub fn record_bytes(&self, index: usize) -> Option<usize> {
        match &self.backing {
            Backing::Memory(records) => records.get(index).map(Vec::len),
            Backing::Paged(p) => {
                let stored = *self.order.get(index)? as usize;
                Some(p.records[stored].len as usize)
            }
        }
    }

    /// Total compressed library size in bytes (the paper's "12 GB for
    /// SPEC2K" quantity, at this repo's scale). For a paged library this
    /// is the footer-index sum — no reads.
    pub fn total_compressed_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Memory(records) => records.iter().map(|r| r.len() as u64).sum(),
            Backing::Paged(p) => p.record_bytes,
        }
    }

    /// CRC32 content hash over the compressed records in processing
    /// order — the library identity stamped into run manifests (two
    /// libraries with equal hashes process identical points in
    /// identical order). Computed once and cached; any reordering
    /// mutation invalidates the cache.
    ///
    /// A paged library in its stored order returns the trailer hash
    /// (for dictionary-less files this equals the v1 in-memory hash).
    /// A *re-shuffled* paged library hashes the footer's per-record
    /// CRCs in processing order instead — still a deterministic
    /// identity, without touching record bodies.
    pub fn content_hash(&self) -> u32 {
        *self.cache_hash.get_or_init(|| match &self.backing {
            Backing::Memory(records) => {
                let mut h = crc32::Hasher::new();
                for rec in records {
                    h.update(rec);
                }
                h.finalize()
            }
            Backing::Paged(p) => {
                if self.order.iter().enumerate().all(|(i, &s)| i as u32 == s) {
                    p.stored_hash
                } else {
                    let mut h = crc32::Hasher::new();
                    for &s in &self.order {
                        h.update(&p.records[s as usize].crc.to_le_bytes());
                    }
                    h.finalize()
                }
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

    /// Re-shuffle the processing order (deterministic in `seed`). On a
    /// paged library only the in-memory order indirection moves — the
    /// file is untouched.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match &mut self.backing {
            Backing::Memory(records) => records.shuffle(&mut rng),
            // Same length + same RNG stream ⇒ the same permutation the
            // memory backing would apply, so streamed and in-memory
            // creation agree point for point.
            Backing::Paged(_) => self.order.shuffle(&mut rng),
        }
        self.cache_hash = OnceLock::new();
    }

    /// The library metadata payload (benchmark, scope, hierarchy
    /// bounds) as DER — the v1 meta record and the v2 metadata frame.
    fn meta_der(&self) -> Vec<u8> {
        encode_meta_der(&self.benchmark, self.scope, &self.max_hierarchy)
    }

    /// Visit the plain-LZSS bytes of every record in processing order.
    /// Memory records are already plain; paged dictionary-less records
    /// are raw-copied; paged dictionary records are decompressed and
    /// deterministically recompressed, so a v1 → v2-with-dictionaries
    /// → v1 round trip is byte-identical.
    fn for_each_plain_record(
        &self,
        mut f: impl FnMut(&[u8]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        match &self.backing {
            Backing::Memory(records) => {
                for rec in records {
                    f(rec)?;
                }
            }
            Backing::Paged(p) => {
                let mut comp = Vec::new();
                let mut der = Vec::new();
                let mut scratch = lzss::CompressScratch::new();
                for &stored in &self.order {
                    let stored = stored as usize;
                    p.read_record(stored, &mut comp)?;
                    match p.dict(p.records[stored].block as usize)? {
                        None => f(&comp)?,
                        Some(dict) => {
                            lzss::decompress_into_with_dict(&dict, &comp, &mut der)?;
                            f(&lzss::compress_with(&mut scratch, &der))?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialize the library to v1 container bytes (meta record followed
    /// by the compressed live-points).
    ///
    /// # Errors
    ///
    /// Propagates read faults from a paged backing (in-memory libraries
    /// cannot fail).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut writer = ContainerWriter::new();
        writer.push(&self.meta_der());
        self.for_each_plain_record(|rec| {
            writer.push_compressed(rec);
            Ok(())
        })?;
        Ok(writer.finish())
    }

    /// Parse a library from container bytes of either format. v2 bytes
    /// are served paged from the in-memory image (no up-front record
    /// parsing).
    ///
    /// # Errors
    ///
    /// Propagates container/DER faults; an empty v1 container is
    /// [`CoreError::EmptyLibrary`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        if sniff_version(data)? == paged::V2_VERSION {
            return Self::open_paged(Source::Bytes(Arc::new(data.to_vec())), data.len() as u64);
        }
        let mut reader = ContainerReader::new(data)?;
        let meta_bytes = reader.next_record()?.ok_or(CoreError::EmptyLibrary)?;
        let (benchmark, scope, max_hierarchy) = parse_meta_der(&meta_bytes)?;
        let mut records = Vec::new();
        while let Some(rec) = reader.next_record_compressed()? {
            records.push(rec);
        }
        Ok(Self::from_records(benchmark, scope, max_hierarchy, records))
    }

    /// Save to a file in v1 format. The write is atomic — temp file +
    /// fsync + rename (fault site `library.save`) — so a crash leaves
    /// the previous container or the new one, never a torn file.
    ///
    /// # Example
    ///
    /// Build a small library, save it, and reopen it:
    ///
    /// ```
    /// use spectral_core::{CreationConfig, LivePointLibrary};
    /// use spectral_uarch::MachineConfig;
    ///
    /// let program = spectral_workloads::tiny().build();
    /// let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(4);
    /// let library = LivePointLibrary::create(&program, &cfg)?;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-save-{}.slp", std::process::id()));
    /// library.save(&path)?;
    /// let reopened = LivePointLibrary::open(&path)?;
    /// assert_eq!(reopened.len(), library.len());
    /// assert_eq!(reopened.benchmark(), library.benchmark());
    /// std::fs::remove_file(&path).ok();
    /// # Ok::<(), spectral_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let bytes = self.to_bytes()?;
        spectral_faultd::retry("library.save", || {
            spectral_faultd::write_atomic("library.save", path.as_ref(), &bytes)
        })?;
        Ok(())
    }

    /// Save to a file as a v2 paged container, returning the writer's
    /// size summary. Without dictionaries this is a pure re-framing of
    /// the plain-compressed records (no decompression for in-memory or
    /// dictionary-less paged sources); with dictionaries each block of
    /// [`V2WriteOptions::block_points`] records is recompressed against
    /// a dictionary sampled from the block's own records.
    ///
    /// The container streams into a temp sibling and is fsynced and
    /// renamed into place only after a complete, CRC-consistent write
    /// (fault site `library.v2.save`), so a crash mid-save never leaves
    /// a torn container at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec faults.
    pub fn save_v2(
        &self,
        path: impl AsRef<Path>,
        opts: &V2WriteOptions,
    ) -> Result<paged::V2Summary, CoreError> {
        let path = path.as_ref();
        spectral_faultd::probe("library.v2.save")?;
        let tmp = tmp_sibling(path);
        match self.save_v2_into(&tmp, opts) {
            Ok(summary) => {
                commit_tmp("library.v2.save", &tmp, path)?;
                Ok(summary)
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }

    /// The streaming body of [`save_v2`](Self::save_v2), writing the
    /// container to its (non-atomic) destination.
    fn save_v2_into(
        &self,
        path: &Path,
        opts: &V2WriteOptions,
    ) -> Result<paged::V2Summary, CoreError> {
        let file = File::create(path)?;
        let mut w = paged::PagedWriter::new(BufWriter::new(file), &self.meta_der())?;
        if !opts.dict {
            self.for_each_plain_record(|rec| {
                w.push_record(rec)?;
                Ok(())
            })?;
        } else {
            let n = self.len();
            let block_points = opts.block_points.max(1);
            let mut dec = DecodeScratch::new();
            let mut scratch = lzss::CompressScratch::new();
            let mut start = 0;
            while start < n {
                let end = (start + block_points).min(n);
                let sw = Stopwatch::start();
                let dict = self.sample_dict(start, end, opts, &mut dec)?;
                let dict_comp = if dict.is_empty() { Vec::new() } else { lzss::compress(&dict) };
                TLM_DICT_BUILD_NS.add(sw.ns());
                w.begin_block(&dict_comp)?;
                for i in start..end {
                    self.decompress_record_into(i, &mut dec)?;
                    w.push_record(&lzss::compress_with_dict(&mut scratch, &dict, &dec.der))?;
                }
                start = end;
            }
        }
        Ok(w.finish()?)
    }

    /// Build a shared dictionary for records `[start, end)` by
    /// concatenating prefixes of up to [`V2WriteOptions::dict_samples`]
    /// evenly-spaced records, capped at [`V2WriteOptions::dict_cap`]
    /// bytes. Live-point DER images within a benchmark share heavy
    /// structure (same hierarchy geometry, overlapping warm sets), so
    /// even a small sample primes the LZSS window well.
    fn sample_dict(
        &self,
        start: usize,
        end: usize,
        opts: &V2WriteOptions,
        dec: &mut DecodeScratch,
    ) -> Result<Vec<u8>, CoreError> {
        let span = end - start;
        if span == 0 || opts.dict_cap == 0 || opts.dict_samples == 0 {
            return Ok(Vec::new());
        }
        let samples = opts.dict_samples.min(span);
        let per = (opts.dict_cap / samples).max(1);
        let mut dict = Vec::with_capacity(opts.dict_cap.min(per * samples));
        for k in 0..samples {
            let i = start + k * span / samples;
            self.decompress_record_into(i, dec)?;
            dict.extend_from_slice(&dec.der[..per.min(dec.der.len())]);
            if dict.len() >= opts.dict_cap {
                dict.truncate(opts.dict_cap);
                break;
            }
        }
        Ok(dict)
    }

    /// Open a library file of either format. v1 files load fully (all
    /// records resident); v2 files open paged — only the header,
    /// metadata, and footer index are read, and records are fetched
    /// with positioned reads on demand.
    ///
    /// # Errors
    ///
    /// Propagates I/O and container faults.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 6 {
            return Err(CodecError::Truncated.into());
        }
        let source = Source::File(file);
        let mut prefix = [0u8; 6];
        source.read_exact_at(&mut prefix, 0)?;
        match sniff_version(&prefix)? {
            1 => Self::from_bytes(&std::fs::read(path)?),
            paged::V2_VERSION => Self::open_paged(source, file_len),
            v => Err(CodecError::UnsupportedVersion { found: v }.into()),
        }
    }

    /// Open a v2 container over `source`: header + metadata + footer
    /// index only; no record is read or decompressed.
    fn open_paged(source: Source, file_len: u64) -> Result<Self, CoreError> {
        let sw = Stopwatch::start();
        if file_len < (paged::V2_HEADER_LEN + paged::V2_TRAILER_LEN) as u64 {
            return Err(CodecError::Truncated.into());
        }
        let mut prefix = [0u8; paged::V2_HEADER_LEN];
        source.read_exact_at(&mut prefix, 0)?;
        let header = paged::parse_v2_header(&prefix)?;
        let meta_end = paged::V2_HEADER_LEN as u64 + u64::from(header.meta_len);
        if meta_end + paged::V2_TRAILER_LEN as u64 > file_len {
            return Err(CodecError::Truncated.into());
        }
        let mut meta_bytes = vec![0u8; header.meta_len as usize];
        source.read_exact_at(&mut meta_bytes, paged::V2_HEADER_LEN as u64)?;
        let meta_der = paged::decode_v2_meta(&header, &meta_bytes)?;
        let (benchmark, scope, max_hierarchy) = parse_meta_der(&meta_der)?;
        let mut tail = [0u8; paged::V2_TRAILER_LEN];
        source.read_exact_at(&mut tail, file_len - paged::V2_TRAILER_LEN as u64)?;
        let trailer = paged::parse_v2_trailer(&tail, file_len)?;
        if trailer.footer_offset < meta_end {
            return Err(CodecError::BadFooter.into());
        }
        let mut footer = vec![0u8; trailer.footer_len as usize];
        source.read_exact_at(&mut footer, trailer.footer_offset)?;
        let (blocks, records) = paged::parse_v2_footer(&footer, &trailer, meta_end)?;
        let record_bytes = records.iter().map(|r| u64::from(r.len)).sum();
        let dicts = blocks.iter().map(|_| Mutex::new(None)).collect();
        let order = (0..records.len() as u32).collect();
        let lib = LivePointLibrary {
            benchmark,
            scope,
            max_hierarchy,
            backing: Backing::Paged(Arc::new(PagedSource {
                source,
                blocks,
                records,
                stored_hash: trailer.content_hash,
                record_bytes,
                file_bytes: file_len,
                dicts,
            })),
            order,
            cache_hash: OnceLock::new(),
        };
        TLM_OPEN_NS.add(sw.ns());
        TLM_OPENS.inc();
        Ok(lib)
    }

    /// Metadata-only open: benchmark, scope, hierarchy bounds, point
    /// count, and size totals without decompressing a single record.
    /// v2 reads the header and footer; v1 reads the meta record and
    /// walks frame headers by seeking over record bodies.
    ///
    /// # Errors
    ///
    /// Propagates I/O and container faults.
    pub fn open_header(path: impl AsRef<Path>) -> Result<LibraryHeader, CoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < V1_HEADER_LEN as u64 {
            return Err(CodecError::Truncated.into());
        }
        let source = Source::File(file);
        let mut h = [0u8; V1_HEADER_LEN];
        source.read_exact_at(&mut h, 0)?;
        match sniff_version(&h)? {
            1 => Self::open_header_v1(&source, &h, file_len),
            paged::V2_VERSION => {
                let lib = Self::open_paged(source, file_len)?;
                let Backing::Paged(p) = &lib.backing else {
                    unreachable!("open_paged always yields a paged backing");
                };
                Ok(LibraryHeader {
                    format_version: paged::V2_VERSION,
                    benchmark: lib.benchmark.clone(),
                    scope: lib.scope,
                    max_hierarchy: lib.max_hierarchy,
                    points: p.records.len() as u64,
                    blocks: p.blocks.len() as u64,
                    total_compressed_bytes: p.record_bytes,
                    file_bytes: p.file_bytes,
                    content_hash: Some(p.stored_hash),
                })
            }
            v => Err(CodecError::UnsupportedVersion { found: v }.into()),
        }
    }

    /// v1 metadata-only open: parse the meta record, then walk the
    /// remaining frame headers (8 bytes each) accumulating sizes —
    /// record bodies are skipped, never read.
    fn open_header_v1(
        source: &Source,
        header: &[u8; V1_HEADER_LEN],
        file_len: u64,
    ) -> Result<LibraryHeader, CoreError> {
        let count = spectral_codec::parse_v1_header(header)?;
        if count == 0 {
            return Err(CoreError::EmptyLibrary);
        }
        let mut pos = V1_HEADER_LEN as u64;
        let mut fh = [0u8; FRAME_HEADER_LEN];
        let read_frame =
            |pos: u64, fh: &mut [u8; FRAME_HEADER_LEN]| -> Result<(u32, u32), CoreError> {
                if pos + FRAME_HEADER_LEN as u64 > file_len {
                    return Err(CodecError::Truncated.into());
                }
                source.read_exact_at(fh, pos)?;
                Ok(frame_header(fh))
            };
        let (meta_len, meta_crc) = read_frame(pos, &mut fh)?;
        pos += FRAME_HEADER_LEN as u64;
        if pos + u64::from(meta_len) > file_len {
            return Err(CodecError::Truncated.into());
        }
        let mut meta_comp = vec![0u8; meta_len as usize];
        source.read_exact_at(&mut meta_comp, pos)?;
        if crc32::checksum(&meta_comp) != meta_crc {
            return Err(CodecError::CrcMismatch { frame: 0 }.into());
        }
        let meta_der = lzss::decompress(&meta_comp)?;
        let (benchmark, scope, max_hierarchy) = parse_meta_der(&meta_der)?;
        pos += u64::from(meta_len);
        let mut total = 0u64;
        for _ in 1..count {
            let (len, _) = read_frame(pos, &mut fh)?;
            pos += FRAME_HEADER_LEN as u64 + u64::from(len);
            if pos > file_len {
                return Err(CodecError::Truncated.into());
            }
            total += u64::from(len);
        }
        Ok(LibraryHeader {
            format_version: 1,
            benchmark,
            scope,
            max_hierarchy,
            points: u64::from(count) - 1,
            blocks: 0,
            total_compressed_bytes: total,
            file_bytes: file_len,
            content_hash: None,
        })
    }

    /// Load from a file — an alias for [`open`](Self::open), kept for
    /// callers predating the paged format.
    ///
    /// # Errors
    ///
    /// Propagates I/O and container errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::open(path)
    }

    /// Convert a paged backing into the memory backing (plain-LZSS
    /// records resident, processing order preserved). A no-op for
    /// libraries that are already in memory.
    ///
    /// # Errors
    ///
    /// Propagates read faults from the paged source.
    pub fn materialize(&mut self) -> Result<(), CoreError> {
        if matches!(self.backing, Backing::Memory(_)) {
            return Ok(());
        }
        let mut records = Vec::with_capacity(self.len());
        self.for_each_plain_record(|rec| {
            records.push(rec.to_vec());
            Ok(())
        })?;
        self.backing = Backing::Memory(records);
        self.order = Vec::new();
        self.cache_hash = OnceLock::new();
        Ok(())
    }

    /// Merge another library of the same benchmark into this one
    /// (growing the sample-size upper bound, e.g. when a comparative
    /// study needs more points than originally planned — the risk §6.2
    /// discusses). The merged records are re-shuffled. Paged backings
    /// are materialized first; to merge large on-disk libraries without
    /// decompressing them, use [`merge_files`](Self::merge_files).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BenchmarkMismatch`] when the benchmark or
    /// creation bounds differ (points from mismatched bounds cannot be
    /// processed interchangeably).
    pub fn merge(
        &mut self,
        mut other: LivePointLibrary,
        shuffle_seed: u64,
    ) -> Result<(), CoreError> {
        if other.benchmark != self.benchmark
            || other.max_hierarchy != self.max_hierarchy
            || other.scope != self.scope
        {
            return Err(CoreError::BenchmarkMismatch {
                expected: self.benchmark.clone(),
                found: other.benchmark,
            });
        }
        self.materialize()?;
        other.materialize()?;
        let Backing::Memory(ours) = &mut self.backing else {
            unreachable!("materialize yields a memory backing");
        };
        let Backing::Memory(theirs) = other.backing else {
            unreachable!("materialize yields a memory backing");
        };
        ours.extend(theirs);
        self.shuffle(shuffle_seed);
        Ok(())
    }

    /// Merge library files of either format into one v2 container at
    /// the index level: dictionaries and record bodies are raw-copied
    /// (CRC-verified, never decompressed), block pointers are remapped,
    /// and the combined records are written in a seeded shuffled order.
    /// The permutation matches [`merge`](Self::merge) of the same
    /// inputs with the same seed.
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
            if lib.benchmark != libs[0].benchmark
                || lib.max_hierarchy != libs[0].max_hierarchy
                || lib.scope != libs[0].scope
            {
                return Err(CoreError::BenchmarkMismatch {
                    expected: libs[0].benchmark.clone(),
                    found: lib.benchmark.clone(),
                });
            }
        }
        let out = out.as_ref();
        spectral_faultd::probe("library.merge.save")?;
        let tmp = tmp_sibling(out);
        match Self::merge_files_into(&libs, &tmp, shuffle_seed) {
            Ok(()) => {
                commit_tmp("library.merge.save", &tmp, out)?;
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                return Err(e);
            }
        }
        Self::open(out)
    }

    /// The streaming body of [`merge_files`](Self::merge_files),
    /// writing the merged container to its (non-atomic) destination.
    fn merge_files_into(libs: &[Self], out: &Path, shuffle_seed: u64) -> Result<(), CoreError> {
        let file = File::create(out)?;
        let mut w = paged::PagedWriter::new(BufWriter::new(file), &libs[0].meta_der())?;

        // Write every input's dictionaries up front; records then point
        // back at them through a per-input block-id base.
        let mut block_base = Vec::with_capacity(libs.len());
        let mut written_blocks = 0u32;
        let mut buf = Vec::new();
        for lib in libs {
            block_base.push(written_blocks);
            match &lib.backing {
                Backing::Memory(_) => {
                    w.begin_block(&[])?;
                    written_blocks += 1;
                }
                Backing::Paged(p) => {
                    for (bi, b) in p.blocks.iter().enumerate() {
                        if b.dict_len == 0 {
                            w.begin_block(&[])?;
                        } else {
                            p.read_dict_raw(bi, &mut buf)?;
                            w.begin_block(&buf)?;
                        }
                        written_blocks += 1;
                    }
                }
            }
        }

        // Shuffle the concatenated processing orders — the same
        // permutation `merge` applies to the concatenated record vector.
        let mut all: Vec<(u32, u32)> = Vec::new();
        for (li, lib) in libs.iter().enumerate() {
            all.extend((0..lib.len() as u32).map(|i| (li as u32, i)));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        all.shuffle(&mut rng);

        for (li, i) in all {
            let lib = &libs[li as usize];
            let base = block_base[li as usize];
            match &lib.backing {
                Backing::Memory(records) => {
                    w.push_record_in_block(&records[i as usize], base)?;
                }
                Backing::Paged(p) => {
                    let stored = lib.order[i as usize] as usize;
                    p.read_record(stored, &mut buf)?;
                    w.push_record_in_block(&buf, base + p.records[stored].block)?;
                }
            }
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

/// DER-encode the library metadata payload.
/// The temp sibling a streaming save writes to before its atomic
/// rename: `<file>.tmp.<pid>`, in the same directory so the rename
/// stays within one filesystem.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".tmp.{}", std::process::id()));
    std::path::PathBuf::from(name)
}

/// Durably publish a fully written temp file at its final path:
/// fsync the temp, rename it over `path`, then fsync the parent
/// directory (best-effort) so the rename itself survives a crash.
/// `{site}.rename` is a fault kill-point between fsync and rename —
/// a SIGKILL there leaves the old file (or nothing) plus a temp
/// sibling, never a torn container.
fn commit_tmp(site: &str, tmp: &Path, path: &Path) -> std::io::Result<()> {
    let f = File::open(tmp)?;
    f.sync_all()?;
    drop(f);
    spectral_faultd::kill_point(&format!("{site}.rename"));
    std::fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

fn encode_meta_der(benchmark: &str, scope: StateScope, h: &HierarchyConfig) -> Vec<u8> {
    let mut meta = DerWriter::new();
    meta.seq(|w| {
        w.utf8(benchmark);
        w.u64(match scope {
            StateScope::Full => 0,
            StateScope::Restricted => 1,
        });
        for c in [&h.l1i, &h.l1d, &h.l2] {
            w.seq(|w| {
                w.u64(c.size_bytes());
                w.u64(c.assoc() as u64);
                w.u64(c.line_bytes());
            });
        }
        for t in [&h.itlb, &h.dtlb] {
            w.seq(|w| {
                w.u64(t.entries() as u64);
                w.u64(t.assoc() as u64);
                w.u64(t.page_bytes());
            });
        }
    });
    meta.finish()
}

/// Parse the library metadata payload written by [`encode_meta_der`].
fn parse_meta_der(meta: &[u8]) -> Result<(String, StateScope, HierarchyConfig), CoreError> {
    let mut r = DerReader::new(meta);
    let mut s = r.seq()?;
    let benchmark = s.utf8()?.to_owned();
    let scope = match s.u64()? {
        0 => StateScope::Full,
        _ => StateScope::Restricted,
    };
    let mut cache_cfg = || -> Result<spectral_cache::CacheConfig, CoreError> {
        let mut q = s.seq()?;
        Ok(spectral_cache::CacheConfig::new(q.u64()?, q.u64()? as u32, q.u64()?)?)
    };
    let l1i = cache_cfg()?;
    let l1d = cache_cfg()?;
    let l2 = cache_cfg()?;
    let mut tlb_cfg = || -> Result<spectral_cache::TlbConfig, CoreError> {
        let mut q = s.seq()?;
        Ok(spectral_cache::TlbConfig::new(q.u64()? as u32, q.u64()? as u32, q.u64()?)?)
    };
    let itlb = tlb_cfg()?;
    let dtlb = tlb_cfg()?;
    Ok((benchmark, scope, HierarchyConfig { l1i, l1d, l2, itlb, dtlb }))
}

/// Run the sequential functional-warming walk over `windows`, handing
/// each completed window's [`LivePoint`] to `sink` in window order.
/// Stops early when the benchmark halts before the remaining windows.
fn walk_windows(
    program: &Program,
    cfg: &CreationConfig,
    windows: &[WindowSpec],
    mut sink: impl FnMut(usize, LivePoint),
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
        sink(
            i,
            LivePoint {
                benchmark: program.name().to_owned(),
                window: *w,
                scope: cfg.scope,
                live_state,
                warm,
                max_hierarchy: cfg.max_hierarchy,
            },
        );
    }
}

/// Pipelined creation: the warming walk runs on the calling thread,
/// feeding snapshots through a channel to `threads` encode/compress
/// workers. Indexed result slots preserve record order, so the output is
/// byte-identical to the serial pass.
fn encode_pipelined(
    program: &Program,
    cfg: &CreationConfig,
    windows: &[WindowSpec],
    threads: usize,
) -> Vec<Vec<u8>> {
    let (tx, rx) = std::sync::mpsc::channel::<(usize, LivePoint)>();
    let rx = Mutex::new(rx);
    let slots: Vec<Mutex<Option<Vec<u8>>>> = windows.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = lzss::CompressScratch::new();
                loop {
                    // Take the receiver lock only to pull the next job;
                    // encoding runs unlocked.
                    let job = rx.lock().expect("receiver lock").recv();
                    let Ok((i, lp)) = job else { break };
                    let bytes = compress_record(&mut scratch, &lp);
                    *slots[i].lock().expect("slot lock") = Some(bytes);
                }
            });
        }
        walk_windows(program, cfg, windows, |i, lp| {
            tx.send((i, lp)).expect("encode workers outlive the walk");
        });
        drop(tx);
    });
    // The walk may halt early; completed records are a prefix.
    slots.into_iter().map_while(|slot| slot.into_inner().expect("slot lock")).collect()
}

/// Pipelined creation streamed to disk: the walk feeds `threads`
/// encode/compress workers, and a dedicated writer thread drains their
/// output through a reorder buffer so records land in the spool in
/// window order with only O(threads) records in flight — never the
/// whole library. Returns the first write fault, if any.
fn spool_pipelined<W: std::io::Write + Send>(
    program: &Program,
    cfg: &CreationConfig,
    windows: &[WindowSpec],
    threads: usize,
    w: &mut paged::PagedWriter<W>,
) -> Option<std::io::Error> {
    let (tx, rx) = std::sync::mpsc::channel::<(usize, LivePoint)>();
    let (otx, orx) = std::sync::mpsc::channel::<(usize, Vec<u8>)>();
    let rx = Mutex::new(rx);
    let aborted = std::sync::atomic::AtomicBool::new(false);
    let write_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let otx = otx.clone();
            let rx = &rx;
            scope.spawn(move || {
                let mut scratch = lzss::CompressScratch::new();
                loop {
                    let job = rx.lock().expect("receiver lock").recv();
                    let Ok((i, lp)) = job else { break };
                    let bytes = compress_record(&mut scratch, &lp);
                    if otx.send((i, bytes)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(otx);
        let write_err = &write_err;
        let aborted = &aborted;
        scope.spawn(move || {
            let mut pending: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            let mut next = 0usize;
            for (i, bytes) in orx.iter() {
                pending.insert(i, bytes);
                while let Some(bytes) = pending.remove(&next) {
                    if let Err(e) = w.push_record(&bytes) {
                        *write_err.lock().expect("write-err lock") = Some(e);
                        aborted.store(true, std::sync::atomic::Ordering::Relaxed);
                        return;
                    }
                    next += 1;
                }
            }
        });
        walk_windows(program, cfg, windows, |i, lp| {
            if !aborted.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = tx.send((i, lp));
            }
        });
        drop(tx);
    });
    write_err.into_inner().expect("write-err lock")
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
    /// fingerprint used to compare libraries across backings.
    fn window_seq(l: &LivePointLibrary) -> Vec<u64> {
        (0..l.len()).map(|i| l.get(i).unwrap().window.measure_start).collect()
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
    fn file_roundtrip() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let path = temp_path("library_v1.splp");
        lib.save(&path).unwrap();
        let back = LivePointLibrary::load(&path).unwrap();
        assert_eq!(back.len(), lib.len());
        assert_eq!(back.format_version(), 1);
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
        // Dictionary-less records are byte-identical to v1 bodies, so
        // the stored content hash equals the in-memory hash …
        assert_eq!(summary.content_hash, lib.content_hash());
        let back = LivePointLibrary::open(&path).unwrap();
        assert_eq!(back.format_version(), 2);
        assert_eq!(back.benchmark(), lib.benchmark());
        assert_eq!(back.scope(), lib.scope());
        assert_eq!(back.max_hierarchy(), lib.max_hierarchy());
        assert_eq!(back.len(), lib.len());
        assert_eq!(back.content_hash(), lib.content_hash());
        // … as do the footer-derived sizes (satellite: v1/v2 agreement).
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
    fn v1_v2_v1_round_trip_is_byte_identical() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let v1 = lib.to_bytes().unwrap();
        let path = temp_path("library_v2_rt.splp");
        lib.save_v2(&path, &V2WriteOptions::default()).unwrap();
        let back = LivePointLibrary::open(&path).unwrap();
        // Dictionary records decompress + deterministically recompress
        // to the exact original plain streams.
        assert_eq!(back.to_bytes().unwrap(), v1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_header_reports_both_formats() {
        let p = tiny().build();
        let lib = LivePointLibrary::create(&p, &small_cfg()).unwrap();
        let v1_path = temp_path("header_v1.splp");
        let v2_path = temp_path("header_v2.splp");
        lib.save(&v1_path).unwrap();
        let opts = V2WriteOptions { dict: false, ..V2WriteOptions::default() };
        lib.save_v2(&v2_path, &opts).unwrap();

        let h1 = LivePointLibrary::open_header(&v1_path).unwrap();
        assert_eq!(h1.format_version, 1);
        assert_eq!(h1.benchmark, lib.benchmark());
        assert_eq!(h1.points as usize, lib.len());
        assert_eq!(h1.total_compressed_bytes, lib.total_compressed_bytes());
        assert_eq!(h1.scope, lib.scope());
        assert_eq!(&h1.max_hierarchy, lib.max_hierarchy());
        assert!(h1.content_hash.is_none());

        let h2 = LivePointLibrary::open_header(&v2_path).unwrap();
        assert_eq!(h2.format_version, 2);
        assert_eq!(h2.benchmark, lib.benchmark());
        assert_eq!(h2.points as usize, lib.len());
        assert_eq!(h2.total_compressed_bytes, lib.total_compressed_bytes());
        assert_eq!(h2.content_hash, Some(lib.content_hash()));
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
        a.save(&a_path).unwrap();

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
        let mut paged = LivePointLibrary::open(&path).unwrap();
        let total = a.len() + b.len();
        paged.merge(b, 5).unwrap();
        assert_eq!(paged.len(), total);
        assert_eq!(paged.format_version(), 1, "merge materializes");
        for i in 0..paged.len() {
            paged.get(i).unwrap();
        }
        std::fs::remove_file(&path).ok();
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
