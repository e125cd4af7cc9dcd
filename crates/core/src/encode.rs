//! DER wire format for live-points.
//!
//! The paper encodes live-points in ASN.1 DER with gzip compression
//! (§3). This module defines the concrete schema over the
//! `spectral-codec` DER subset, with compression-friendly pre-coding:
//! tag arrays are stored as per-set varint-coded tags, timestamps as
//! recency deltas from the record clock, and live-state addresses as
//! sorted word deltas — all of which collapse well under LZSS.

use spectral_cache::{CacheConfig, Csr, CsrEntry, HierarchyConfig, TlbConfig};
use spectral_codec::{varint, CodecError, DerReader, DerWriter};
use spectral_isa::{ArchState, RegFile};
use spectral_stats::WindowSpec;
use spectral_uarch::{BpredConfig, BpredSnapshot};

use crate::error::CoreError;
use crate::livepoint::{LivePoint, SizeBreakdown, WarmPayload};
use crate::livestate::{LiveState, StateScope};

// --- helpers ------------------------------------------------------------

fn pack_2bit(counters: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; counters.len().div_ceil(4)];
    for (i, &c) in counters.iter().enumerate() {
        out[i / 4] |= (c & 3) << ((i % 4) * 2);
    }
    out
}

fn unpack_2bit(data: &[u8], count: usize) -> Result<Vec<u8>, CodecError> {
    if data.len() != count.div_ceil(4) {
        return Err(CodecError::BadLength);
    }
    Ok((0..count).map(|i| (data[i / 4] >> ((i % 4) * 2)) & 3).collect())
}

fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Bit `i` of a [`pack_bits`] image.
fn bit(data: &[u8], i: usize) -> bool {
    data[i / 8] & (1 << (i % 8)) != 0
}

fn u64s_to_bytes(words: impl Iterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::new();
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn u32s_to_bytes(words: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn bytes_to_u32s(data: &[u8]) -> Result<Vec<u32>, CodecError> {
    if !data.len().is_multiple_of(4) {
        return Err(CodecError::BadLength);
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

fn bytes_to_u64s(data: &[u8]) -> Result<Vec<u64>, CodecError> {
    if !data.len().is_multiple_of(8) {
        return Err(CodecError::BadLength);
    }
    Ok(data
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

// --- cache/TLB geometry ---------------------------------------------------

/// Read a DER integer that must fit in 32 bits: a wider value marks a
/// corrupt record and is rejected, never silently truncated.
fn dec_u32(r: &mut DerReader<'_>) -> Result<u32, CodecError> {
    u32::try_from(r.u64()?).map_err(|_| CodecError::BadLength)
}

fn enc_cache_config(w: &mut DerWriter, c: &CacheConfig) {
    w.seq(|w| {
        w.u64(c.size_bytes());
        w.u64(c.assoc() as u64);
        w.u64(c.line_bytes());
    });
}

fn dec_cache_config(r: &mut DerReader<'_>) -> Result<CacheConfig, CoreError> {
    let mut s = r.seq()?;
    let size = s.u64()?;
    let assoc = dec_u32(&mut s)?;
    let line = s.u64()?;
    Ok(CacheConfig::new(size, assoc, line)?)
}

fn enc_tlb_config(w: &mut DerWriter, t: &TlbConfig) {
    w.seq(|w| {
        w.u64(t.entries() as u64);
        w.u64(t.assoc() as u64);
        w.u64(t.page_bytes());
    });
}

fn dec_tlb_config(r: &mut DerReader<'_>) -> Result<TlbConfig, CoreError> {
    let mut s = r.seq()?;
    let entries = dec_u32(&mut s)?;
    let assoc = dec_u32(&mut s)?;
    let page = s.u64()?;
    Ok(TlbConfig::new(entries, assoc, page)?)
}

/// The five geometries of a hierarchy, in the order the live-point
/// record and the library metadata both store them.
pub(crate) fn enc_hierarchy(w: &mut DerWriter, h: &HierarchyConfig) {
    for c in [&h.l1i, &h.l1d, &h.l2] {
        enc_cache_config(w, c);
    }
    for t in [&h.itlb, &h.dtlb] {
        enc_tlb_config(w, t);
    }
}

/// Read the geometries [`enc_hierarchy`] wrote.
pub(crate) fn dec_hierarchy(r: &mut DerReader<'_>) -> Result<HierarchyConfig, CoreError> {
    Ok(HierarchyConfig {
        l1i: dec_cache_config(r)?,
        l1d: dec_cache_config(r)?,
        l2: dec_cache_config(r)?,
        itlb: dec_tlb_config(r)?,
        dtlb: dec_tlb_config(r)?,
    })
}

/// The stored code of a warm-state scope.
pub(crate) fn enc_scope(scope: StateScope) -> u64 {
    match scope {
        StateScope::Full => 0,
        StateScope::Restricted => 1,
    }
}

/// The scope a stored code names (any non-zero code is restricted).
pub(crate) fn dec_scope(code: u64) -> StateScope {
    match code {
        0 => StateScope::Full,
        _ => StateScope::Restricted,
    }
}

// --- CSR ------------------------------------------------------------------

fn enc_csr(w: &mut DerWriter, csr: &Csr) {
    let cfg = *csr.max_config();
    let clock = csr.clock();
    let num_sets = cfg.num_sets();
    let mut set_lens = Vec::with_capacity(num_sets as usize);
    let mut tags = Vec::new();
    let mut ages = Vec::new();
    let mut dirty = Vec::with_capacity(csr.entry_count());
    for set in csr.sets() {
        // A set holds at most the associativity, which is below 256.
        set_lens.push(set.len() as u8);
        for e in set {
            varint::write_uvarint(&mut tags, e.block / num_sets);
            varint::write_uvarint(&mut ages, clock - e.last_access);
            dirty.push(e.dirty);
        }
    }
    w.seq(|w| {
        enc_cache_config(w, &cfg);
        w.u64(clock);
        w.bytes(&set_lens);
        w.bytes(&tags);
        w.bytes(&ages);
        w.bytes(&pack_bits(&dirty));
    });
}

/// Decode a record straight into its packed entries: the set-length
/// column gives each entry's set, the varint columns its tag and age.
fn dec_csr(r: &mut DerReader<'_>) -> Result<Csr, CoreError> {
    let mut s = r.seq()?;
    let cfg = dec_cache_config(&mut s)?;
    let clock = s.u64()?;
    let set_lens = s.bytes()?;
    let tag_bytes = s.bytes()?;
    let age_bytes = s.bytes()?;
    let dirty = s.bytes()?;
    let num_sets = cfg.num_sets();
    if set_lens.len() as u64 != num_sets {
        return Err(CodecError::BadLength.into());
    }
    let total: usize = set_lens.iter().map(|&l| l as usize).sum();
    // Every varint takes at least one byte: bound the allocation by the
    // bytes actually present.
    if total > tag_bytes.len() || dirty.len() != total.div_ceil(8) {
        return Err(CodecError::BadLength.into());
    }
    let (mut tag_pos, mut age_pos) = (0, 0);
    let mut entries = Vec::with_capacity(total);
    for (set_idx, &len) in set_lens.iter().enumerate() {
        for _ in 0..len {
            let k = entries.len();
            let tag = varint::read_uvarint(tag_bytes, &mut tag_pos)?;
            let age = varint::read_uvarint(age_bytes, &mut age_pos)?;
            let block = tag
                .checked_mul(num_sets)
                .and_then(|b| b.checked_add(set_idx as u64))
                .ok_or(CodecError::BadLength)?;
            let last_access = clock.checked_sub(age).ok_or(CodecError::BadLength)?;
            entries.push(CsrEntry { block, last_access, dirty: bit(dirty, k) });
        }
    }
    if tag_pos != tag_bytes.len() || age_pos != age_bytes.len() {
        return Err(CodecError::BadLength.into());
    }
    Ok(Csr::from_packed(cfg, set_lens, entries)?)
}

// --- branch predictor -------------------------------------------------------

fn enc_bpred(w: &mut DerWriter, s: &BpredSnapshot) {
    w.seq(|w| {
        w.u64(s.config.table_entries as u64);
        w.u64(s.config.history_bits as u64);
        w.u64(s.config.btb_entries as u64);
        w.u64(s.config.ras_entries as u64);
        w.u64(s.config.mispredict_penalty);
        w.u64(s.config.predictions_per_cycle as u64);
        w.bytes(&pack_2bit(&s.bimodal));
        w.bytes(&pack_2bit(&s.gshare));
        w.bytes(&pack_2bit(&s.meta));
        w.u64(s.history);
        // Code addresses fit in 32 bits on SRISC; pack the BTB and RAS
        // tightly (real BTBs store partial tags for the same reason).
        w.bytes(&u32s_to_bytes(s.btb.iter().map(|&(pc, _)| pc as u32)));
        w.bytes(&u32s_to_bytes(s.btb.iter().map(|&(_, t)| t as u32)));
        w.bytes(&u32s_to_bytes(s.ras.iter().map(|&a| a as u32)));
        w.u64(s.ras_top as u64);
    });
}

fn dec_bpred(r: &mut DerReader<'_>) -> Result<BpredSnapshot, CoreError> {
    let mut s = r.seq()?;
    let table_entries = dec_u32(&mut s)?;
    let history_bits = dec_u32(&mut s)?;
    let btb_entries = dec_u32(&mut s)?;
    let ras_entries = dec_u32(&mut s)?;
    let mispredict_penalty = s.u64()?;
    let predictions_per_cycle = dec_u32(&mut s)?;
    let config = BpredConfig {
        table_entries,
        history_bits,
        btb_entries,
        ras_entries,
        mispredict_penalty,
        predictions_per_cycle,
    };
    let n = table_entries as usize;
    let bimodal = unpack_2bit(s.bytes()?, n)?;
    let gshare = unpack_2bit(s.bytes()?, n)?;
    let meta = unpack_2bit(s.bytes()?, n)?;
    let history = s.u64()?;
    let pcs = bytes_to_u32s(s.bytes()?)?;
    let targets = bytes_to_u32s(s.bytes()?)?;
    if pcs.len() != btb_entries as usize || targets.len() != pcs.len() {
        return Err(CodecError::BadLength.into());
    }
    let ras = bytes_to_u32s(s.bytes()?)?;
    if ras.len() != ras_entries as usize {
        return Err(CodecError::BadLength.into());
    }
    let ras_top = dec_u32(&mut s)?;
    Ok(BpredSnapshot {
        config,
        bimodal,
        gshare,
        meta,
        history,
        btb: pcs.into_iter().map(u64::from).zip(targets.into_iter().map(u64::from)).collect(),
        ras: ras.into_iter().map(u64::from).collect(),
        ras_top,
    })
}

// --- live-state ---------------------------------------------------------------

fn enc_live_state(w: &mut DerWriter, ls: &LiveState, window: &WindowSpec) {
    let mut addr_deltas = Vec::new();
    let mut prev = 0u64;
    for &(addr, _) in &ls.memory {
        let word = addr >> 3;
        varint::write_uvarint(&mut addr_deltas, word - prev);
        prev = word;
    }
    w.seq(|w| {
        w.u64(window.detail_start);
        w.u64(window.measure_start);
        w.u64(window.measure_len);
        w.u64_array(ls.arch.regs.int_regs());
        w.u64_array(&ls.arch.regs.fp_regs().map(f64::to_bits));
        w.u64(ls.arch.pc);
        w.u64(ls.arch.seq);
        w.u64(ls.conventional_bytes);
        w.u64(ls.memory.len() as u64);
        w.bytes(&addr_deltas);
        w.bytes(&u64s_to_bytes(ls.memory.iter().map(|&(_, v)| v)));
    });
}

fn dec_live_state(r: &mut DerReader<'_>) -> Result<(LiveState, WindowSpec), CoreError> {
    let mut s = r.seq()?;
    let window =
        WindowSpec { detail_start: s.u64()?, measure_start: s.u64()?, measure_len: s.u64()? };
    let int_words = s.u64_array()?;
    let fp_words = s.u64_array()?;
    if int_words.len() != 32 || fp_words.len() != 32 {
        return Err(CodecError::BadLength.into());
    }
    let mut regs = RegFile::new();
    regs.set_int_regs(int_words.try_into().expect("checked 32"));
    let fp: Vec<f64> = fp_words.into_iter().map(f64::from_bits).collect();
    regs.set_fp_regs(fp.try_into().expect("checked 32"));
    let pc = s.u64()?;
    let seq = s.u64()?;
    let conventional_bytes = s.u64()?;
    let count = s.u64()? as usize;
    let deltas = varint::decode_exact(s.bytes()?, count)?;
    let values = bytes_to_u64s(s.bytes()?)?;
    if values.len() != count {
        return Err(CodecError::BadLength.into());
    }
    let mut memory = Vec::with_capacity(count);
    let mut word = 0u64;
    for (d, v) in deltas.into_iter().zip(values) {
        word = word.checked_add(d).ok_or(CodecError::BadLength)?;
        memory.push((word.checked_mul(8).ok_or(CodecError::BadLength)?, v));
    }
    Ok((LiveState { arch: ArchState { regs, pc, seq }, memory, conventional_bytes }, window))
}

// --- top level ------------------------------------------------------------------

/// Encode a live-point to its DER representation (uncompressed).
pub fn encode_livepoint(lp: &LivePoint) -> Vec<u8> {
    let mut w = DerWriter::new();
    w.seq(|w| {
        w.utf8(&lp.benchmark);
        w.u64(enc_scope(lp.scope));
        w.seq(|w| enc_hierarchy(w, &lp.max_hierarchy));
        enc_live_state(w, &lp.live_state, &lp.window);
        enc_csr(w, &lp.warm.l1i);
        enc_csr(w, &lp.warm.l1d);
        enc_csr(w, &lp.warm.l2);
        enc_csr(w, &lp.warm.itlb);
        enc_csr(w, &lp.warm.dtlb);
        w.seq(|w| {
            for snap in &lp.warm.bpreds {
                enc_bpred(w, snap);
            }
        });
    });
    w.finish()
}

/// Decode a live-point from its DER representation.
///
/// # Errors
///
/// Any structural fault surfaces as [`CoreError::Codec`] or
/// [`CoreError::Cache`] (invalid recorded geometry).
pub fn decode_livepoint(data: &[u8]) -> Result<LivePoint, CoreError> {
    let mut r = DerReader::new(data);
    let mut s = r.seq()?;
    let benchmark = s.utf8()?.to_owned();
    let scope = dec_scope(s.u64()?);
    let max_hierarchy = dec_hierarchy(&mut s.seq()?)?;
    let (live_state, window) = dec_live_state(&mut s)?;
    let l1i = dec_csr(&mut s)?;
    let l1d = dec_csr(&mut s)?;
    let l2 = dec_csr(&mut s)?;
    let itlb = dec_csr(&mut s)?;
    let dtlb = dec_csr(&mut s)?;
    let mut bpreds = Vec::new();
    let mut bp = s.seq()?;
    while !bp.is_empty() {
        bpreds.push(dec_bpred(&mut bp)?);
    }
    Ok(LivePoint {
        benchmark,
        window,
        scope,
        live_state,
        warm: WarmPayload { l1i, l1d, l2, itlb, dtlb, bpreds },
        max_hierarchy,
    })
}

/// Per-component encoded sizes (the Figure 7 breakdown).
pub fn breakdown(lp: &LivePoint) -> SizeBreakdown {
    let comp = |f: &dyn Fn(&mut DerWriter)| -> u64 {
        let mut w = DerWriter::new();
        f(&mut w);
        w.len() as u64
    };
    let arch_and_header = comp(&|w| {
        w.utf8(&lp.benchmark);
        w.u64(0);
        w.seq(|w| enc_hierarchy(w, &lp.max_hierarchy));
        w.u64_array(lp.live_state.arch.regs.int_regs());
        w.u64_array(&lp.live_state.arch.regs.fp_regs().map(f64::to_bits));
    });
    let memory_data = comp(&|w| {
        let mut addr_deltas = Vec::new();
        let mut prev = 0u64;
        for &(addr, _) in &lp.live_state.memory {
            let word = addr >> 3;
            spectral_codec::varint::write_uvarint(&mut addr_deltas, word - prev);
            prev = word;
        }
        w.bytes(&addr_deltas);
        w.bytes(&u64s_to_bytes(lp.live_state.memory.iter().map(|&(_, v)| v)));
    });
    let csr_size = |c: &Csr| -> u64 {
        let mut w = DerWriter::new();
        enc_csr(&mut w, c);
        w.len() as u64
    };
    let bpred = comp(&|w| {
        w.seq(|w| {
            for snap in &lp.warm.bpreds {
                enc_bpred(w, snap);
            }
        });
    });
    SizeBreakdown {
        regs_tlb: arch_and_header + csr_size(&lp.warm.itlb) + csr_size(&lp.warm.dtlb),
        bpred,
        l1i_tags: csr_size(&lp.warm.l1i),
        l1d_tags: csr_size(&lp.warm.l1d),
        l2_tags: csr_size(&lp.warm.l2),
        memory_data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::livepoint::tlb_as_cache;
    use spectral_uarch::BranchPredictor;

    fn sample_csr(cfg: CacheConfig, n: u64, seed: u64) -> Csr {
        let mut csr = Csr::new(cfg);
        let mut x = seed | 1;
        for _ in 0..n {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(12345);
            csr.record(x % (1 << 24), x & 4 == 0);
        }
        csr
    }

    fn sample_livepoint() -> LivePoint {
        let h = HierarchyConfig::baseline_8way();
        let mut bp = BranchPredictor::new(BpredConfig::paper_2k());
        for i in 0..200u64 {
            let pc = 0x40_0000 + (i % 23) * 4;
            bp.update(
                pc,
                pc + 4,
                &spectral_isa::BranchInfo {
                    taken: i % 3 == 0,
                    target: pc + 100,
                    conditional: true,
                    indirect: false,
                    is_call: false,
                    is_return: false,
                },
            );
        }
        let mut regs = RegFile::new();
        regs.write(spectral_isa::Reg::R7, 0xDEAD);
        regs.write_fp(3, 2.5);
        LivePoint {
            benchmark: "test-bench".into(),
            window: WindowSpec { detail_start: 1000, measure_start: 3000, measure_len: 1000 },
            scope: StateScope::Full,
            live_state: LiveState {
                arch: ArchState { regs, pc: 0x40_0040, seq: 1000 },
                memory: vec![(0x1000_0000, 5), (0x1000_0040, 77), (0x2000_0000, 9)],
                conventional_bytes: 1 << 20,
            },
            warm: WarmPayload {
                l1i: sample_csr(h.l1i, 500, 1),
                l1d: sample_csr(h.l1d, 800, 2),
                l2: sample_csr(h.l2, 1200, 3),
                itlb: sample_csr(tlb_as_cache(&h.itlb), 100, 4),
                dtlb: sample_csr(tlb_as_cache(&h.dtlb), 150, 5),
                bpreds: vec![bp.snapshot()],
            },
            max_hierarchy: h,
        }
    }

    #[test]
    fn full_roundtrip() {
        let lp = sample_livepoint();
        let bytes = encode_livepoint(&lp);
        let back = decode_livepoint(&bytes).unwrap();
        assert_eq!(back.benchmark, lp.benchmark);
        assert_eq!(back.window, lp.window);
        assert_eq!(back.scope, lp.scope);
        assert_eq!(back.live_state, lp.live_state);
        assert_eq!(back.max_hierarchy, lp.max_hierarchy);
        assert_eq!(back.warm.l1i, lp.warm.l1i);
        assert_eq!(back.warm.l1d, lp.warm.l1d);
        assert_eq!(back.warm.l2, lp.warm.l2);
        assert_eq!(back.warm.itlb, lp.warm.itlb);
        assert_eq!(back.warm.dtlb, lp.warm.dtlb);
        assert_eq!(back.warm.bpreds, lp.warm.bpreds);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_livepoint(&[0x30, 0x02, 0x01, 0x01]).is_err());
        assert!(decode_livepoint(&[]).is_err());
    }

    /// A live-state record laid out as `enc_live_state` writes it, with
    /// the memory-word count and address deltas given directly.
    fn live_state_record(count: u64, deltas: &[u64]) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.seq(|w| {
            w.u64(0).u64(0).u64(0);
            w.u64_array(&[0; 32]).u64_array(&[0; 32]);
            w.u64(0x40_0000).u64(0).u64(0);
            w.u64(count);
            w.bytes(&varint::encode_all(deltas));
            w.bytes(&vec![0; deltas.len() * 8]);
        });
        w.finish()
    }

    /// A one-entry CSR record in set 0 of a 64-set cache.
    fn csr_record(tag: u64) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.seq(|w| {
            enc_cache_config(w, &CacheConfig::new(4096, 2, 32).unwrap());
            w.u64(7);
            let mut set_lens = vec![0u8; 64];
            set_lens[0] = 1;
            w.bytes(&set_lens);
            w.bytes(&varint::encode_all(&[tag]));
            w.bytes(&varint::encode_all(&[0]));
            w.bytes(&[1]);
        });
        w.finish()
    }

    fn bad_length<T: std::fmt::Debug>(r: Result<T, CoreError>) -> bool {
        matches!(r, Err(CoreError::Codec(CodecError::BadLength)))
    }

    #[test]
    fn decode_rejects_absurd_word_count() {
        let dec = |b: &[u8]| dec_live_state(&mut DerReader::new(b));
        let (ls, _) = dec(&live_state_record(2, &[1, 2])).unwrap();
        assert_eq!(ls.memory, [(8, 0), (24, 0)]);
        assert!(bad_length(dec(&live_state_record(1 << 61, &[1, 2]))));
        assert!(bad_length(dec(&live_state_record(u64::MAX, &[1, 2]))));
    }

    #[test]
    fn decode_rejects_address_overflow() {
        let dec = |b: &[u8]| dec_live_state(&mut DerReader::new(b));
        assert!(bad_length(dec(&live_state_record(2, &[u64::MAX, 1]))));
        // A word whose byte address does not fit in 64 bits.
        assert!(bad_length(dec(&live_state_record(1, &[1 << 61]))));
    }

    #[test]
    fn decode_rejects_tag_overflow() {
        let dec = |b: &[u8]| dec_csr(&mut DerReader::new(b));
        let csr = dec(&csr_record(3)).unwrap();
        assert_eq!(
            csr.sets().next().unwrap(),
            [CsrEntry { block: 3 * 64, last_access: 7, dirty: true }]
        );
        assert!(bad_length(dec(&csr_record(u64::MAX))));
        assert!(bad_length(dec(&csr_record(u64::MAX / 64 + 1))));
    }

    /// A predictor record as `enc_bpred` lays out an empty 4-entry
    /// predictor, with a raw RAS top-of-stack value.
    fn bpred_record(ras_top: u64) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.seq(|w| {
            w.u64(4).u64(0).u64(0).u64(0).u64(10).u64(1);
            w.bytes(&[0]).bytes(&[0]).bytes(&[0]);
            w.u64(0);
            w.bytes(&[]).bytes(&[]).bytes(&[]);
            w.u64(ras_top);
        });
        w.finish()
    }

    #[test]
    fn decode_rejects_truncating_u32_fields() {
        // A cache claiming 2^32 + 2 ways used to read back as 2-way.
        let cache = |assoc: u64| {
            let mut w = DerWriter::new();
            w.seq(|w| {
                w.u64(4096).u64(assoc).u64(32);
            });
            w.finish()
        };
        let dec = |b: &[u8]| dec_cache_config(&mut DerReader::new(b));
        assert_eq!(dec(&cache(2)).unwrap(), CacheConfig::new(4096, 2, 32).unwrap());
        assert!(bad_length(dec(&cache((1 << 32) + 2))));
        // Likewise a predictor's RAS top-of-stack index.
        let dec = |b: &[u8]| dec_bpred(&mut DerReader::new(b));
        assert_eq!(dec(&bpred_record(1)).unwrap().ras_top, 1);
        assert!(bad_length(dec(&bpred_record((1 << 32) + 1))));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_livepoint(&sample_livepoint());
        assert!(decode_livepoint(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn breakdown_close_to_encoded_total() {
        let lp = sample_livepoint();
        let bytes = encode_livepoint(&lp);
        let b = lp.size_breakdown();
        let total = b.total();
        // The breakdown re-encodes components; allow small framing
        // differences.
        assert!(
            (total as i64 - bytes.len() as i64).unsigned_abs() < 200,
            "breakdown {total} vs encoded {}",
            bytes.len()
        );
        assert!(b.l2_tags > b.l1d_tags, "L2 record must dominate L1 (Fig 7 shape)");
    }

    #[test]
    fn pack_unpack_2bit() {
        let counters: Vec<u8> = (0..37).map(|i| (i % 4) as u8).collect();
        let packed = pack_2bit(&counters);
        assert_eq!(unpack_2bit(&packed, counters.len()).unwrap(), counters);
    }

    #[test]
    fn pack_unpack_bits() {
        let bits: Vec<bool> = (0..21).map(|i| i % 3 == 0).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 3);
        assert!((0..bits.len()).all(|i| bit(&packed, i) == bits[i]));
    }

    #[test]
    fn synthetic_point_still_compresses() {
        // This fixture fills the CSRs with LCG-random tags — close to
        // the worst case. Real live-points (structured tag locality)
        // land in the paper's gzip band; that is asserted at library
        // level in `library.rs` tests and measured in the Fig 7/8
        // experiments. Here we only require *some* compression.
        let lp = sample_livepoint();
        let bytes = encode_livepoint(&lp);
        let packed = spectral_codec::lzss::compress(&bytes);
        assert!(
            packed.len() < bytes.len(),
            "expected compression, got {}:{}",
            bytes.len(),
            packed.len()
        );
    }
}
