//! LZSS compression — the in-tree stand-in for gzip.
//!
//! The paper compresses live-points with gzip and reports ~5:1 ratios on
//! warm microarchitectural state. No gzip binding is available offline,
//! so this module implements an LZ77-family compressor with:
//!
//! * a 64 KiB sliding window, 3-byte minimum / 258-byte maximum matches,
//! * hash-head/prev chain match finding (bounded chain depth), greedy:
//!   the longest candidate wins, the nearest of equal lengths,
//! * a token format of flag bytes (8 tokens each), literal bytes, and
//!   3-byte `(offset, length)` back-references.
//!
//! Plain and dictionary-primed compression run one match loop, which
//! extends a candidate eight bytes per step (the first differing byte
//! is the lowest set byte of the XOR of two little-endian words) and
//! skips a candidate that cannot beat the best match so far. Its tokens
//! are those of a byte-at-a-time matcher, which `tests/proptests.rs`
//! keeps as the reference.
//!
//! The format is self-contained: `decompress(compress(x)) == x` for all
//! byte strings (property-tested), and incompressible input expands by
//! at most 12.5% plus a constant.

use crate::error::CodecError;
use spectral_telemetry::{Counter, Stopwatch};

static COMPRESS_CALLS: Counter = Counter::new("codec.lzss.compress_calls");
static COMPRESS_IN_BYTES: Counter = Counter::new("codec.lzss.compress_in_bytes");
static COMPRESS_OUT_BYTES: Counter = Counter::new("codec.lzss.compress_out_bytes");
static COMPRESS_NS: Counter = Counter::new("codec.lzss.compress_ns");
static DECOMPRESS_CALLS: Counter = Counter::new("codec.lzss.decompress_calls");
static DECOMPRESS_OUT_BYTES: Counter = Counter::new("codec.lzss.decompress_out_bytes");
static DECOMPRESS_NS: Counter = Counter::new("codec.lzss.decompress_ns");

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
const CHAIN_DEPTH: usize = 32;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable match-finder state for [`compress_with`]: the hash-head
/// table and the previous-position chain. Compressing allocates these
/// afresh on every call otherwise (a 32 K-entry table plus one `usize`
/// per input byte), which dominates steady-state allocation in
/// pipelined library creation. Keep one per worker and reuse it.
#[derive(Debug, Default)]
pub struct CompressScratch {
    head: Vec<usize>,
    prev: Vec<usize>,
    concat: Vec<u8>,
}

impl CompressScratch {
    /// Create empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the hash chains for a `data_len`-byte buffer. Only `head`
    /// is refilled: the match loop reads `prev[c]` only for positions
    /// `c` it inserted in the same call (every chain starts at a `head`
    /// entry written this call), so stale `prev` links from an earlier
    /// call are never followed and `prev` just grows.
    fn reset(&mut self, data_len: usize) {
        self.head.clear();
        self.head.resize(1 << HASH_BITS, usize::MAX);
        if self.prev.len() < data_len {
            self.prev.resize(data_len, usize::MAX);
        }
    }

    /// Put position `j` at the head of its hash chain, returning the
    /// chain it now leads (`usize::MAX` when empty).
    #[inline]
    fn insert(&mut self, buf: &[u8], j: usize) -> usize {
        let h = hash3(buf, j);
        let next = self.head[h];
        self.prev[j] = next;
        self.head[h] = j;
        next
    }
}

/// Compress `data`.
///
/// The output begins with the uncompressed length as a little-endian
/// `u64`, so [`decompress`] can pre-allocate exactly.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(&mut CompressScratch::new(), data)
}

/// Compress `data`, reusing `scratch`'s match-finder buffers.
///
/// Output is byte-identical to [`compress`]: the scratch recycles
/// allocations, and no state it carries over from an earlier call is
/// ever read (the hash heads are reset per call, and the chain links
/// followed are only those this call wrote).
pub fn compress_with(scratch: &mut CompressScratch, data: &[u8]) -> Vec<u8> {
    compress_with_dict(scratch, &[], data)
}

/// Compress `data` against a shared dictionary: the match window is
/// primed with `dict` before any `data` byte is coded, so back-references
/// may reach into the dictionary. The output carries tokens for `data`
/// only (the `u64` length header is `data.len()`); decode it with
/// [`decompress_into_with_dict`] and the *same* dictionary bytes.
///
/// With an empty dictionary the output is byte-identical to
/// [`compress_with`].
pub fn compress_with_dict(scratch: &mut CompressScratch, dict: &[u8], data: &[u8]) -> Vec<u8> {
    let sw = Stopwatch::start();
    let out = if dict.is_empty() {
        compress_window(scratch, data, 0)
    } else {
        // Conceptually compress `dict ++ data`, emitting tokens only for
        // the `data` suffix. The decoder seeds its output window with the
        // same dictionary bytes, so offsets resolve identically on both
        // sides.
        let mut concat = std::mem::take(&mut scratch.concat);
        concat.clear();
        concat.reserve(dict.len() + data.len());
        concat.extend_from_slice(dict);
        concat.extend_from_slice(data);
        let out = compress_window(scratch, &concat, dict.len());
        scratch.concat = concat;
        out
    };
    COMPRESS_CALLS.inc();
    COMPRESS_IN_BYTES.add(data.len() as u64);
    COMPRESS_OUT_BYTES.add(out.len() as u64);
    COMPRESS_NS.add(sw.ns());
    out
}

/// The one match loop: code `buf[start..]`, with `buf[..start]` (the
/// dictionary) indexed into the match chains up front so
/// back-references may reach into it. Matches are greedy: the longest
/// candidate on the hash chain wins, and of equal lengths the nearest.
fn compress_window(scratch: &mut CompressScratch, buf: &[u8], start: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity((buf.len() - start) / 2 + 16);
    out.extend_from_slice(&((buf.len() - start) as u64).to_le_bytes());

    scratch.reset(buf.len());
    // Index every dictionary position that starts a full 3-byte hash.
    for j in 0..start.min(buf.len().saturating_sub(MIN_MATCH - 1)) {
        scratch.insert(buf, j);
    }

    let mut i = start;
    // Token accumulation: one flag byte per 8 tokens.
    let mut flag_pos = 0;
    let mut flag_bit = 8;
    while i < buf.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= buf.len() {
            let max = (buf.len() - i).min(MAX_MATCH);
            let mut cand = scratch.insert(buf, i);
            let mut depth = 0;
            while cand != usize::MAX && depth < CHAIN_DEPTH && i - cand <= WINDOW {
                // A candidate that differs at `best_len` cannot be longer.
                if buf[cand + best_len] == buf[i + best_len] {
                    let l = match_len(&buf[cand..cand + max], &buf[i..i + max]);
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
                        if l == max {
                            break;
                        }
                    }
                }
                cand = scratch.prev[cand];
                depth += 1;
            }
        }

        if flag_bit == 8 {
            flag_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if best_len >= MIN_MATCH {
            out[flag_pos] |= 1 << flag_bit;
            out.extend_from_slice(&((best_off - 1) as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index the skipped positions so later matches can find them.
            let end = i + best_len;
            for j in i + 1..end.min(buf.len() + 1 - MIN_MATCH) {
                scratch.insert(buf, j);
            }
            i = end;
        } else {
            out.push(buf[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Length of the common prefix of `a` and `b` (equal lengths), eight
/// bytes per step: the first differing byte of a step is the lowest
/// set byte of the XOR of its little-endian words.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

/// Decompress data produced by [`compress`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] on short input,
/// [`CodecError::BadBackReference`] when a match points before the
/// output start, and [`CodecError::BadLength`] when the stream does not
/// reproduce exactly the declared length.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress data produced by [`compress`] into a caller-provided
/// buffer, reusing its allocation — the zero-steady-state-allocation
/// variant of [`decompress`]. `out` is cleared first; on error its
/// contents are unspecified (but valid).
///
/// # Errors
///
/// Same conditions as [`decompress`].
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let sw = Stopwatch::start();
    out.clear();
    decode_tokens(data, out, 0)?;
    DECOMPRESS_CALLS.inc();
    DECOMPRESS_OUT_BYTES.add(out.len() as u64);
    DECOMPRESS_NS.add(sw.ns());
    Ok(())
}

/// Decompress data produced by [`compress_with_dict`] with the same
/// dictionary. `out` is cleared first and receives the decoded payload
/// only (never the dictionary); on error its contents are unspecified
/// (but valid).
///
/// # Errors
///
/// Same conditions as [`decompress`]; a stream whose back-references
/// assume a longer dictionary than supplied fails with
/// [`CodecError::BadBackReference`].
pub fn decompress_into_with_dict(
    dict: &[u8],
    data: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if dict.is_empty() {
        return decompress_into(data, out);
    }
    let sw = Stopwatch::start();
    out.clear();
    out.extend_from_slice(dict);
    decode_tokens(data, out, dict.len())?;
    out.drain(..dict.len());
    DECOMPRESS_CALLS.inc();
    DECOMPRESS_OUT_BYTES.add(out.len() as u64);
    DECOMPRESS_NS.add(sw.ns());
    Ok(())
}

/// Shared token decoder: `out` arrives pre-seeded with `base` window
/// bytes (the dictionary; 0 for plain streams) and is extended with
/// exactly the declared payload length.
fn decode_tokens(data: &[u8], out: &mut Vec<u8>, base: usize) -> Result<(), CodecError> {
    if data.len() < 8 {
        return Err(CodecError::Truncated);
    }
    let expect = u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) as usize;
    // A valid stream cannot expand beyond MAX_MATCH bytes per input byte;
    // reject absurd headers before allocating (untrusted input safety).
    if expect > (data.len() - 8).saturating_mul(MAX_MATCH) {
        return Err(CodecError::BadLength);
    }
    let target = base + expect;
    out.reserve(expect);
    let mut i = 8;
    while out.len() < target {
        if i >= data.len() {
            return Err(CodecError::Truncated);
        }
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= target {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > data.len() {
                    return Err(CodecError::Truncated);
                }
                let off = u16::from_le_bytes([data[i], data[i + 1]]) as usize + 1;
                let len = data[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off > out.len() {
                    return Err(CodecError::BadBackReference);
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= data.len() {
                    return Err(CodecError::Truncated);
                }
                out.push(data[i]);
                i += 1;
            }
        }
    }
    if out.len() != target {
        return Err(CodecError::BadLength);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data: Vec<u8> = b"warm cache state ".iter().copied().cycle().take(500 * 17).collect();
        let clen = roundtrip(&data);
        assert!(
            clen * 4 < data.len(),
            "expected >4:1 on repetitive input, got {clen}/{}",
            data.len()
        );
    }

    #[test]
    fn run_of_zeros() {
        let data = vec![0u8; 100_000];
        let clen = roundtrip(&data);
        assert!(clen < 2000, "runs should collapse, got {clen}");
    }

    #[test]
    fn incompressible_bounded_expansion() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let clen = roundtrip(&data);
        assert!(clen <= data.len() + data.len() / 8 + 16);
    }

    #[test]
    fn overlapping_match_rle_semantics() {
        // 'aaaa...' forces overlapping copies (off=1, len>1).
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello world hello world hello world");
        assert!(matches!(decompress(&c[..c.len() - 2]), Err(CodecError::Truncated)));
        assert!(matches!(decompress(&[1, 2, 3]), Err(CodecError::Truncated)));
    }

    #[test]
    fn bad_backreference_detected() {
        // Declared len 4; first token is a match with offset 1 at output
        // position 0 → invalid.
        let mut stream = (4u64).to_le_bytes().to_vec();
        stream.push(0b0000_0001); // first token is a match
        stream.extend_from_slice(&0u16.to_le_bytes()); // offset-1 = 0 → off 1
        stream.push(1); // len 4
        assert!(matches!(decompress(&stream), Err(CodecError::BadBackReference)));
    }

    #[test]
    fn dict_roundtrip_and_ratio() {
        // Records of a live-point library share structure: bytes that are
        // incompressible on their own collapse almost entirely when a
        // sibling record primes the window.
        let mut x = 0xC0FFEE11u64;
        let data: Vec<u8> = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let dict = data.clone();
        let mut scratch = CompressScratch::new();
        let plain = compress_with(&mut scratch, &data);
        let primed = compress_with_dict(&mut scratch, &dict, &data);
        assert!(
            primed.len() * 4 < plain.len(),
            "dictionary-identical input should collapse: {} vs plain {}",
            primed.len(),
            plain.len()
        );
        let mut out = Vec::new();
        decompress_into_with_dict(&dict, &primed, &mut out).unwrap();
        assert_eq!(out, data);
        // The primed stream is not decodable without its dictionary.
        assert!(decompress(&primed).is_err() || decompress(&primed).unwrap() != data);
    }

    #[test]
    fn empty_dict_is_byte_identical_to_plain() {
        let data = b"hello world hello world hello world".to_vec();
        let mut scratch = CompressScratch::new();
        let plain = compress_with(&mut scratch, &data);
        let primed = compress_with_dict(&mut scratch, &[], &data);
        assert_eq!(plain, primed);
        let mut out = Vec::new();
        decompress_into_with_dict(&[], &plain, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn dict_roundtrip_edge_cases() {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        for dict in [&b""[..], b"ab", b"abcabcabc"] {
            for data in [&b""[..], b"a", b"abcabcabcabcabc", b"zzzzzzzzzzzzzzzz"] {
                let c = compress_with_dict(&mut scratch, dict, data);
                decompress_into_with_dict(dict, &c, &mut out).unwrap();
                assert_eq!(out, data, "dict={dict:?} data={data:?}");
            }
        }
    }

    #[test]
    fn dict_stream_with_wrong_dict_is_rejected_or_wrong() {
        // A stream whose back-references reach into the dictionary must
        // fail typed (or decode to different bytes) under a shorter
        // dictionary — never panic.
        let mut x = 0xDEAD_BEEFu64;
        let dict: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let data: Vec<u8> = dict.iter().copied().take(1500).collect();
        let mut scratch = CompressScratch::new();
        let c = compress_with_dict(&mut scratch, &dict, &data);
        let mut out = Vec::new();
        match decompress_into_with_dict(&dict[..4], &c, &mut out) {
            Ok(()) => assert_ne!(out, data),
            Err(e) => assert!(matches!(
                e,
                CodecError::BadBackReference | CodecError::Truncated | CodecError::BadLength
            )),
        }
    }

    #[test]
    fn structured_state_compresses() {
        // Synthetic "tag array": mostly-sequential block numbers as raw
        // LE words. LZSS alone (no entropy stage) lands ~2:1 here; the
        // live-point encoder reaches the paper's gzip band by
        // delta+varint pre-coding before compression (tested in
        // spectral-core).
        let mut data = Vec::new();
        for set in 0..2048u64 {
            for way in 0..4u64 {
                data.extend_from_slice(&(set * 64 + way * 3).to_le_bytes());
            }
        }
        let clen = roundtrip(&data);
        assert!(
            clen * 3 < data.len() * 2,
            "tag-array-like state should compress >1.5:1, got {}:{}",
            data.len(),
            clen
        );
    }
}
