//! Cross-crate property tests: invariants that must hold for arbitrary
//! programs and access streams.

use proptest::prelude::*;
use spectral::cache::{Cache, CacheConfig, CacheHierarchy, Csr, Eviction, HierarchyConfig, Mtr};
use spectral::codec::{crc32, lzss};
use spectral::isa::{Emulator, ProgramBuilder, Reg};
use spectral::stats::OnlineEstimator;
use spectral::uarch::{DetailedSim, MachineConfig};

/// A tiny random-but-valid program: arithmetic, memory traffic over a
/// small buffer, and a bounded loop.
fn arb_program() -> impl Strategy<Value = spectral::isa::Program> {
    (
        1u8..20,                                              // loop trips
        proptest::collection::vec((0u8..6, 0i64..64), 1..24), // body ops
    )
        .prop_map(|(trips, ops)| {
            let mut b = ProgramBuilder::new("prop");
            let buf = b.alloc_data(64);
            b.li(Reg::R1, buf as i64);
            b.li(Reg::R2, 0);
            b.li(Reg::R3, trips as i64);
            let top = b.label();
            for (kind, imm) in &ops {
                match kind {
                    0 => {
                        b.addi(Reg::R4, Reg::R4, *imm);
                    }
                    1 => {
                        b.mul(Reg::R5, Reg::R4, Reg::R2);
                    }
                    2 => {
                        b.load(Reg::R6, Reg::R1, (imm % 64) * 8);
                    }
                    3 => {
                        b.store(Reg::R1, Reg::R4, (imm % 64) * 8);
                    }
                    4 => {
                        b.fadd(1, 2, 3);
                    }
                    _ => {
                        b.xori(Reg::R7, Reg::R4, *imm);
                    }
                }
            }
            b.addi(Reg::R2, Reg::R2, 1);
            b.blt(Reg::R2, Reg::R3, top);
            b.halt();
            b.build()
        })
}

/// A true-LRU cache kept as one MRU-first `Vec` per set: the reference
/// model the flat [`Cache`] must agree with on every call.
struct RefLru {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    line: u64,
    hits: u64,
    misses: u64,
}

impl RefLru {
    fn new(cfg: &CacheConfig) -> Self {
        RefLru {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            assoc: cfg.assoc() as usize,
            line: cfg.line_bytes(),
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, addr: u64) -> (u64, &mut Vec<(u64, bool)>) {
        let block = addr / self.line;
        let n = self.sets.len() as u64;
        (block, &mut self.sets[(block % n) as usize])
    }

    fn access_full(&mut self, addr: u64, write: bool) -> (bool, Option<Eviction>) {
        let assoc = self.assoc;
        let (block, set) = self.set(addr);
        if let Some(pos) = set.iter().position(|l| l.0 == block) {
            let (_, dirty) = set.remove(pos);
            set.insert(0, (block, dirty | write));
            self.hits += 1;
            return (true, None);
        }
        let evicted = if set.len() == assoc {
            set.pop().map(|(block, dirty)| Eviction { block, dirty })
        } else {
            None
        };
        set.insert(0, (block, write));
        self.misses += 1;
        (false, evicted)
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (block, set) = self.set(addr);
        set.iter().any(|l| l.0 == block)
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (block, set) = self.set(addr);
        let pos = set.iter().position(|l| l.0 == block);
        pos.map(|p| set.remove(p)).is_some()
    }
}

/// CRC-32 one byte per step from a table built at run time: the
/// reference the slicing-by-8 checksum must agree with.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| (0..8).fold(i, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 }))
        .collect();
    !data.iter().fold(!0u32, |c, &b| table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}

/// The LZSS encoder one byte at a time: the same 64 KiB window,
/// 3..=258-byte matches, 15-bit hash of three bytes and 32-deep chains,
/// with match extension by a byte loop. `compress_with_dict` must emit
/// exactly these tokens.
fn lzss_reference(dict: &[u8], data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 1 << 16;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = 258;
    const HASH_BITS: u32 = 15;
    const CHAIN_DEPTH: usize = 32;
    let buf: Vec<u8> = dict.iter().chain(data).copied().collect();
    let hash = |i: usize| {
        let h = buf[i] as u32 | (buf[i + 1] as u32) << 8 | (buf[i + 2] as u32) << 16;
        (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; buf.len().max(1)];
    let mut j = 0;
    while j < dict.len() && j + MIN_MATCH <= buf.len() {
        prev[j] = head[hash(j)];
        head[hash(j)] = j;
        j += 1;
    }
    let mut out = (data.len() as u64).to_le_bytes().to_vec();
    let (mut flag_pos, mut flag_bit) = (0, 8);
    let mut i = dict.len();
    while i < buf.len() {
        let (mut best_len, mut best_off) = (0, 0);
        if i + MIN_MATCH <= buf.len() {
            let h = hash(i);
            let mut cand = head[h];
            let mut depth = 0;
            while cand != usize::MAX && depth < CHAIN_DEPTH && i - cand <= WINDOW {
                let max = (buf.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && buf[cand + l] == buf[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == max {
                        break;
                    }
                }
                cand = prev[cand];
                depth += 1;
            }
            prev[i] = head[h];
            head[h] = i;
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
            let mut j = i + 1;
            while j < i + best_len && j + MIN_MATCH <= buf.len() {
                prev[j] = head[hash(j)];
                head[hash(j)] = j;
                j += 1;
            }
            i += best_len;
        } else {
            out.push(buf[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Bytes with long repeats: each `(kind, a, b)` piece appends random
/// literals, a copy of 250..=265 earlier bytes (so matches reach and
/// pass the 258-byte maximum, overlapping their source when `b` is
/// small), or a run of one byte.
fn repetitive_bytes(pieces: &[(u8, u16, u16)], seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out: Vec<u8> = Vec::new();
    for &(kind, a, b) in pieces {
        match kind % 3 {
            0 => out.extend((0..a % 40).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 5) as u8
            })),
            1 if !out.is_empty() => {
                let back = b as usize % out.len() + 1;
                for _ in 0..250 + a as usize % 16 {
                    out.push(out[out.len() - back]);
                }
            }
            _ => out.extend(std::iter::repeat_n(b as u8, a as usize % 600)),
        }
    }
    out
}

/// Incompressible filler from a xorshift stream.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat tag array behaves exactly like a nested-`Vec` LRU model:
    /// every hit, eviction (block and dirty bit), probe and invalidate
    /// result, the hit/miss counts and the exported state agree after
    /// any interleaving of accesses, probes, invalidations and flushes.
    #[test]
    fn cache_matches_reference_lru(
        ops in proptest::collection::vec((0u8..32, 0u64..1 << 13, any::<bool>()), 1..600),
        size_log in 6u32..12,
        assoc_log in 0u32..4,
        line_log in 3u32..7,
    ) {
        let cfg = CacheConfig::new(1 << size_log, 1 << assoc_log, 1 << line_log);
        prop_assume!(cfg.is_ok());
        let cfg = cfg.expect("checked");
        let mut cache = Cache::new(cfg);
        let mut model = RefLru::new(&cfg);
        for &(op, addr, write) in &ops {
            match op {
                0..=21 => prop_assert_eq!(cache.access_full(addr, write), model.access_full(addr, write)),
                22..=27 => prop_assert_eq!(cache.probe(addr), model.probe(addr)),
                28..=30 => prop_assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
                _ => {
                    cache.flush();
                    model.sets.iter_mut().for_each(Vec::clear);
                }
            }
            prop_assert_eq!(&cache.to_state().sets, &model.sets);
        }
        prop_assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
        prop_assert_eq!(cache.occupancy(), model.sets.iter().map(Vec::len).sum::<usize>());
        let restored = Cache::from_state(cfg, &cache.to_state());
        prop_assert_eq!(restored.to_state(), cache.to_state());
    }

    /// The timing model must commit exactly the functional stream.
    #[test]
    fn timing_commits_functional_stream(program in arb_program()) {
        let mut emu = Emulator::new(&program);
        let mut n = 0u64;
        while emu.step().is_some() {
            n += 1;
        }
        let cfg = MachineConfig::eight_way();
        let stats = DetailedSim::new(&cfg, &program, Emulator::new(&program)).run_to_completion();
        prop_assert_eq!(stats.committed, n);
        // CPI must be sane: bounded below by 1/width and above by the
        // worst serialized latency.
        prop_assert!(stats.cpi() >= 1.0 / cfg.width as f64);
        prop_assert!(stats.cpi() < 400.0);
    }

    /// Detailed simulation is deterministic.
    #[test]
    fn timing_is_deterministic(program in arb_program()) {
        let cfg = MachineConfig::eight_way();
        let a = DetailedSim::new(&cfg, &program, Emulator::new(&program)).run_to_completion();
        let b = DetailedSim::new(&cfg, &program, Emulator::new(&program)).run_to_completion();
        prop_assert_eq!(a, b);
    }

    /// CSR reconstruction equals direct simulation for arbitrary streams
    /// and covered geometries (contents + LRU order), folded ones (fewer
    /// target sets than recorded) included; at the recorded geometry
    /// itself the dirty bits agree too.
    #[test]
    fn csr_matches_direct_cache(
        addrs in proptest::collection::vec((0u64..1u64 << 20, any::<bool>()), 1..800),
        size_shift in 0u32..5,
        assoc_shift in 0u32..3,
    ) {
        let max = CacheConfig::new(1 << 16, 4, 32).expect("valid");
        let target = CacheConfig::new((1 << 16) >> size_shift, 4 >> assoc_shift, 32);
        prop_assume!(target.is_ok());
        let target = target.expect("checked");
        prop_assume!(max.covers(&target));
        let mut csr = Csr::new(max);
        let mut direct = Cache::new(target);
        for &(a, w) in &addrs {
            csr.record(a, w);
            direct.access(a, w);
        }
        let rec = csr.reconstruct(&target).expect("covered");
        let blocks = |s: &spectral::cache::CacheState| -> Vec<Vec<u64>> {
            s.sets.iter().map(|v| v.iter().map(|&(b, _)| b).collect()).collect()
        };
        prop_assert_eq!(blocks(&rec), blocks(&direct.to_state()));
        if target == max {
            prop_assert_eq!(rec, direct.to_state());
        }
    }

    /// MTR reconstruction equals direct simulation for arbitrary
    /// geometries at or above its granule.
    #[test]
    fn mtr_matches_direct_cache(
        addrs in proptest::collection::vec(0u64..1u64 << 18, 1..600),
        size_log in 10u32..16,
        assoc_log in 0u32..3,
    ) {
        let target = CacheConfig::new(1 << size_log, 1 << assoc_log, 64);
        prop_assume!(target.is_ok());
        let target = target.expect("checked");
        let mut mtr = Mtr::new(32).expect("valid");
        let mut direct = Cache::new(target);
        for &a in &addrs {
            mtr.record(a, false);
            direct.access(a, false);
        }
        let rec = mtr.reconstruct(&target).expect("covered");
        let blocks = |s: &spectral::cache::CacheState| -> Vec<Vec<u64>> {
            s.sets.iter().map(|v| v.iter().map(|&(b, _)| b).collect()).collect()
        };
        prop_assert_eq!(blocks(&rec), blocks(&direct.to_state()));
    }

    /// Hierarchy snapshot/restore is lossless under arbitrary traffic.
    #[test]
    fn hierarchy_snapshot_roundtrip(
        addrs in proptest::collection::vec((0u64..1u64 << 22, 0u8..3), 1..500),
    ) {
        use spectral::cache::AccessKind;
        let cfg = HierarchyConfig::baseline_8way();
        let mut h = CacheHierarchy::new(cfg);
        for &(a, k) in &addrs {
            let kind = match k {
                0 => AccessKind::Fetch,
                1 => AccessKind::Read,
                _ => AccessKind::Write,
            };
            h.access(kind, a);
        }
        let snap = h.snapshot();
        let restored = CacheHierarchy::from_snapshot(cfg, &snap);
        prop_assert_eq!(restored.snapshot(), snap);
    }

    /// The dynamic chunk scheduler partitions the index space exactly:
    /// every index in `0..limit` is claimed once and only once, for any
    /// library size, worker count, chunk size, and any adaptive
    /// shrinking the workers drive mid-run.
    #[test]
    fn chunk_cursor_tiles_indices_exactly_once(
        limit in 1usize..700,
        threads in 1usize..9,
        chunk in 0usize..40,
        shrink_seed in proptest::collection::vec(1.0f64..16.0, 1..12),
    ) {
        use spectral::core::ChunkCursor;
        let cursor = ChunkCursor::new(limit, threads, chunk);
        let claimed = std::sync::Mutex::new(vec![0u32; limit]);
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (cursor, claimed, shrink_seed) = (&cursor, &claimed, &shrink_seed);
                scope.spawn(move || {
                    let mark = |range: std::ops::Range<usize>| {
                        let mut c = claimed.lock().expect("claim lock");
                        for i in range {
                            c[i] += 1;
                        }
                    };
                    mark(cursor.first(worker));
                    let mut round = 0usize;
                    while let Some(range) = cursor.claim() {
                        mark(range);
                        // Drive the adaptive shrink from the workers, as
                        // flush_batch does from the live estimate.
                        let ratio = shrink_seed[(worker + round) % shrink_seed.len()];
                        cursor.note_rel_error(ratio * 0.03, 0.03);
                        round += 1;
                    }
                });
            }
        });
        let claimed = claimed.into_inner().expect("claim lock");
        prop_assert!(
            claimed.iter().all(|&c| c == 1),
            "every index claimed exactly once: {claimed:?}"
        );
    }

    /// Merged estimators equal sequential estimators for any partition.
    #[test]
    fn estimator_merge_associative(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..200),
        cut in 0usize..200,
    ) {
        let cut = cut.min(xs.len());
        let mut left: OnlineEstimator = xs[..cut].iter().copied().collect();
        let right: OnlineEstimator = xs[cut..].iter().copied().collect();
        left.merge(&right);
        let all: OnlineEstimator = xs.iter().copied().collect();
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - all.variance()).abs() < 1e-6);
    }

    /// Slicing-by-8 CRC-32, one-shot and fed in three pieces at random
    /// split points, equals the bytewise reference.
    #[test]
    fn crc32_slicing_matches_bytewise(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        a in 0usize..300,
        b in 0usize..300,
    ) {
        let want = crc32_bytewise(&data);
        prop_assert_eq!(crc32::checksum(&data), want);
        let (a, b) = (a.min(data.len()), b.min(data.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut h = crc32::Hasher::new();
        h.update(&data[..lo]);
        h.update(&data[lo..hi]);
        h.update(&data[hi..]);
        prop_assert_eq!(h.finalize(), want);
    }

    /// The word-at-a-time matcher emits the reference's tokens, plain
    /// and against a dictionary, on repetitive input whose matches reach
    /// the 258-byte maximum.
    #[test]
    fn lzss_matches_byte_at_a_time_reference(
        pieces in proptest::collection::vec((0u8..3, any::<u16>(), any::<u16>()), 0..24),
        dict_len in 0usize..700,
        seed in any::<u64>(),
    ) {
        let bytes = repetitive_bytes(&pieces, seed);
        let cut = dict_len.min(bytes.len());
        let (dict, data) = bytes.split_at(cut);
        let mut scratch = lzss::CompressScratch::new();
        prop_assert_eq!(lzss::compress_with(&mut scratch, &bytes), lzss_reference(&[], &bytes));
        prop_assert_eq!(
            lzss::compress_with_dict(&mut scratch, dict, data),
            lzss_reference(dict, data)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One scratch reused across a long, a short and a long input, plain
    /// and against a dictionary, codes each exactly as a fresh scratch
    /// and the reference do: chain links a longer earlier call left
    /// behind are never followed.
    #[test]
    fn lzss_reused_scratch_matches_a_fresh_one(
        pieces in proptest::collection::vec((0u8..3, any::<u16>(), any::<u16>()), 1..24),
        short in 0usize..64,
        dict_len in 0usize..700,
        seed in any::<u64>(),
    ) {
        let long = repetitive_bytes(&pieces, seed);
        let other = repetitive_bytes(&pieces, !seed);
        let short = &other[..short.min(other.len())];
        let mut reused = lzss::CompressScratch::new();
        for data in [&long[..], short, &other[..]] {
            let want = lzss_reference(&[], data);
            prop_assert_eq!(lzss::compress_with(&mut reused, data), want.clone());
            prop_assert_eq!(lzss::compress_with(&mut lzss::CompressScratch::new(), data), want);
            let cut = dict_len.min(data.len());
            let (dict, tail) = data.split_at(cut);
            let want = lzss_reference(dict, tail);
            prop_assert_eq!(lzss::compress_with_dict(&mut reused, dict, tail), want.clone());
            let fresh = lzss::compress_with_dict(&mut lzss::CompressScratch::new(), dict, tail);
            prop_assert_eq!(fresh, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At the edge of the 64 KiB window: a block repeated at a distance
    /// just inside or just past it, in the data or reaching back into
    /// the dictionary, codes as the reference codes it.
    #[test]
    fn lzss_matches_reference_at_the_window_edge(
        block in 3usize..300,
        slack in 0usize..16,
        in_dict in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let distance = (1 << 16) - 8 + slack;
        let head = noise(block, seed);
        let mut bytes = head.clone();
        bytes.extend(noise(distance - block, !seed));
        bytes.extend_from_slice(&head);
        let cut = if in_dict { distance } else { 0 };
        let (dict, data) = bytes.split_at(cut);
        let mut scratch = lzss::CompressScratch::new();
        prop_assert_eq!(
            lzss::compress_with_dict(&mut scratch, dict, data),
            lzss_reference(dict, data)
        );
    }
}
