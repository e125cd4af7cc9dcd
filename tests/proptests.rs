//! Cross-crate property tests: invariants that must hold for arbitrary
//! programs and access streams.

use proptest::prelude::*;
use spectral::cache::{Cache, CacheConfig, CacheHierarchy, Csr, Eviction, HierarchyConfig, Mtr};
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
}
