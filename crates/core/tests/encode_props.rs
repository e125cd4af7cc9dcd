//! Property tests for the live-point wire format: arbitrary (valid)
//! warm-state payloads must round-trip bit-exactly through DER + LZSS.

use proptest::prelude::*;
use spectral_cache::{CacheConfig, Csr, HierarchyConfig};
use spectral_codec::lzss;
use spectral_core::{LivePoint, LiveState, StateScope, WarmPayload};
use spectral_isa::{ArchState, RegFile};
use spectral_stats::WindowSpec;
use spectral_uarch::{BpredConfig, BranchPredictor};

fn tlb_as_cache(entries: u32, assoc: u32, page: u64) -> CacheConfig {
    CacheConfig::new(entries as u64 * page, assoc, page).expect("valid")
}

fn arb_csr(cfg: CacheConfig) -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0u64..1 << 26, any::<bool>()), 0..300).prop_map(move |accesses| {
        let mut csr = Csr::new(cfg);
        for (a, w) in accesses {
            csr.record(a, w);
        }
        csr
    })
}

fn arb_bpred() -> impl Strategy<Value = spectral_uarch::BpredSnapshot> {
    proptest::collection::vec((0u64..4096, any::<bool>()), 0..300).prop_map(|updates| {
        let mut bp = BranchPredictor::new(BpredConfig::paper_2k());
        for (pc4, taken) in updates {
            let pc = 0x40_0000 + pc4 * 4;
            bp.update(
                pc,
                pc + 4,
                &spectral_isa::BranchInfo {
                    taken,
                    target: pc + 96,
                    conditional: true,
                    indirect: false,
                    is_call: false,
                    is_return: false,
                },
            );
        }
        bp.snapshot()
    })
}

fn arb_livepoint() -> impl Strategy<Value = LivePoint> {
    let h = HierarchyConfig::baseline_8way();
    (
        arb_csr(h.l1i),
        arb_csr(h.l1d),
        arb_csr(h.l2),
        arb_csr(tlb_as_cache(128, 4, 4096)),
        arb_csr(tlb_as_cache(256, 4, 4096)),
        arb_bpred(),
        proptest::collection::btree_map(0u64..1 << 28, any::<u64>(), 0..200),
        any::<[u64; 32]>(),
        0u64..1 << 30,
    )
        .prop_map(move |(l1i, l1d, l2, itlb, dtlb, bp, mem, regs_raw, seq)| {
            let mut regs = RegFile::new();
            regs.set_int_regs(regs_raw);
            LivePoint {
                benchmark: "prop-bench".into(),
                window: WindowSpec {
                    detail_start: seq,
                    measure_start: seq + 2000,
                    measure_len: 1000,
                },
                scope: StateScope::Full,
                live_state: LiveState {
                    arch: ArchState { regs, pc: 0x40_0000 + (seq % 512) * 4, seq },
                    memory: mem.into_iter().map(|(a, v)| (a << 3, v)).collect(),
                    conventional_bytes: 1 << 22,
                },
                warm: WarmPayload { l1i, l1d, l2, itlb, dtlb, bpreds: vec![bp] },
                max_hierarchy: h,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn der_roundtrip(lp in arb_livepoint()) {
        let bytes = lp.to_der();
        let back = LivePoint::from_der(&bytes).expect("decode");
        prop_assert_eq!(&back.benchmark, &lp.benchmark);
        prop_assert_eq!(back.window, lp.window);
        prop_assert_eq!(&back.live_state, &lp.live_state);
        prop_assert_eq!(&back.warm.l1d, &lp.warm.l1d);
        prop_assert_eq!(&back.warm.l2, &lp.warm.l2);
        prop_assert_eq!(&back.warm.itlb, &lp.warm.itlb);
        prop_assert_eq!(&back.warm.dtlb, &lp.warm.dtlb);
        prop_assert_eq!(&back.warm.bpreds, &lp.warm.bpreds);
    }

    #[test]
    fn compressed_roundtrip(lp in arb_livepoint()) {
        let bytes = lp.to_der();
        let packed = lzss::compress(&bytes);
        let unpacked = lzss::decompress(&packed).expect("lzss");
        prop_assert_eq!(unpacked, bytes);
    }

    #[test]
    fn decode_survives_truncation(lp in arb_livepoint(), cut in 0.0f64..1.0) {
        let bytes = lp.to_der();
        let n = ((bytes.len() as f64) * cut) as usize;
        // Must error or succeed, never panic.
        let _ = LivePoint::from_der(&bytes[..n]);
    }
}
