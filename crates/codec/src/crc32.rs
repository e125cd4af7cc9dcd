//! IEEE CRC-32 (the gzip/zlib polynomial), slicing-by-8.
//!
//! Eight 256-entry tables, built at compile time, fold eight input
//! bytes per step instead of one: table `k` advances a byte's
//! contribution past `k` further zero bytes, so the eight lookups of a
//! step are independent and XOR together. Input shorter than a step,
//! and the tail after the last full step, take the one-table bytewise
//! path. Both paths compute the same reflected polynomial, so every
//! checksum equals the bytewise one.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the
/// CRC state contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advance the (pre-inverted) CRC state `c` over `data`.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let mut steps = data.chunks_exact(8);
    for s in &mut steps {
        let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Compute the CRC-32 of `data`.
pub fn checksum(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// An incremental CRC-32 hasher for streamed frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Hasher { state: !0 }
    }

    /// Feed bytes. Any split of the input gives the checksum of the
    /// whole.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish, returning the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, one-byte-per-step CRC the tables must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(checksum(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length() {
        let data: Vec<u8> = (0..100u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(checksum(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), checksum(data), "split {split}");
        }
    }

    #[test]
    fn detects_corruption() {
        let mut data = vec![7u8; 100];
        let ok = checksum(&data);
        data[50] ^= 1;
        assert_ne!(checksum(&data), ok);
    }
}
