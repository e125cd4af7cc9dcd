//! LEB128-style unsigned varints, used to delta-code tag arrays and
//! timestamps inside live-points before compression (this pre-coding is
//! what brings LZSS into the compression band the paper reports for
//! gzip on warm-state payloads).

use crate::error::CodecError;

/// Append `v` as a little-endian base-128 varint.
pub fn write_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a varint from `data` at `*pos`, advancing it.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] at end of input and
/// [`CodecError::BadLength`] for varints longer than 10 bytes.
pub fn read_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::BadLength);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode a slice of `u64`s as varints.
pub fn encode_all(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(values.len() * 2);
    for &v in values {
        write_uvarint(&mut buf, v);
    }
    buf
}

/// Decode exactly `count` varints.
///
/// # Errors
///
/// Propagates [`read_uvarint`] errors, plus [`CodecError::BadLength`]
/// when trailing bytes remain or when `count` exceeds `data.len()`
/// (every varint takes at least one byte), checked before allocating.
pub fn decode_exact(data: &[u8], count: usize) -> Result<Vec<u64>, CodecError> {
    if count > data.len() {
        return Err(CodecError::BadLength);
    }
    let mut pos = 0;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(read_uvarint(data, &mut pos)?);
    }
    if pos != data.len() {
        return Err(CodecError::BadLength);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_one_byte() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn bulk_roundtrip() {
        let values: Vec<u64> = (0..1000).map(|i| i * i * 31).collect();
        let buf = encode_all(&values);
        assert_eq!(decode_exact(&buf, values.len()).unwrap(), values);
    }

    #[test]
    fn truncated_detected() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(
            read_uvarint(&buf[..buf.len() - 1], &mut pos).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_all(&[5, 6]);
        buf.push(0);
        assert_eq!(decode_exact(&buf, 2).unwrap_err(), CodecError::BadLength);
    }

    #[test]
    fn count_beyond_the_data_is_rejected_before_allocating() {
        let buf = encode_all(&[5, 6]);
        assert_eq!(decode_exact(&buf, 3).unwrap_err(), CodecError::BadLength);
        // A capacity this large would panic or abort if it were reserved.
        assert_eq!(decode_exact(&buf, 1 << 61).unwrap_err(), CodecError::BadLength);
        assert_eq!(decode_exact(&buf, usize::MAX).unwrap_err(), CodecError::BadLength);
    }

    #[test]
    fn overlong_rejected() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos).unwrap_err(), CodecError::BadLength);
    }
}
