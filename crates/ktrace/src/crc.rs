//! CRC-32 (IEEE 802.3 polynomial), the block integrity check.
//!
//! Slice-by-8: eight lookup tables, generated at compile time, fold eight
//! input bytes per step. The algorithm is pure XOR/shift — no wrapping
//! arithmetic — so it is klint-clean as written.

/// Reflected CRC-32 polynomial (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// The slice-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][i]` is the CRC contribution of
/// byte `i` followed by `k` zero bytes, so one step can fold byte `j` of
/// an 8-byte chunk through `TABLES[7 - j]`.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, init `0xFFFF_FFFF`, final XOR).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise algorithm, one table lookup per byte: the oracle the
    /// sliced one must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ u32::MAX
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_on_a_mebibyte() {
        let data = noise(1 << 20);
        for len in 0..=256 {
            // Every length, at an unaligned start too.
            for start in [0, 3] {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
            }
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xABu8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
