//! LEB128 varints and zigzag mapping — the byte-level vocabulary of the
//! columnar codec.
//!
//! Counter deltas and timestamp delta-of-deltas are small signed numbers;
//! zigzag folds them into small unsigned ones, and LEB128 spends bytes
//! proportional to magnitude. All arithmetic that can wrap does so
//! explicitly (`wrapping_*`): decoding attacker-shaped bytes must never
//! overflow-panic.

/// Appends `v` as an LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an LEB128 varint at `*pos`, advancing it.
///
/// Returns `None` on truncated input or a varint longer than the 10
/// bytes a `u64` needs (corrupt data, not a valid encoding).
pub fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7F) as u64).wrapping_shl(shift);
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-folds a signed value so small magnitudes encode small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The signed difference `b - a` over `u64`, as wrapping `i64` — the
/// delta the columns store. Exact for all real counter streams (deltas
/// beyond ±2^63 wrap, and [`apply_delta`] wraps identically back).
pub fn delta(a: u64, b: u64) -> i64 {
    b.wrapping_sub(a) as i64
}

/// Inverse of [`delta`]: reconstructs `b` from `a` and the stored delta.
pub fn apply_delta(a: u64, d: i64) -> u64 {
    a.wrapping_add(d as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_varint_is_none() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 40);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_varint_is_none() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn delta_round_trip_wraps() {
        for (a, b) in [(0u64, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5)] {
            assert_eq!(apply_delta(a, delta(a, b)), b);
        }
    }
}
