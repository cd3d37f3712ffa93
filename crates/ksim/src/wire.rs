//! The one wire format for every ioctl and `read` payload.
//!
//! A payload crossing the simulated kernel/user boundary is a sequence of
//! fixed-width little-endian fields, the way a real driver copies a C struct
//! from a user pointer: K-LEB's configuration `ioctl` takes one (paper
//! Fig. 2, step 1), and so does `perf_event_open` (`struct
//! perf_event_attr`). Encoders append fields with `to_le_bytes`. [`decode`]
//! and its [`Reader`] are the only decoder, and they accept exactly one
//! encoding per value:
//!
//! - integers are little-endian `u8`, `u32` and `u64`;
//! - a bool is one byte, 0 or 1; any other byte is rejected;
//! - a list is a `u32` count followed by its items; a count too large for
//!   the bytes that remain is rejected before anything is allocated;
//! - decoding ends with an exact-length check, so trailing bytes are
//!   rejected.
//!
//! ```
//! use ksim::wire;
//!
//! let mut payload = 7u32.to_le_bytes().to_vec();
//! payload.extend_from_slice(&2u32.to_le_bytes());
//! payload.extend_from_slice(&[0x2E, 0x41, 1]);
//! let read = |r: &mut wire::Reader<'_>| Some((r.u32()?, r.list(1, wire::Reader::u8)?, r.bool()?));
//! assert_eq!(wire::decode(&payload, read), Some((7, vec![0x2E, 0x41], true)));
//! payload.push(0);
//! assert_eq!(wire::decode(&payload, read), None, "trailing byte");
//! ```

/// Decodes one payload: `Some` only when `read` succeeds and consumes every
/// byte of `bytes`.
#[inline]
pub fn decode<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> Option<T> {
    let mut r = Reader { rest: bytes };
    let value = read(&mut r)?;
    r.rest.is_empty().then_some(value)
}

/// A cursor over the bytes of a payload that [`decode`] has not read yet.
///
/// Its reads and [`decode`] are `#[inline]`: K-LEB's controller decodes
/// every drained sample through them, and called across the crate
/// boundary they took about 25 ns a sample instead of 9 (2-vCPU Sapphire
/// Rapids guest).
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    #[inline]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk()?;
        self.rest = rest;
        Some(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads a bool: one byte that must be 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a list: a `u32` count, then that many items read by `item`,
    /// each at least `item_bytes` long. A count the remaining bytes cannot
    /// hold is rejected before anything is allocated.
    pub fn list<T>(
        &mut self,
        item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count = usize::try_from(self.u32()?).ok()?;
        if count.checked_mul(item_bytes)? > self.rest.len() {
            return None;
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(item(self)?);
        }
        Some(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(r: &mut Reader<'_>) -> Option<(u64, bool)> {
        Some((r.u64()?, r.bool()?))
    }

    #[test]
    fn integers_are_little_endian() {
        let bytes = [
            [7u8].as_slice(),
            &9u32.to_le_bytes(),
            &(1u64 << 40).to_le_bytes(),
        ]
        .concat();
        let read = |r: &mut Reader<'_>| Some((r.u8()?, r.u32()?, r.u64()?));
        assert_eq!(decode(&bytes, read), Some((7, 9, 1 << 40)));
    }

    #[test]
    fn bool_is_zero_or_one() {
        let at = |b: u8| decode(&[[0u8; 8].as_slice(), &[b]].concat(), pair);
        assert_eq!(at(0), Some((0, false)));
        assert_eq!(at(1), Some((0, true)));
        assert_eq!(at(2), None);
        assert_eq!(at(0xFF), None);
    }

    #[test]
    fn every_prefix_and_any_trailing_byte_is_rejected() {
        let bytes = [5u64.to_le_bytes().as_slice(), &[1]].concat();
        assert_eq!(decode(&bytes, pair), Some((5, true)));
        for len in 0..bytes.len() {
            assert_eq!(decode(&bytes[..len], pair), None, "prefix of {len} bytes");
        }
        assert_eq!(decode(&[bytes.as_slice(), &[0]].concat(), pair), None);
    }

    #[test]
    fn lists_carry_a_count() {
        let mut bytes = 2u32.to_le_bytes().to_vec();
        for v in [3u64, 4] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(decode(&bytes, |r| r.list(8, Reader::u64)), Some(vec![3, 4]));
        let empty = 0u32.to_le_bytes();
        assert_eq!(decode(&empty, |r| r.list(8, Reader::u64)), Some(vec![]));
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_reads_no_item() {
        for count in [2, 3, u32::MAX] {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 15]);
            let mut calls = 0;
            let items = decode(&bytes, |r| {
                r.list(8, |r| {
                    calls += 1;
                    r.u64()
                })
            });
            assert_eq!((items, calls), (None, 0), "count {count}");
        }
    }
}
