//! Compact, deterministic memory-access pattern descriptors.
//!
//! Workloads describe their memory behaviour as patterns rather than
//! materialized address lists, so simulating millions of accesses allocates
//! nothing. A [`PatternCursor`] expands a pattern lazily into `(address,
//! kind)` pairs; randomness comes from an embedded SplitMix64 so identical
//! seeds replay identical streams.

use crate::hierarchy::AccessKind;

/// A description of a run of memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// `count` accesses at `base, base+stride, base+2*stride, …`.
    Sequential {
        /// First byte address.
        base: u64,
        /// Distance between consecutive accesses, in bytes.
        stride: u64,
        /// Number of accesses.
        count: u64,
        /// Read or write.
        kind: AccessKind,
    },
    /// `count` accesses uniformly distributed over `[base, base + extent)`,
    /// aligned down to 8 bytes, from deterministic seed `seed`.
    Random {
        /// Region start.
        base: u64,
        /// Region size in bytes.
        extent: u64,
        /// Number of accesses.
        count: u64,
        /// RNG seed; equal seeds replay the same stream.
        seed: u64,
        /// Read or write.
        kind: AccessKind,
    },
    /// A single access.
    Single {
        /// Byte address.
        addr: u64,
        /// Read or write.
        kind: AccessKind,
    },
}

impl AccessPattern {
    /// Number of accesses this pattern expands to.
    pub fn len(&self) -> u64 {
        match *self {
            AccessPattern::Sequential { count, .. } => count,
            AccessPattern::Random { count, .. } => count,
            AccessPattern::Single { .. } => 1,
        }
    }

    /// Whether every access of the pattern reads or writes.
    pub fn kind(&self) -> AccessKind {
        match *self {
            AccessPattern::Sequential { kind, .. }
            | AccessPattern::Random { kind, .. }
            | AccessPattern::Single { kind, .. } => kind,
        }
    }

    /// True if the pattern expands to no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Begins iterating the pattern.
    pub fn cursor(&self) -> PatternCursor {
        PatternCursor {
            pattern: *self,
            emitted: 0,
            rng: match *self {
                AccessPattern::Random { seed, .. } => SplitMix64::new(seed),
                _ => SplitMix64::new(0),
            },
        }
    }
}

/// Iterator over a pattern's accesses.
#[derive(Debug, Clone)]
pub struct PatternCursor {
    pattern: AccessPattern,
    emitted: u64,
    rng: SplitMix64,
}

impl Iterator for PatternCursor {
    type Item = (u64, AccessKind);

    fn next(&mut self) -> Option<Self::Item> {
        if self.emitted >= self.pattern.len() {
            return None;
        }
        let i = self.emitted;
        self.emitted += 1;
        Some(match self.pattern {
            AccessPattern::Sequential {
                base, stride, kind, ..
            } => (base + i * stride, kind),
            AccessPattern::Random {
                base, extent, kind, ..
            } => {
                let off = if extent == 0 {
                    0
                } else {
                    self.rng.next() % extent
                };
                (base + (off & !7), kind)
            }
            AccessPattern::Single { addr, kind } => (addr, kind),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.pattern.len() - self.emitted) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PatternCursor {}

/// SplitMix64: tiny, fast, deterministic. Not exposed publicly.
#[derive(Debug, Clone, Copy)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_expansion() {
        let p = AccessPattern::Sequential {
            base: 0x100,
            stride: 64,
            count: 3,
            kind: AccessKind::Read,
        };
        let v: Vec<_> = p.cursor().collect();
        assert_eq!(
            v,
            vec![
                (0x100, AccessKind::Read),
                (0x140, AccessKind::Read),
                (0x180, AccessKind::Read)
            ]
        );
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn single_expansion() {
        let p = AccessPattern::Single {
            addr: 0xABC,
            kind: AccessKind::Write,
        };
        let v: Vec<_> = p.cursor().collect();
        assert_eq!(v, vec![(0xAB8 | 4, AccessKind::Write)]); // unchanged addr
        assert_eq!(v[0].0, 0xABC);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let p = AccessPattern::Random {
            base: 0x1000,
            extent: 0x800,
            count: 100,
            seed: 42,
            kind: AccessKind::Read,
        };
        let a: Vec<_> = p.cursor().collect();
        let b: Vec<_> = p.cursor().collect();
        assert_eq!(a, b, "same seed replays the same stream");
        for (addr, _) in &a {
            assert!(*addr >= 0x1000 && *addr < 0x1800);
            assert_eq!(addr % 8, 0, "8-byte aligned");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| AccessPattern::Random {
            base: 0,
            extent: 1 << 20,
            count: 50,
            seed,
            kind: AccessKind::Read,
        };
        let a: Vec<_> = mk(1).cursor().collect();
        let b: Vec<_> = mk(2).cursor().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn exact_size_iterator() {
        let p = AccessPattern::Sequential {
            base: 0,
            stride: 8,
            count: 10,
            kind: AccessKind::Read,
        };
        let mut c = p.cursor();
        assert_eq!(c.len(), 10);
        c.next();
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn zero_extent_random_stays_at_base() {
        let p = AccessPattern::Random {
            base: 0x40,
            extent: 0,
            count: 3,
            seed: 7,
            kind: AccessKind::Read,
        };
        assert!(p.cursor().all(|(a, _)| a == 0x40));
    }

    #[test]
    fn empty_pattern() {
        let p = AccessPattern::Sequential {
            base: 0,
            stride: 8,
            count: 0,
            kind: AccessKind::Read,
        };
        assert!(p.is_empty());
        assert_eq!(p.cursor().count(), 0);
    }
}
