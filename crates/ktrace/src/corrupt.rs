//! Deterministic trace corruption for recovery testing.
//!
//! The same philosophy as `ksim::faults`: damage is a *plan* applied by
//! a seeded generator, so a failing recovery test replays bit-for-bit
//! from its seed. The injector mutates a serialized trace image the way
//! real storage fails — flipped bytes, torn tails — and returns a log of
//! exactly what it did.

/// Salt folded into the seed so trace corruption never correlates with
/// other seeded subsystems running off the same base seed.
const CORRUPT_SEED_SALT: u64 = 0x7A3C_91D5_42F6_8E0B;

/// What to do to a trace image. All damage is derived from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionPlan {
    /// Seed for the damage generator.
    pub seed: u64,
    /// Single-byte XOR flips scattered over the corruptible range.
    pub flips: u32,
    /// Chop a pseudo-random tail (1‥=25% of the image) — a torn write.
    pub truncate_tail: bool,
    /// Leading bytes to spare (pass the file-header length to keep the
    /// stream identity readable; `0` lets the header burn too).
    pub spare_prefix: usize,
}

impl CorruptionPlan {
    /// Byte flips only, sparing the first `spare_prefix` bytes.
    pub fn flips(seed: u64, flips: u32, spare_prefix: usize) -> Self {
        Self {
            seed,
            flips,
            truncate_tail: false,
            spare_prefix,
        }
    }
}

/// Exactly what [`corrupt`] did — deterministic for a given plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionLog {
    /// Offsets whose byte was XOR-flipped, in application order.
    pub flipped: Vec<usize>,
    /// Bytes removed from the tail.
    pub truncated: usize,
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `plan` to `bytes` in place. Truncation happens first (so
/// flips land on bytes that survive), then the flips. A flip always
/// changes the byte (XOR with a nonzero pattern).
pub fn corrupt(bytes: &mut Vec<u8>, plan: &CorruptionPlan) -> CorruptionLog {
    let mut state = plan.seed ^ CORRUPT_SEED_SALT;
    let mut log = CorruptionLog::default();
    if plan.truncate_tail && !bytes.is_empty() {
        let max_cut = (bytes.len() / 4).max(1);
        let cut = (splitmix64(&mut state) as usize % max_cut) + 1;
        let cut = cut.min(bytes.len());
        bytes.truncate(bytes.len() - cut);
        log.truncated = cut;
    }
    if bytes.len() > plan.spare_prefix {
        let range = bytes.len() - plan.spare_prefix;
        for _ in 0..plan.flips {
            let off = plan.spare_prefix + (splitmix64(&mut state) as usize % range);
            let pattern = (splitmix64(&mut state) as u8) | 1; // never 0
            bytes[off] ^= pattern;
            log.flipped.push(off);
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_plan_same_damage() {
        let image: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let plan = CorruptionPlan {
            seed: 42,
            flips: 8,
            truncate_tail: true,
            spare_prefix: 64,
        };
        let (mut a, mut b) = (image.clone(), image);
        let log_a = corrupt(&mut a, &plan);
        let log_b = corrupt(&mut b, &plan);
        assert_eq!(log_a, log_b);
        assert_eq!(a, b);
        assert_eq!(log_a.flipped.len(), 8);
        assert!(log_a.truncated >= 1);
    }

    #[test]
    fn different_seeds_differ() {
        let image: Vec<u8> = vec![0xAB; 4096];
        let (mut a, mut b) = (image.clone(), image);
        corrupt(&mut a, &CorruptionPlan::flips(1, 4, 0));
        corrupt(&mut b, &CorruptionPlan::flips(2, 4, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_is_spared_and_flips_always_change() {
        let image: Vec<u8> = vec![0u8; 1024];
        let mut damaged = image.clone();
        let log = corrupt(&mut damaged, &CorruptionPlan::flips(7, 32, 128));
        assert_eq!(&damaged[..128], &image[..128]);
        for &off in &log.flipped {
            assert!(off >= 128);
        }
        // Flipping an even number of times can cancel; the *log* still
        // records every application, and at least one byte differs here
        // because offsets rarely all pair up — check via the log instead:
        assert_eq!(log.flipped.len(), 32);
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut image: Vec<u8> = (0..100u8).collect();
        let log = corrupt(&mut image, &CorruptionPlan::flips(0, 0, 0));
        assert_eq!(log, CorruptionLog::default());
        assert_eq!(image.len(), 100);
    }
}
