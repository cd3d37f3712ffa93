//! The sample record and its wire encoding.
//!
//! Samples cross the kernel/user boundary through `read()` as fixed-size
//! little-endian records, the way the real module hands its kernel buffer to
//! the controller. Each record carries the timestamp, a kernel-assigned
//! sequence number, the pid that was on the core, the three fixed counters
//! and the four programmable counters — all as *deltas since the previous
//! sample* (the module resets counters after reading, producing the
//! per-period time series of Figs. 4 and 7).
//!
//! The sequence number and the gap flag exist for drop accounting: the
//! module assigns `seq` when it *takes* a sample, so if ring pressure
//! forces a drop the drained series shows a hole in `seq` and the next
//! surviving record carries `gap = true`. Consumers can therefore tell
//! "nothing happened" apart from "samples were lost here" (the degradation
//! must be accounted, not silent).

use ksim::wire;
use pmu::{NUM_FIXED, NUM_PROGRAMMABLE};

/// Flags bit: this is the final (partial-period) sample.
const FLAG_FINAL: u32 = 1 << 0;
/// Flags bit: one or more samples were dropped immediately before this one.
const FLAG_GAP: u32 = 1 << 1;
/// Flags bit: this is the first sample taken after a live `SET_PERIOD`
/// retune landed, marking the batch boundary where the new cadence began.
const FLAG_RETUNE: u32 = 1 << 2;

/// Encoded size of one record: 8 (timestamp) + 8 (seq) + 4 (pid) +
/// 4 (flags) + 3×8 (fixed) + 4×8 (pmc).
pub const RECORD_BYTES: usize = 8 + 8 + 4 + 4 + NUM_FIXED * 8 + NUM_PROGRAMMABLE * 8;

/// One performance-counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    /// Simulated time the sample was taken, nanoseconds since boot.
    pub timestamp_ns: u64,
    /// Kernel-assigned sequence number, counting every sample *taken*
    /// (including ones later dropped under ring pressure): holes in the
    /// drained series are exactly the drops.
    pub seq: u64,
    /// Pid that was running when the timer fired.
    pub pid: u32,
    /// Set when this is the final (partial-period) sample taken as the
    /// target exited.
    pub final_sample: bool,
    /// Set when at least one sample was dropped between the previous
    /// drained record and this one (a gap marker in the series).
    pub gap: bool,
    /// Set on the first sample taken after a live period retune, so
    /// governed runs carry their retune schedule in the sample stream
    /// itself and replay reproduces it byte-for-byte.
    pub retune: bool,
    /// Fixed-counter deltas: instructions retired, core cycles, ref cycles.
    pub fixed: [u64; NUM_FIXED],
    /// Programmable-counter deltas, in configured event order.
    pub pmc: [u64; NUM_PROGRAMMABLE],
}

impl Sample {
    /// Instructions retired in this period (fixed counter 0).
    pub(crate) fn instructions(&self) -> u64 {
        self.fixed[0]
    }

    /// Encodes into the 80-byte wire format.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.timestamp_ns.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
        let mut flags = 0u32;
        if self.final_sample {
            flags |= FLAG_FINAL;
        }
        if self.gap {
            flags |= FLAG_GAP;
        }
        if self.retune {
            flags |= FLAG_RETUNE;
        }
        out.extend_from_slice(&flags.to_le_bytes());
        for v in self.fixed {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in self.pmc {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes one record.
    ///
    /// Returns `None` unless `bytes` is exactly [`RECORD_BYTES`] long.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        wire::decode(bytes, |r| {
            let (timestamp_ns, seq, pid, flags) = (r.u64()?, r.u64()?, r.u32()?, r.u32()?);
            Some(Sample {
                timestamp_ns,
                seq,
                pid,
                final_sample: flags & FLAG_FINAL != 0,
                gap: flags & FLAG_GAP != 0,
                retune: flags & FLAG_RETUNE != 0,
                fixed: [r.u64()?, r.u64()?, r.u64()?],
                pmc: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            })
        })
    }

    /// Decodes a whole drained buffer into samples (ignoring any trailing
    /// partial record, which the module never produces).
    pub fn decode_all(bytes: &[u8]) -> Vec<Sample> {
        bytes
            .chunks_exact(RECORD_BYTES)
            .filter_map(Sample::decode)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            timestamp_ns: 123_456_789,
            seq: 17,
            pid: 42,
            final_sample: true,
            gap: true,
            retune: false,
            fixed: [1, 2, 3],
            pmc: [10, 20, 30, 40],
        }
    }

    #[test]
    fn record_size_is_fixed() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        assert_eq!(buf.len(), RECORD_BYTES);
        assert_eq!(RECORD_BYTES, 80);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        assert_eq!(Sample::decode(&buf), Some(sample()));
    }

    #[test]
    fn flags_round_trip_independently() {
        for bits in 0u8..8 {
            let s = Sample {
                final_sample: bits & 1 != 0,
                gap: bits & 2 != 0,
                retune: bits & 4 != 0,
                ..sample()
            };
            let mut buf = Vec::new();
            s.encode_into(&mut buf);
            assert_eq!(Sample::decode(&buf), Some(s));
        }
    }

    #[test]
    fn retune_flag_leaves_flagless_bytes_unchanged() {
        let plain = Sample {
            final_sample: false,
            gap: false,
            retune: false,
            ..sample()
        };
        let mut buf = Vec::new();
        plain.encode_into(&mut buf);
        assert_eq!(u32::from_le_bytes(buf[20..24].try_into().unwrap()), 0);
    }

    #[test]
    fn decode_needs_exactly_one_record() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        assert_eq!(Sample::decode(&buf[..RECORD_BYTES - 1]), None);
        assert_eq!(Sample::decode(&[0u8; 10]), None);
        buf.push(0);
        assert_eq!(Sample::decode(&buf), None);
    }

    #[test]
    fn decode_all_handles_multiple_records() {
        let mut buf = Vec::new();
        let mut a = sample();
        a.pid = 1;
        let mut b = sample();
        b.pid = 2;
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let all = Sample::decode_all(&buf);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].pid, 1);
        assert_eq!(all[1].pid, 2);
    }

    #[test]
    fn decode_all_ignores_trailing_garbage() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        buf.extend_from_slice(&[0xFF; 10]);
        assert_eq!(Sample::decode_all(&buf).len(), 1);
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.instructions(), 1);
    }
}
