//! Columnar sample-block codec.
//!
//! A block's payload stores its samples column-wise, each column encoded
//! to exploit what PMC streams actually look like (Figs. 4 and 7 of the
//! paper: near-periodic timestamps, slowly varying per-period deltas,
//! mostly-constant pids, rare flags):
//!
//! | column            | encoding |
//! |-------------------|----------|
//! | batch boundaries  | varint count, then varint lengths (drain batches, for replay fidelity) |
//! | `timestamp_ns`    | varint first, zigzag-varint delta, then delta-of-delta |
//! | `seq`             | varint first, then zigzag-varint deltas |
//! | `pid`             | varint first, then zigzag-varint deltas |
//! | `final`/`gap`     | sparse index lists (varint count + delta-coded positions) |
//! | 7 counter lanes   | tag `0`: constant (one varint) · tag `1`: varint first + zigzag-varint value deltas |
//!
//! Near-periodic timestamps make the delta-of-delta hover around zero
//! (one byte each); idle PMC lanes collapse to three bytes for a whole
//! block. Decoding tolerates arbitrary bytes: every malformed payload
//! returns `None`, never panics (the reader counts the block corrupt).

use crate::format::NUM_LANES;
use crate::varint::{apply_delta, delta, get_u64, put_u64, unzigzag, zigzag};
use kleb::Sample;
use pmu::NUM_FIXED;

/// Fewest payload bytes a sample can take: one varint byte in each of
/// the timestamp, seq and pid columns. A body of `n` bytes holds at most
/// `n / MIN_SAMPLE_BYTES` samples.
pub(crate) const MIN_SAMPLE_BYTES: usize = 3;

/// Column tag: every sample holds the same value.
const TAG_CONSTANT: u8 = 0;
/// Column tag: first value + per-sample value deltas.
const TAG_DELTA: u8 = 1;

fn lane_value(s: &Sample, lane: usize) -> u64 {
    if lane < NUM_FIXED {
        s.fixed[lane]
    } else {
        s.pmc[lane - NUM_FIXED]
    }
}

fn set_lane_value(s: &mut Sample, lane: usize, v: u64) {
    if lane < NUM_FIXED {
        s.fixed[lane] = v;
    } else {
        s.pmc[lane - NUM_FIXED] = v;
    }
}

fn put_sparse_flags(out: &mut Vec<u8>, samples: &[Sample], flag: impl Fn(&Sample) -> bool) {
    // Two passes — count, then emit — so the hot path never materializes
    // an index list. Flags are rare (that is why the encoding is sparse),
    // so the second pass is nearly free.
    let n = samples.iter().filter(|s| flag(s)).count();
    put_u64(out, n as u64);
    let mut prev = 0u64;
    let mut first = true;
    for (i, _) in samples.iter().enumerate().filter(|(_, s)| flag(s)) {
        let i = i as u64;
        // First index absolute, the rest as gaps (always ≥ 1).
        put_u64(out, if first { i } else { i - prev });
        first = false;
        prev = i;
    }
}

fn get_sparse_flags(bytes: &[u8], pos: &mut usize, count: usize) -> Option<Vec<usize>> {
    let n = get_u64(bytes, pos)?;
    if n > count as u64 {
        return None;
    }
    let mut indices = Vec::with_capacity(n as usize);
    let mut at = 0u64;
    for i in 0..n {
        let v = get_u64(bytes, pos)?;
        at = if i == 0 { v } else { at.checked_add(v)? };
        if at >= count as u64 {
            return None;
        }
        indices.push(at as usize);
    }
    Some(indices)
}

/// Per-block metadata [`encode_block_into`] returns beside the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Bit `i` ⇔ lane `i` carries a nonzero value somewhere in the block.
    pub lane_mask: u16,
    /// Smallest timestamp in the block.
    pub min_ts: u64,
    /// Largest timestamp in the block.
    pub max_ts: u64,
}

/// Encodes `samples` (non-empty) with the given drain-batch lengths
/// (`batch_lens` sums to `samples.len()`; the writer maintains this)
/// into `payload` (cleared first), reusing its allocation — a streaming
/// writer flushing block after block allocates exactly once.
pub fn encode_block_into(
    samples: &[Sample],
    batch_lens: &[u64],
    payload: &mut Vec<u8>,
) -> BlockSummary {
    payload.clear();
    payload.reserve(samples.len() * 10);

    put_u64(payload, batch_lens.len() as u64);
    for &len in batch_lens {
        put_u64(payload, len);
    }

    // Timestamps: delta-of-delta.
    put_u64(payload, samples[0].timestamp_ns);
    let mut prev_delta = 0i64;
    for w in samples.windows(2) {
        let d = delta(w[0].timestamp_ns, w[1].timestamp_ns);
        put_u64(payload, zigzag(d.wrapping_sub(prev_delta)));
        prev_delta = d;
    }

    // Sequence numbers and pids: plain value deltas.
    put_u64(payload, samples[0].seq);
    for w in samples.windows(2) {
        put_u64(payload, zigzag(delta(w[0].seq, w[1].seq)));
    }
    put_u64(payload, samples[0].pid as u64);
    for w in samples.windows(2) {
        put_u64(payload, zigzag(delta(w[0].pid as u64, w[1].pid as u64)));
    }

    put_sparse_flags(payload, samples, |s| s.final_sample);
    put_sparse_flags(payload, samples, |s| s.gap);
    let any_retune = samples.iter().any(|s| s.retune);

    let mut lane_mask = 0u16;
    for lane in 0..NUM_LANES {
        let first = lane_value(&samples[0], lane);
        if samples.iter().any(|s| lane_value(s, lane) != 0) {
            lane_mask |= 1 << lane;
        }
        if samples.iter().all(|s| lane_value(s, lane) == first) {
            payload.push(TAG_CONSTANT);
            put_u64(payload, first);
        } else {
            payload.push(TAG_DELTA);
            put_u64(payload, first);
            for w in samples.windows(2) {
                put_u64(
                    payload,
                    zigzag(delta(lane_value(&w[0], lane), lane_value(&w[1], lane))),
                );
            }
        }
    }

    // Retune markers ride as a trailing sparse list, present only when at
    // least one sample carries the flag: retune-free blocks stay
    // byte-identical to the original format, and old traces (which never
    // have trailing bytes here) decode unchanged.
    if any_retune {
        put_sparse_flags(payload, samples, |s| s.retune);
    }

    BlockSummary {
        lane_mask,
        min_ts: samples.iter().map(|s| s.timestamp_ns).min().unwrap_or(0),
        max_ts: samples.iter().map(|s| s.timestamp_ns).max().unwrap_or(0),
    }
}

/// Decodes a block payload of `count` samples.
///
/// Returns the samples and the drain-batch lengths, or `None` for any
/// malformed payload (truncated columns, batch lengths that do not sum to
/// `count`, trailing garbage).
pub fn decode_block(payload: &[u8], count: usize) -> Option<(Vec<Sample>, Vec<u64>)> {
    if count == 0 {
        return None;
    }
    let pos = &mut 0usize;

    let n_batches = get_u64(payload, pos)?;
    if n_batches > count as u64 {
        return None;
    }
    let mut batch_lens = Vec::with_capacity(n_batches as usize);
    let mut batch_total = 0u64;
    for _ in 0..n_batches {
        let len = get_u64(payload, pos)?;
        batch_total = batch_total.checked_add(len)?;
        batch_lens.push(len);
    }
    if batch_total != count as u64 {
        return None;
    }

    let mut samples = vec![Sample::default(); count];

    samples[0].timestamp_ns = get_u64(payload, pos)?;
    let mut prev_delta = 0i64;
    for i in 1..count {
        let dod = unzigzag(get_u64(payload, pos)?);
        prev_delta = prev_delta.wrapping_add(dod);
        samples[i].timestamp_ns = apply_delta(samples[i - 1].timestamp_ns, prev_delta);
    }

    samples[0].seq = get_u64(payload, pos)?;
    for i in 1..count {
        let d = unzigzag(get_u64(payload, pos)?);
        samples[i].seq = apply_delta(samples[i - 1].seq, d);
    }
    let first_pid = get_u64(payload, pos)?;
    samples[0].pid = u32::try_from(first_pid).ok()?;
    for i in 1..count {
        let d = unzigzag(get_u64(payload, pos)?);
        let pid = apply_delta(samples[i - 1].pid as u64, d);
        samples[i].pid = u32::try_from(pid & 0xFFFF_FFFF).ok()?;
    }

    for i in get_sparse_flags(payload, pos, count)? {
        samples[i].final_sample = true;
    }
    for i in get_sparse_flags(payload, pos, count)? {
        samples[i].gap = true;
    }

    for lane in 0..NUM_LANES {
        let tag = *payload.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_CONSTANT => {
                let v = get_u64(payload, pos)?;
                for s in samples.iter_mut() {
                    set_lane_value(s, lane, v);
                }
            }
            TAG_DELTA => {
                let mut v = get_u64(payload, pos)?;
                set_lane_value(&mut samples[0], lane, v);
                for s in samples.iter_mut().skip(1) {
                    let d = unzigzag(get_u64(payload, pos)?);
                    v = apply_delta(v, d);
                    set_lane_value(s, lane, v);
                }
            }
            _ => return None,
        }
    }

    // Trailing bytes, if any, are the retune sparse list (absent when no
    // sample was retune-flagged — and always absent in v1 traces).
    if *pos != payload.len() {
        let indices = get_sparse_flags(payload, pos, count)?;
        if indices.is_empty() {
            return None; // an empty list is never emitted
        }
        for i in indices {
            samples[i].retune = true;
        }
    }
    if *pos != payload.len() {
        return None; // trailing bytes: not something this codec wrote
    }
    Some((samples, batch_lens))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                timestamp_ns: 1_000_000 + i * 100_000 + (i % 3) * 17,
                seq: i * 2, // holes
                pid: 42,
                final_sample: i == n - 1,
                gap: i % 5 == 4,
                retune: false,
                fixed: [1_000 + i % 7, 2_670 + i % 13, 2_000],
                pmc: [40 + i % 11, i % 3, 0, 0],
            })
            .collect()
    }

    /// The payload of `samples` in a fresh allocation.
    fn encode(samples: &[Sample], batch_lens: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_block_into(samples, batch_lens, &mut payload);
        payload
    }

    #[test]
    fn round_trip_preserves_samples_and_batches() {
        let samples = stream(100);
        let batches = vec![30, 50, 20];
        let mut payload = Vec::new();
        let summary = encode_block_into(&samples, &batches, &mut payload);
        let (decoded, lens) = decode_block(&payload, samples.len()).unwrap();
        assert_eq!(decoded, samples);
        assert_eq!(lens, batches);
        assert_eq!(summary.min_ts, samples[0].timestamp_ns);
        assert_eq!(summary.max_ts, samples[99].timestamp_ns);
        assert!(payload.len() >= samples.len() * MIN_SAMPLE_BYTES);
    }

    #[test]
    fn lane_mask_marks_active_lanes_only() {
        let samples = stream(10);
        let summary = encode_block_into(&samples, &[10], &mut Vec::new());
        // fixed 0..3 active, pmc0 active, pmc1 active (i%3), pmc2/3 idle.
        assert_eq!(summary.lane_mask & 0b111, 0b111);
        assert_ne!(summary.lane_mask & (1 << 3), 0);
        assert_eq!(summary.lane_mask & (1 << 5), 0);
        assert_eq!(summary.lane_mask & (1 << 6), 0);
    }

    /// A fleet-shaped stream: 100 µs timestamps with up to 700 ns of
    /// seeded timer jitter, noisy fixed and PMC lanes, rare gaps.
    fn noisy_stream(n: u64, seed: u64) -> Vec<Sample> {
        let noise = |i: u64| crate::corrupt::splitmix64(&mut (seed ^ i));
        let mut ts = 1_000_000;
        (0..n)
            .map(|i| {
                ts += 100_000 + noise(i) % 700;
                Sample {
                    timestamp_ns: ts,
                    seq: i,
                    pid: 31337,
                    final_sample: i + 1 == n,
                    gap: noise(i).is_multiple_of(97),
                    retune: false,
                    fixed: [1_000 + noise(i) % 40, 2_670 + noise(i ^ 1) % 25, 2_000],
                    pmc: [40 + noise(i ^ 2) % 11, noise(i ^ 3) % 4, 0, 0],
                }
            })
            .collect()
    }

    #[test]
    fn dense_stream_beats_ten_bytes_per_sample() {
        let mut cases = vec![(stream(512), vec![512])];
        for n in [256, 4096] {
            // 16-sample batches: a typical fleet drain granularity.
            cases.push((noisy_stream(n, 42), vec![16; n as usize / 16]));
        }
        for (samples, lens) in cases {
            let enc = encode(&samples, &lens);
            let per = enc.len() as f64 / samples.len() as f64;
            assert!(
                per < 10.0,
                "{} samples: got {per:.2} bytes/sample",
                samples.len()
            );
            let decoded = decode_block(&enc, samples.len()).unwrap();
            assert_eq!(decoded, (samples, lens));
        }
    }

    #[test]
    fn retune_flags_round_trip() {
        let mut samples = stream(50);
        samples[7].retune = true;
        samples[31].retune = true;
        let enc = encode(&samples, &[50]);
        let (decoded, _) = decode_block(&enc, 50).unwrap();
        assert_eq!(decoded, samples);
    }

    #[test]
    fn retune_free_blocks_are_byte_identical_to_the_v1_encoding() {
        // The retune list is strictly additive: a block with no retune
        // flags must not spend a single byte on it, so traces written
        // before the governor existed decode and re-encode unchanged.
        let samples = stream(50);
        let plain = encode(&samples, &[50]);
        let mut flagged = samples.clone();
        flagged[7].retune = true;
        let with = encode(&flagged, &[50]);
        assert!(with.len() > plain.len());
        assert_eq!(&with[..plain.len()], &plain[..]);
    }

    #[test]
    fn single_sample_block_round_trips() {
        let samples = stream(1);
        let enc = encode(&samples, &[1]);
        let (decoded, lens) = decode_block(&enc, 1).unwrap();
        assert_eq!(decoded, samples);
        assert_eq!(lens, vec![1]);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut samples = stream(4);
        samples[1].timestamp_ns = u64::MAX;
        samples[2].timestamp_ns = 0;
        samples[1].fixed[0] = u64::MAX;
        samples[2].pmc[3] = u64::MAX;
        samples[3].pid = u32::MAX;
        let enc = encode(&samples, &[4]);
        let (decoded, _) = decode_block(&enc, 4).unwrap();
        assert_eq!(decoded, samples);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        let samples = stream(20);
        let enc = encode(&samples, &[20]);
        // Truncation at every byte boundary: None, never a panic.
        for cut in 0..enc.len() {
            assert!(decode_block(&enc[..cut], 20).is_none(), "cut {cut}");
        }
        // Wrong count.
        assert!(decode_block(&enc, 19).is_none());
        // Trailing garbage.
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_block(&long, 20).is_none());
        // Arbitrary garbage bytes.
        assert!(decode_block(&[0xFF; 64], 20).is_none());
    }
}
