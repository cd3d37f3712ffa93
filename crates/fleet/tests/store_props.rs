//! Property tests of the fleet store and fan-in accounting invariants.
//!
//! These pin the three contracts DESIGN.md promises:
//! 1. below shard capacity, no accepted sample is ever lost;
//! 2. per-shard timestamps are non-decreasing no matter the input order;
//! 3. under `DropNewest`, per-stream `sent == delivered + dropped` once
//!    the rings are drained — every sample is accounted exactly once.

use std::time::Duration;

use fleet::{ring_fanin, Backpressure, FleetStore, Lane, Polled, Window};
use kleb::Sample;
use pmu::HwEvent;
use proptest::prelude::*;

fn sample(timestamp_ns: u64, payload: u64) -> Sample {
    Sample {
        timestamp_ns,
        pid: 1,
        fixed: [payload, payload ^ 0xA5, payload.rotate_left(7)],
        pmc: [payload % 97, payload % 89, 0, 0],
        ..Sample::default()
    }
}

/// A batch with strictly increasing timestamps, at most `max_len` long.
fn arb_ordered_batch(max_len: usize) -> impl Strategy<Value = Vec<Sample>> {
    proptest::collection::vec((1u64..1_000, any::<u64>()), 0..max_len).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, payload)| {
                t += dt;
                sample(t, payload)
            })
            .collect()
    })
}

/// A batch with arbitrary (possibly regressing) timestamps. Payloads are
/// bounded so sums over a shard cannot overflow `u64`.
fn arb_unordered_batch(max_len: usize) -> impl Strategy<Value = Vec<Sample>> {
    proptest::collection::vec((0u64..10_000, 0u64..1_000_000), 0..max_len)
        .prop_map(|raw| raw.into_iter().map(|(t, p)| sample(t, p)).collect())
}

proptest! {
    /// Below capacity every accepted sample is retained in full, on every
    /// lane, in order.
    #[test]
    fn no_sample_lost_below_capacity(batch in arb_ordered_batch(64)) {
        let capacity = 64;
        let mut store = FleetStore::new(2, vec![HwEvent::LlcReference, HwEvent::LlcMiss], capacity);
        let (accepted, rejected) = store.ingest(0, &batch);
        prop_assert_eq!(accepted, batch.len() as u64);
        prop_assert_eq!(rejected, 0);
        prop_assert_eq!(store.stats().evicted_points, 0);
        for lane in [Lane::Fixed(0), Lane::Fixed(1), Lane::Fixed(2), Lane::Pmc(0), Lane::Pmc(1)] {
            let stored: Vec<u64> = store.points(0, lane).map(|p| p.delta).collect();
            let expect: Vec<u64> = batch
                .iter()
                .map(|s| match lane {
                    Lane::Fixed(i) => s.fixed[i],
                    Lane::Pmc(i) => s.pmc[i],
                })
                .collect();
            prop_assert_eq!(stored, expect, "lane {:?}", lane);
        }
        // The untouched machine stayed empty.
        prop_assert_eq!(store.points(1, Lane::INSTRUCTIONS).count(), 0);
    }

    /// Whatever order samples arrive in, retained per-shard timestamps are
    /// non-decreasing and `accepted + rejected` equals samples offered.
    #[test]
    fn shard_timestamps_stay_monotone(
        batches in proptest::collection::vec(arb_unordered_batch(16), 1..6),
    ) {
        let mut store = FleetStore::new(1, vec![HwEvent::LlcMiss], 32);
        let mut offered = 0u64;
        for batch in &batches {
            offered += batch.len() as u64;
            store.ingest(0, batch);
        }
        let stats = store.stats();
        prop_assert_eq!(stats.appended + stats.rejected, offered);
        for lane in [Lane::Fixed(0), Lane::Fixed(1), Lane::Fixed(2), Lane::Pmc(0)] {
            let ts: Vec<u64> = store.points(0, lane).map(|p| p.timestamp_ns).collect();
            prop_assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "lane {:?} regressed: {:?}", lane, ts
            );
            // Rejection is all-or-nothing across lanes, so every lane
            // retains exactly the accepted samples (minus evictions).
            prop_assert_eq!(
                ts.len() as u64 + store.evicted(0, lane),
                stats.appended,
                "lane {:?}", lane
            );
        }
        prop_assert_eq!(
            store.window_sum(0, Lane::INSTRUCTIONS, Window::all()),
            store.points(0, Lane::INSTRUCTIONS).map(|p| p.delta).sum::<u64>()
        );
    }

    /// Under `DropNewest`, once every ring is drained each stream's
    /// counters balance exactly: `sent == delivered + dropped`.
    #[test]
    fn drop_policies_account_every_sample(
        sends in proptest::collection::vec((0usize..3, 1u64..20), 0..40),
        capacity in 1usize..5,
    ) {
        let (mut senders, mut collector) = ring_fanin(3, capacity, Backpressure::DropNewest);
        let mut offered = [0u64; 3];
        for &(stream, len) in &sends {
            let batch: Vec<Sample> = (0..len).map(|i| sample(i + 1, i)).collect();
            offered[stream] += len;
            senders[stream].send(&batch);
        }
        drop(senders);
        let mut received = [0u64; 3];
        let mut scratch = Vec::new();
        loop {
            match collector.poll(Duration::from_millis(50), &mut scratch) {
                Polled::Batch { machine } => received[machine] += scratch.len() as u64,
                Polled::Timeout => continue,
                Polled::Disconnected => break,
            }
        }
        let stats = collector.stats();
        for stream in 0..3 {
            prop_assert_eq!(stats.sent[stream], offered[stream], "stream {}", stream);
            prop_assert_eq!(stats.delivered[stream], received[stream], "stream {}", stream);
            prop_assert_eq!(
                stats.sent[stream],
                stats.delivered[stream] + stats.dropped[stream],
                "stream {}: sent must equal delivered + dropped", stream
            );
        }
        prop_assert_eq!(stats.block_waits, 0, "DropNewest never blocks");
        // Rings round their capacity up to a power of two.
        prop_assert!(stats.depth_high_water <= capacity.next_power_of_two());
    }
}
