//! Property tests of the fleet store and fan-in accounting invariants.
//!
//! These pin the three contracts DESIGN.md promises:
//! 1. below capacity, no accepted sample is ever lost;
//! 2. per-lane timestamps are non-decreasing no matter the input order;
//! 3. under `DropNewest`, per-stream `sent == delivered + dropped` once
//!    the rings are drained — every sample is accounted exactly once.
//!
//! A fourth property checks the columnar store against [`Model`], a
//! naive per-lane store, with capacities small enough to force eviction.

use std::time::Duration;

use fleet::{ring_fanin, Backpressure, FleetStore, Lane, Point, Polled, StoreStats, Window};
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

const LANES: [Lane; 5] = [
    Lane::Fixed(0),
    Lane::Fixed(1),
    Lane::Fixed(2),
    Lane::Pmc(0),
    Lane::Pmc(1),
];

/// The store as the simplest thing that could hold it: per machine and
/// lane, a `Vec` of points. A full lane drops its front point; a sample
/// earlier than its machine's last accepted one is rejected whole.
struct Model {
    capacity: usize,
    /// `lanes[machine][lane]`, in [`LANES`] order.
    lanes: Vec<Vec<Vec<Point>>>,
    /// `evicted[machine][lane]`, in [`LANES`] order.
    evicted: Vec<Vec<u64>>,
    last: Vec<Option<u64>>,
    stats: StoreStats,
}

impl Model {
    fn new(machines: usize, capacity: usize) -> Self {
        Self {
            capacity,
            lanes: vec![vec![Vec::new(); LANES.len()]; machines],
            evicted: vec![vec![0; LANES.len()]; machines],
            last: vec![None; machines],
            stats: StoreStats::default(),
        }
    }

    fn ingest(&mut self, machine: usize, samples: &[Sample]) -> (u64, u64) {
        let (mut accepted, mut rejected) = (0, 0);
        for s in samples {
            if self.last[machine].is_some_and(|last| s.timestamp_ns < last) {
                rejected += 1;
                continue;
            }
            self.last[machine] = Some(s.timestamp_ns);
            let deltas = [s.fixed[0], s.fixed[1], s.fixed[2], s.pmc[0], s.pmc[1]];
            for (lane, delta) in deltas.into_iter().enumerate() {
                let points = &mut self.lanes[machine][lane];
                if points.len() == self.capacity {
                    points.remove(0);
                    self.evicted[machine][lane] += 1;
                    self.stats.evicted_points += 1;
                }
                points.push(Point {
                    timestamp_ns: s.timestamp_ns,
                    delta,
                });
            }
            accepted += 1;
        }
        self.stats.appended += accepted;
        self.stats.rejected += rejected;
        (accepted, rejected)
    }

    fn index(lane: Lane) -> usize {
        LANES.iter().position(|&l| l == lane).unwrap()
    }

    fn lane(&self, machine: usize, lane: Lane) -> &[Point] {
        &self.lanes[machine][Self::index(lane)]
    }

    fn window_sum(&self, machine: usize, lane: Lane, window: Window) -> u64 {
        self.lane(machine, lane)
            .iter()
            .filter(|p| window.contains(p.timestamp_ns))
            .fold(0, |sum, p| sum.wrapping_add(p.delta))
    }
}

proptest! {
    // Cheap cases, and the model covers the most code: run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The columnar store answers every query as the naive model does,
    /// through eviction, rejection and wrapping sums.
    #[test]
    fn columns_match_a_naive_per_lane_model(
        batches in proptest::collection::vec(
            (0usize..2, proptest::collection::vec((0u64..400, any::<u64>()), 0..12)),
            1..12,
        ),
        capacity in 1usize..9,
        windows in proptest::collection::vec((0u64..500, 0u64..500), 1..6),
    ) {
        let events = vec![HwEvent::LlcReference, HwEvent::LlcMiss];
        let mut store = FleetStore::new(2, events, capacity);
        let mut model = Model::new(2, capacity);
        for (machine, raw) in &batches {
            let batch: Vec<Sample> = raw.iter().map(|&(t, p)| sample(t, p)).collect();
            prop_assert_eq!(
                store.ingest(*machine, &batch),
                model.ingest(*machine, &batch)
            );
        }
        prop_assert_eq!(store.stats(), model.stats);
        let mut windows: Vec<Window> = windows
            .into_iter()
            .map(|(a, b)| Window { start_ns: a.min(b), end_ns: a.max(b) })
            .collect();
        windows.push(Window::all());
        for machine in 0..2 {
            let snapshot: Vec<Vec<Point>> =
                LANES.iter().map(|&lane| model.lane(machine, lane).to_vec()).collect();
            prop_assert_eq!(store.machine_snapshot(machine), snapshot);
            for lane in LANES {
                let points: Vec<Point> = store.points(machine, lane).collect();
                prop_assert_eq!(&points[..], model.lane(machine, lane));
                prop_assert_eq!(store.lane_len(machine, lane), points.len());
                prop_assert_eq!(
                    store.evicted(machine, lane),
                    model.evicted[machine][Model::index(lane)]
                );
                for &w in &windows {
                    prop_assert_eq!(
                        store.window_sum(machine, lane, w),
                        model.window_sum(machine, lane, w)
                    );
                }
            }
            for &w in &windows {
                let mpki = analysis::mpki(
                    model.window_sum(machine, Lane::Pmc(1), w),
                    model.window_sum(machine, Lane::INSTRUCTIONS, w),
                );
                prop_assert_eq!(
                    store.window_mpki(machine, Lane::Pmc(1), w).to_bits(),
                    mpki.to_bits()
                );
            }
            let series: Vec<f64> = model
                .lane(machine, Lane::Pmc(1))
                .iter()
                .zip(model.lane(machine, Lane::INSTRUCTIONS))
                .map(|(miss, instr)| analysis::mpki(miss.delta, instr.delta))
                .collect();
            let from_store: Vec<f64> = store.mpki_iter(machine, Lane::Pmc(1)).collect();
            prop_assert_eq!(from_store, series);
        }
    }
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
