//! Columnar, append-only time-series store for fleet sample streams.
//!
//! Layout mirrors how queries read: each machine keeps one column of
//! sample timestamps and, per **counter lane** (three fixed counters plus
//! one lane per programmed event), one column of prefix sums. A point's
//! delta is the difference of two neighbouring prefix sums, so a sample
//! costs one word per lane plus its timestamp. Appends are O(1); when a
//! machine's columns fill, the oldest sample is evicted from every
//! column at once and counted — the store bounds memory the way K-LEB's
//! kernel ring bounds its buffer, but visibly.
//!
//! Windowed aggregation is incremental, not a scan: per-machine
//! timestamps are monotone, so a window's bounds are two binary searches
//! over the timestamp column and `window_sum` / `window_mpki` are
//! O(log n) in the machine's retained samples.
//!
//! Invariants (property-tested in `tests/store_props.rs`):
//! - below capacity, every accepted sample is retained in full;
//! - per-machine timestamps are non-decreasing — out-of-order samples
//!   are rejected whole, never partially applied;
//! - `appended + rejected` equals samples offered.

use std::collections::VecDeque;

use pmu::{HwEvent, NUM_FIXED, NUM_PROGRAMMABLE};

/// One counter lane of a machine's sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A fixed counter: 0 = instructions, 1 = core cycles,
    /// 2 = reference cycles.
    Fixed(usize),
    /// A programmable counter, indexed in configured-event order.
    Pmc(usize),
}

impl Lane {
    /// The instructions-retired lane (fixed counter 0).
    pub const INSTRUCTIONS: Lane = Lane::Fixed(0);
}

/// One stored point: a per-period counter delta at its sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Sample timestamp, nanoseconds of simulated time.
    pub timestamp_ns: u64,
    /// Counter delta over the sampling period.
    pub delta: u64,
}

/// A half-open query window `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive start, nanoseconds.
    pub start_ns: u64,
    /// Exclusive end, nanoseconds.
    pub end_ns: u64,
}

impl Window {
    /// The window covering all of time.
    pub fn all() -> Self {
        Self {
            start_ns: 0,
            end_ns: u64::MAX,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        t >= self.start_ns && t < self.end_ns
    }
}

/// One machine's retained samples: a sample is accepted, rejected and
/// evicted whole, in every column at once.
#[derive(Debug, Clone)]
struct Columns {
    /// Sample timestamps, non-decreasing.
    ts: VecDeque<u64>,
    /// Per lane, one entry more than `ts`: `cum[lane][i]` is the wrapping
    /// sum of every delta ever appended to the lane before sample `i`.
    /// The first entry sums every evicted delta, so eviction pops the
    /// front without touching the survivors, and the sum over samples
    /// `lo..hi` is one subtraction: `cum[lane][hi] - cum[lane][lo]`.
    cum: Vec<VecDeque<u64>>,
    /// Samples evicted from the front.
    evicted: u64,
}

impl Columns {
    /// The half-open index range of samples inside `window`.
    fn bounds(&self, window: Window) -> (usize, usize) {
        let lo = self.ts.partition_point(|&t| t < window.start_ns);
        let hi = self.ts.partition_point(|&t| t < window.end_ns);
        (lo, hi)
    }

    /// Sum of `lane`'s deltas over samples `lo..hi`.
    fn range_sum(&self, lane: usize, lo: usize, hi: usize) -> u64 {
        self.cum[lane][hi].wrapping_sub(self.cum[lane][lo])
    }

    /// `lane`'s points for samples `lo..hi`, oldest first.
    fn points(&self, lane: usize, lo: usize, hi: usize) -> impl Iterator<Item = Point> + '_ {
        let cum = &self.cum[lane];
        let sums = cum.range(lo..hi).zip(cum.range(lo + 1..=hi));
        self.ts
            .range(lo..hi)
            .zip(sums)
            .map(|(&timestamp_ns, (before, after))| Point {
                timestamp_ns,
                delta: after.wrapping_sub(*before),
            })
    }
}

/// Per-store counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Samples accepted (each fans out to every lane).
    pub appended: u64,
    /// Samples rejected for violating timestamp monotonicity.
    pub rejected: u64,
    /// Points evicted (one per lane for each evicted sample).
    pub evicted_points: u64,
}

/// The fleet-wide sample store.
#[derive(Debug, Clone)]
pub struct FleetStore {
    events: Vec<HwEvent>,
    shard_capacity: usize,
    machines: Vec<Columns>,
    stats: StoreStats,
}

impl FleetStore {
    /// A store for `machines` streams whose samples carry `events` on the
    /// programmable counters, each machine bounded to `shard_capacity`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0` or `shard_capacity == 0`.
    pub fn new(machines: usize, events: Vec<HwEvent>, shard_capacity: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(shard_capacity > 0, "shards must hold at least one point");
        let columns = Columns {
            ts: VecDeque::new(),
            cum: vec![VecDeque::from([0]); NUM_FIXED + events.len()],
            evicted: 0,
        };
        Self {
            events,
            shard_capacity,
            machines: vec![columns; machines],
            stats: StoreStats::default(),
        }
    }

    /// Number of machine streams.
    pub(crate) fn machines(&self) -> usize {
        self.machines.len()
    }

    /// The `Lane::Pmc` lane for `event`, if it was configured.
    pub fn lane_of(&self, event: HwEvent) -> Option<Lane> {
        self.events.iter().position(|&e| e == event).map(Lane::Pmc)
    }

    fn lane_index(&self, lane: Lane) -> usize {
        match lane {
            Lane::Fixed(i) => {
                assert!(i < NUM_FIXED, "fixed lanes are 0..3");
                i
            }
            Lane::Pmc(i) => {
                assert!(i < self.events.len(), "pmc lane {i} not configured");
                NUM_FIXED + i
            }
        }
    }

    /// One machine's columns and the column index of `lane`.
    fn column(&self, machine: usize, lane: Lane) -> (&Columns, usize) {
        (&self.machines[machine], self.lane_index(lane))
    }

    /// Appends a batch of samples from `machine`.
    ///
    /// Each sample is accepted atomically across lanes; a sample whose
    /// timestamp precedes the machine's last accepted one is rejected
    /// whole. Returns `(accepted, rejected)` counts.
    pub fn ingest(&mut self, machine: usize, samples: &[kleb::Sample]) -> (u64, u64) {
        let columns = &mut self.machines[machine];
        // Room for what the batch can add below capacity, reserved up
        // front: one bulk ingest sizes the columns once instead of
        // doubling them.
        let room = samples.len().min(self.shard_capacity - columns.ts.len());
        columns.ts.reserve(room);
        for cum in &mut columns.cum {
            cum.reserve(room);
        }
        let (mut accepted, mut rejected, mut evicted) = (0, 0, 0);
        // The last timestamp and each lane's running sum, carried here
        // rather than read back from the columns for every sample.
        let mut last = columns.ts.back().copied();
        let mut sums = [0u64; NUM_FIXED + NUM_PROGRAMMABLE];
        for (sum, cum) in sums.iter_mut().zip(&columns.cum) {
            *sum = cum.back().copied().unwrap_or_default();
        }
        for s in samples {
            if last.is_some_and(|last| s.timestamp_ns < last) {
                rejected += 1;
                continue;
            }
            if columns.ts.len() == self.shard_capacity {
                columns.ts.pop_front();
                for cum in &mut columns.cum {
                    cum.pop_front();
                }
                columns.evicted += 1;
                evicted += columns.cum.len() as u64;
            }
            columns.ts.push_back(s.timestamp_ns);
            last = Some(s.timestamp_ns);
            let mut deltas = [0u64; NUM_FIXED + NUM_PROGRAMMABLE];
            deltas[..NUM_FIXED].copy_from_slice(&s.fixed);
            deltas[NUM_FIXED..].copy_from_slice(&s.pmc);
            // One column per configured lane: the zip ends there.
            for ((cum, sum), delta) in columns.cum.iter_mut().zip(&mut sums).zip(deltas) {
                *sum = sum.wrapping_add(delta);
                cum.push_back(*sum);
            }
            accepted += 1;
        }
        self.stats.appended += accepted;
        self.stats.rejected += rejected;
        self.stats.evicted_points += evicted;
        (accepted, rejected)
    }

    /// The retained points of one lane, oldest first.
    pub fn points(&self, machine: usize, lane: Lane) -> impl Iterator<Item = Point> + '_ {
        let (columns, lane) = self.column(machine, lane);
        columns.points(lane, 0, columns.ts.len())
    }

    /// Points evicted from one lane since creation.
    pub fn evicted(&self, machine: usize, lane: Lane) -> u64 {
        self.column(machine, lane).0.evicted
    }

    /// Store-wide counter totals.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Sum of deltas in a window of one lane: two binary searches and
    /// one subtraction of prefix sums — O(log n), never a scan.
    pub fn window_sum(&self, machine: usize, lane: Lane, window: Window) -> u64 {
        let (columns, lane) = self.column(machine, lane);
        let (lo, hi) = columns.bounds(window);
        columns.range_sum(lane, lo, hi)
    }

    /// Misses-per-kilo-instruction over a window: `miss_lane` summed
    /// against the instructions lane.
    pub fn window_mpki(&self, machine: usize, miss_lane: Lane, window: Window) -> f64 {
        let misses = self.window_sum(machine, miss_lane, window);
        let instructions = self.window_sum(machine, Lane::INSTRUCTIONS, window);
        analysis::mpki(misses, instructions)
    }

    /// Retained points in one lane.
    pub fn lane_len(&self, machine: usize, lane: Lane) -> usize {
        self.column(machine, lane).0.ts.len()
    }

    /// Per-sample MPKI stream for one machine, sample order — the
    /// fan-in detector's input. Pairs `miss_lane` with the instructions
    /// lane point-by-point (both lanes retain the same timestamps).
    /// Lazy: feeds a detector scan without materializing the series.
    pub fn mpki_iter(&self, machine: usize, miss_lane: Lane) -> impl Iterator<Item = f64> + '_ {
        self.points(machine, miss_lane)
            .zip(self.points(machine, Lane::INSTRUCTIONS))
            .map(|(miss, instr)| analysis::mpki(miss.delta, instr.delta))
    }

    /// Every lane, in snapshot and digest order: the fixed lanes, then
    /// the programmed events.
    pub(crate) fn all_lanes(&self) -> impl Iterator<Item = Lane> {
        (0..NUM_FIXED)
            .map(Lane::Fixed)
            .chain((0..self.events.len()).map(Lane::Pmc))
    }

    /// Every retained point of one machine, lane-major — bit-exact
    /// equality of two snapshots proves bit-exact streams.
    pub fn machine_snapshot(&self, machine: usize) -> Vec<Vec<Point>> {
        self.all_lanes()
            .map(|lane| self.points(machine, lane).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleb::Sample;

    fn sample(t: u64, instr: u64, miss: u64) -> Sample {
        Sample {
            timestamp_ns: t,
            pid: 1,
            fixed: [instr, instr * 2, instr * 3],
            pmc: [0, miss, 0, 0],
            ..Sample::default()
        }
    }

    fn store() -> FleetStore {
        FleetStore::new(2, vec![HwEvent::LlcReference, HwEvent::LlcMiss], 8)
    }

    #[test]
    fn ingest_fans_out_to_every_lane() {
        let mut s = store();
        s.ingest(0, &[sample(100, 10, 3), sample(200, 20, 5)]);
        assert_eq!(
            s.points(0, Lane::INSTRUCTIONS)
                .map(|p| p.delta)
                .sum::<u64>(),
            30
        );
        assert_eq!(s.window_sum(0, Lane::Pmc(1), Window::all()), 8);
        assert_eq!(s.window_sum(1, Lane::Pmc(1), Window::all()), 0);
    }

    #[test]
    fn out_of_order_samples_are_rejected_whole() {
        let mut s = store();
        let (a, r) = s.ingest(
            0,
            &[sample(500, 1, 1), sample(400, 9, 9), sample(500, 2, 2)],
        );
        assert_eq!((a, r), (2, 1));
        // The rejected sample left no trace on any lane.
        assert_eq!(s.window_sum(0, Lane::INSTRUCTIONS, Window::all()), 3);
        let ts: Vec<u64> = s.points(0, Lane::Pmc(0)).map(|p| p.timestamp_ns).collect();
        assert_eq!(ts, vec![500, 500], "equal timestamps are allowed");
    }

    #[test]
    fn full_shards_evict_oldest_and_count() {
        let mut s = FleetStore::new(1, vec![], 4);
        let batch: Vec<Sample> = (0..10).map(|i| sample(i * 100, i, 0)).collect();
        s.ingest(0, &batch);
        assert_eq!(s.points(0, Lane::INSTRUCTIONS).count(), 4);
        assert_eq!(s.evicted(0, Lane::INSTRUCTIONS), 6);
        let first = s.points(0, Lane::INSTRUCTIONS).next().unwrap();
        assert_eq!(first.timestamp_ns, 600, "oldest went first");
        assert_eq!(s.stats().evicted_points, 6 * 3);
    }

    #[test]
    fn window_queries_respect_bounds() {
        let mut s = store();
        s.ingest(
            0,
            &[sample(100, 10, 1), sample(200, 10, 2), sample(300, 10, 4)],
        );
        let w = Window {
            start_ns: 100,
            end_ns: 300,
        };
        assert_eq!(s.window_sum(0, Lane::Pmc(1), w), 3, "end is exclusive");
        assert_eq!(s.window_mpki(0, Lane::Pmc(1), w), 3.0 / (20.0 / 1000.0));
    }

    #[test]
    fn snapshots_capture_machine_state_exactly() {
        let mut a = store();
        let mut b = store();
        let batch = [sample(100, 7, 2), sample(250, 8, 3)];
        a.ingest(0, &batch);
        b.ingest(0, &batch);
        assert_eq!(a.machine_snapshot(0), b.machine_snapshot(0));
        b.ingest(0, &[sample(900, 1, 1)]);
        assert_ne!(a.machine_snapshot(0), b.machine_snapshot(0));
        assert_eq!(
            a.machine_snapshot(1),
            b.machine_snapshot(1),
            "other machine untouched"
        );
    }

    #[test]
    fn window_sums_survive_eviction() {
        // Prefix sums must stay correct as the ring laps its capacity.
        let mut s = FleetStore::new(1, vec![], 4);
        for i in 0..12u64 {
            s.ingest(0, &[sample(i * 100, i + 1, 0)]);
            // Every window agrees with a naive filter at every step.
            for (start, end) in [(0, u64::MAX), (300, 900), (i * 100, u64::MAX), (500, 500)] {
                let w = Window {
                    start_ns: start,
                    end_ns: end,
                };
                let naive: u64 = s
                    .points(0, Lane::INSTRUCTIONS)
                    .filter(|p| w.contains(p.timestamp_ns))
                    .map(|p| p.delta)
                    .sum();
                assert_eq!(
                    s.window_sum(0, Lane::INSTRUCTIONS, w),
                    naive,
                    "i={i} w={w:?}"
                );
            }
        }
        assert_eq!(s.evicted(0, Lane::INSTRUCTIONS), 8);
    }

    #[test]
    fn lane_len_counts_retained_points() {
        let mut s = FleetStore::new(1, vec![], 4);
        assert_eq!(s.lane_len(0, Lane::INSTRUCTIONS), 0);
        let batch: Vec<Sample> = (0..6).map(|i| sample(i * 100, 1, 0)).collect();
        s.ingest(0, &batch);
        assert_eq!(s.lane_len(0, Lane::INSTRUCTIONS), 4, "capped at capacity");
    }

    #[test]
    fn mpki_iter_pairs_lanes() {
        let mut s = store();
        s.ingest(0, &[sample(100, 1000, 5), sample(200, 2000, 4)]);
        let series: Vec<f64> = s.mpki_iter(0, Lane::Pmc(1)).collect();
        assert_eq!(series, vec![5.0, 2.0]);
    }
}
