//! A fully tunable synthetic workload for ablations and calibration.

use pmu::EventCounts;

use ksim::{Duration, ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// Builder-configured synthetic event generator.
///
/// Runs `blocks` identical blocks, optionally interleaving sleeps (to test
/// scheduling interactions) and random memory traffic over a working set
/// (to test cache-dependent behaviours).
#[derive(Debug, Clone)]
pub struct Synthetic {
    blocks: u64,
    emitted: u64,
    instructions: u64,
    cycles: u64,
    events: EventCounts,
    accesses: u64,
    working_set: u64,
    seed: u64,
}

impl Synthetic {
    /// `blocks` blocks of `instructions` instructions over `cycles` cycles.
    pub fn new(blocks: u64, instructions: u64, cycles: u64) -> Self {
        Self {
            blocks,
            emitted: 0,
            instructions,
            cycles,
            events: EventCounts::new(),
            accesses: 0,
            working_set: 0,
            seed: 1,
        }
    }

    /// A CPU-bound workload of roughly `duration` at 2.67 GHz, in ~40 µs
    /// blocks, with a typical integer-code event mix (branches every 5th
    /// instruction, register-file loads/stores that stay in L1).
    pub fn cpu_bound(duration: Duration) -> Self {
        let total_cycles = (duration.as_nanos() as u128 * 267 / 100) as u64;
        let block_cycles = 100_000;
        let instructions = block_cycles * 9 / 10;
        Self::new(
            (total_cycles / block_cycles).max(1),
            instructions,
            block_cycles,
        )
        .events(
            EventCounts::new()
                .with(pmu::HwEvent::BranchRetired, instructions / 5)
                .with(pmu::HwEvent::BranchMiss, instructions / 150)
                .with(pmu::HwEvent::Load, instructions / 4)
                .with(pmu::HwEvent::Store, instructions / 8),
        )
    }

    /// Adds extra per-block events.
    pub fn events(mut self, events: EventCounts) -> Self {
        self.events = events;
        self
    }

    /// Adds `accesses` random reads per block over a `working_set`-byte
    /// region.
    pub fn memory_traffic(mut self, accesses: u64, working_set: u64, seed: u64) -> Self {
        self.accesses = accesses;
        self.working_set = working_set;
        self.seed = seed;
        self
    }
}

impl Workload for Synthetic {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.emitted >= self.blocks {
            return None;
        }
        self.emitted += 1;
        let mut block = WorkBlock::compute(self.instructions, self.cycles).with_events(self.events);
        if self.accesses > 0 {
            self.seed = self.seed.wrapping_add(0x9E37_79B9);
            block = block.with_pattern(AccessPattern::Random {
                base: HEAP_BASE,
                extent: self.working_set,
                count: self.accesses,
                seed: self.seed,
                kind: AccessKind::Read,
            });
        }
        Some(WorkItem::Block(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Machine, MachineConfig};
    use pmu::HwEvent;

    #[test]
    fn emits_exact_block_count() {
        let mut w = Synthetic::new(10, 100, 100);
        let mut blocks = 0;
        while let Some(item) = w.next(&ItemResult::None) {
            if matches!(item, WorkItem::Block(_)) {
                blocks += 1;
            }
        }
        assert_eq!(blocks, 10);
    }

    #[test]
    fn cpu_bound_duration_is_close() {
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        let pid = m.spawn(
            "s",
            CoreId(0),
            Box::new(Synthetic::cpu_bound(Duration::from_millis(10))),
        );
        let info = m.run_until_exit(pid).unwrap();
        let t = info.wall_time().as_millis_f64();
        assert!(t > 9.0 && t < 11.5, "10ms target, got {t:.2}ms");
    }

    #[test]
    fn memory_traffic_generates_llc_events() {
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        let w = Synthetic::new(50, 1000, 1000).memory_traffic(200, 1 << 20, 3);
        let pid = m.spawn("s", CoreId(0), Box::new(w));
        let info = m.run_until_exit(pid).unwrap();
        assert!(info.true_user_events.get(HwEvent::LlcMiss) > 1000);
        assert_eq!(info.true_user_events.get(HwEvent::Load), 50 * 200);
    }

    #[test]
    fn extra_events_merge() {
        let w = Synthetic::new(3, 10, 10).events(EventCounts::new().with(HwEvent::ArithMul, 7));
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        let pid = m.spawn("s", CoreId(0), Box::new(w));
        let info = m.run_until_exit(pid).unwrap();
        assert_eq!(info.true_user_events.get(HwEvent::ArithMul), 21);
    }
}
