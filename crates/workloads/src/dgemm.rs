//! Intel-MKL-style blocked `dgemm` (paper §V, Table III).
//!
//! The paper repeats the overhead study with the MKL `dgemm` routine, whose
//! runtime is "less than 100 ms in comparison to the 2 s required by the
//! traditional triple nested loop". The short run is the point: fixed tool
//! costs (library init, attach/detach) stop amortizing, which is why PAPI
//! jumps from 6.43 % to 21.40 % while K-LEB only moves from 0.68 % to
//! 1.13 %. The model is the same multiply at a ~37× higher FLOP rate
//! (SIMD + blocking + multithreading), with cache-friendly packed access
//! patterns.

use pmu::{EventCounts, HwEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ksim::{ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// Effective FLOPs per cycle for the optimized routine.
const FLOPS_PER_CYCLE: f64 = 30.0;

/// Cycles per emitted block (~19 µs).
const BLOCK_CYCLES: u64 = 50_000;

/// The MKL-like dgemm workload.
#[derive(Debug, Clone)]
pub struct Dgemm {
    n: u64,
    blocks_remaining: u64,
    rng: StdRng,
    noise: f64,
    /// Per-run systematic speed factor (drawn once per instance; models
    /// run-to-run machine variation — the spread behind Fig. 8).
    run_factor: f64,
    pattern_offset: u64,
}

impl Dgemm {
    /// An `n x n` blocked multiply with relative runtime noise `noise`.
    pub fn new(n: u64, seed: u64, noise: f64) -> Self {
        assert!(n >= 16, "matrix too small");
        let flops = 2 * n * n * n;
        let cycles = flops as f64 / FLOPS_PER_CYCLE;
        let total_blocks = (cycles / BLOCK_CYCLES as f64).ceil() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let run_factor = if noise > 0.0 {
            1.0 + rng.gen_range(-3.0..3.0) * noise / 3.0
        } else {
            1.0
        };
        Self {
            n,
            blocks_remaining: total_blocks,
            rng,
            noise,
            run_factor,
            pattern_offset: 0,
        }
    }

    /// Total floating-point operations: `2 n^3`.
    #[cfg(test)]
    fn flops(&self) -> u64 {
        2 * self.n * self.n * self.n
    }
}

impl Workload for Dgemm {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.blocks_remaining == 0 {
            return None;
        }
        self.blocks_remaining -= 1;
        let mut cycles = BLOCK_CYCLES;
        if self.noise > 0.0 {
            let eps: f64 = self.rng.gen_range(-3.0..3.0) * self.noise / 3.0;
            cycles = ((cycles as f64) * self.run_factor * (1.0 + eps)).max(1.0) as u64;
        }
        let flops = (cycles as f64 * FLOPS_PER_CYCLE) as u64;
        // Packed panels: sequential streams, excellent locality.
        let matrix_bytes = self.n * self.n * 8;
        let base = HEAP_BASE + self.pattern_offset;
        self.pattern_offset = (self.pattern_offset + 48 * 64) % matrix_bytes;
        let events = EventCounts::new()
            .with(HwEvent::FpOps, flops)
            .with(HwEvent::ArithMul, flops / 2)
            .with(HwEvent::Load, flops / 8)
            .with(HwEvent::Store, flops / 64)
            .with(HwEvent::BranchRetired, cycles / 30);
        let block = WorkBlock {
            instructions: flops / 4 + cycles / 10,
            base_cycles: cycles,
            extra_events: events,
            patterns: vec![AccessPattern::Sequential {
                base,
                stride: 64,
                count: 48,
                kind: AccessKind::Read,
            }],
            flushes: Vec::new(),
        };
        Some(WorkItem::Block(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Machine, MachineConfig};

    #[test]
    fn paper_scale_runtime_under_100ms() {
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        // Use a quarter-size problem and scale: full paper size would be
        // slow in debug-mode tests. Runtime scales as n^3.
        let pid = m.spawn("dgemm", CoreId(0), Box::new(Dgemm::new(800, 1, 0.0)));
        let t = m.run_until_exit(pid).unwrap().wall_time();
        let scaled = t.as_secs_f64() * 8.0; // (1600/800)^3
        assert!(
            scaled > 0.04 && scaled < 0.15,
            "paper-size runtime ≈ {scaled:.3}s, expected < 100ms"
        );
    }

    #[test]
    fn much_faster_than_naive_matmul() {
        let naive_cycles = crate::Matmul::new(256, 1, 0.0).base_cycles();
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        let pid = m.spawn("dgemm", CoreId(0), Box::new(Dgemm::new(256, 1, 0.0)));
        let t = m.run_until_exit(pid).unwrap().wall_time();
        let dgemm_cycles = t.as_secs_f64() * 2.67e9;
        assert!(
            naive_cycles as f64 / dgemm_cycles > 15.0,
            "blocked dgemm should be >15x faster"
        );
    }

    #[test]
    fn flop_events_match_formula() {
        let w = Dgemm::new(128, 1, 0.0);
        let expected = w.flops();
        let mut got = 0u64;
        let mut w2 = w;
        while let Some(WorkItem::Block(b)) = w2.next(&ItemResult::None) {
            got += b.extra_events.get(HwEvent::FpOps);
        }
        // Block quantization rounds up by at most one block of flops.
        let per_block = (BLOCK_CYCLES as f64 * FLOPS_PER_CYCLE) as u64;
        assert!(got >= expected && got < expected + per_block);
    }
}
