//! Triple-nested-loop matrix multiplication (paper §V, Table II, Fig. 8).
//!
//! The paper's overhead study uses "a program using triple nested loop to
//! perform matrix multiplication" taking ≈ 2 s — long enough that per-sample
//! tool costs dominate fixed setup costs. The model retires ≈ 0.8 FLOPs per
//! cycle (scalar, no blocking), streams matrix `B` column-wise (the classic
//! naive-matmul cache weakness), and carries a small per-block runtime noise
//! term so repeated trials spread realistically (Fig. 8's box plot).

use pmu::{EventCounts, HwEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ksim::{ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// Scalar multiply-add rate of the naive loop.
const FLOPS_PER_CYCLE: f64 = 0.8;

/// Rows of `C` computed per emitted block (a chunk of the `i` loop's work).
const J_CHUNK: u64 = 24;

/// The naive-matmul workload.
#[derive(Debug, Clone)]
pub struct Matmul {
    n: u64,
    i: u64,
    j: u64,
    rng: StdRng,
    /// Relative sigma of per-block cycle noise (e.g. 0.02 = 2%).
    noise: f64,
    /// Per-run systematic speed factor (drawn once per instance; models
    /// run-to-run machine variation — the spread behind Fig. 8).
    run_factor: f64,
}

impl Matmul {
    /// An `n x n` multiply with per-block runtime noise `noise` (relative
    /// sigma) seeded by `seed`.
    pub fn new(n: u64, seed: u64, noise: f64) -> Self {
        assert!(n >= J_CHUNK, "matrix too small");
        let mut rng = StdRng::seed_from_u64(seed);
        let run_factor = if noise > 0.0 {
            1.0 + rng.gen_range(-3.0..3.0) * noise / 3.0
        } else {
            1.0
        };
        Self {
            n,
            i: 0,
            j: 0,
            rng,
            noise,
            run_factor,
        }
    }

    /// Total floating-point operations: `2 n^3`.
    #[cfg(test)]
    fn flops(&self) -> u64 {
        2 * self.n * self.n * self.n
    }

    /// Expected baseline cycles (before noise and memory stalls).
    #[cfg(test)]
    pub(crate) fn base_cycles(&self) -> u64 {
        (self.flops() as f64 / FLOPS_PER_CYCLE) as u64
    }
}

impl Workload for Matmul {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.i >= self.n {
            return None;
        }
        // One block: C[i][j..j+chunk] — chunk dot products of length n.
        let chunk = J_CHUNK.min(self.n - self.j);
        let muls = chunk * self.n;
        let flops = muls * 2; // mul + add
        let mut cycles = (flops as f64 / FLOPS_PER_CYCLE) as u64;
        if self.noise > 0.0 {
            let eps: f64 = self.rng.gen_range(-3.0..3.0) * self.noise / 3.0;
            cycles = ((cycles as f64) * self.run_factor * (1.0 + eps)).max(1.0) as u64;
        }

        // A-row streams sequentially (good locality, mostly L1 after the
        // first touch); B columns stride by the row length — the naive
        // loop's cache weakness. Sample both against the real hierarchy.
        let row_bytes = self.n * 8;
        let a_base = HEAP_BASE + self.i * row_bytes;
        let b_base = HEAP_BASE + 0x4000_0000 + self.j * 8;
        let patterns = vec![
            AccessPattern::Sequential {
                base: a_base,
                stride: 64,
                count: (row_bytes / 64).clamp(1, 64),
                kind: AccessKind::Read,
            },
            AccessPattern::Sequential {
                base: b_base,
                stride: row_bytes,
                count: 64.min(self.n),
                kind: AccessKind::Read,
            },
        ];
        // Stores: the C[i][j] writebacks plus register spills / stack
        // traffic — scalar compilers spill roughly once per 16 MACs here.
        let events = EventCounts::new()
            .with(HwEvent::FpOps, flops)
            .with(HwEvent::ArithMul, muls)
            .with(HwEvent::Load, muls * 2)
            .with(HwEvent::Store, chunk + muls / 16)
            .with(HwEvent::BranchRetired, muls + chunk);
        let block = WorkBlock {
            instructions: muls * 4 + chunk * 8,
            base_cycles: cycles,
            extra_events: events,
            patterns,
            flushes: Vec::new(),
        };

        self.j += chunk;
        if self.j >= self.n {
            self.j = 0;
            self.i += 1;
        }
        Some(WorkItem::Block(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Machine, MachineConfig};

    #[test]
    fn emits_expected_arith_totals() {
        let mut w = Matmul::new(64, 1, 0.0);
        let mut muls = 0u64;
        while let Some(WorkItem::Block(b)) = w.next(&ItemResult::None) {
            muls += b.extra_events.get(HwEvent::ArithMul);
        }
        assert_eq!(muls, 64 * 64 * 64);
    }

    #[test]
    fn runtime_scales_cubically() {
        let time_for = |n| {
            let mut m = Machine::new(MachineConfig::test_tiny(1));
            let pid = m.spawn("mm", CoreId(0), Box::new(Matmul::new(n, 1, 0.0)));
            m.run_until_exit(pid).unwrap().wall_time().as_nanos() as f64
        };
        let t1 = time_for(48);
        let t2 = time_for(96);
        let ratio = t2 / t1;
        assert!(
            ratio > 5.0 && ratio < 11.0,
            "2x n should be ~8x time, got {ratio:.2}x"
        );
    }

    #[test]
    fn noise_spreads_runtimes_but_not_counts() {
        let run = |seed| {
            let mut m = Machine::new(MachineConfig::test_tiny(seed));
            let pid = m.spawn("mm", CoreId(0), Box::new(Matmul::new(96, seed, 0.01)));
            let info = m.run_until_exit(pid).unwrap();
            (
                info.wall_time().as_nanos(),
                info.true_user_events.get(HwEvent::ArithMul),
            )
        };
        let (t1, c1) = run(1);
        let (t2, c2) = run(2);
        assert_ne!(t1, t2, "different seeds, different runtimes");
        assert_eq!(c1, c2, "event counts are deterministic regardless of noise");
    }
}
