//! The Meltdown case study (paper §IV-C, Figs. 6-7).
//!
//! Two programs, mirroring the paper's experiment with the IAIK Meltdown
//! PoC:
//!
//! - [`SecretPrinter`]: the benign baseline — a short program that simply
//!   prints a secret string it owns. Modest cache traffic, < 10 ms runtime
//!   (short enough that perf's 10 ms floor yields a single useless sample,
//!   while K-LEB at 100 µs produces a real time series).
//! - [`MeltdownAttack`]: the same program with a Flush+Reload Meltdown
//!   attack attached. For each secret byte it (1) `clflush`es a 256-page
//!   probe array, (2) performs the transient out-of-order access that pulls
//!   `probe[secret_byte * 4096]` into the cache before the fault
//!   architecturally suppresses the read, and (3) *times* a reload of every
//!   probe page, recovering the byte from the one fast line. The recovery is
//!   genuine: it only uses the simulated cache latencies, exactly like the
//!   real attack.
//!
//! The attack's flush/reload churn is what K-LEB sees: LLC references and
//! misses far above the benign run (Fig. 6) and an MPKI jump (§IV-C reports
//! 7.52 → 27.53 on average).

use std::sync::{Arc, Mutex};

use pmu::{EventCounts, HwEvent};

use ksim::{ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// The secret the victim holds (and the attacker recovers).
pub const SECRET: &[u8] = b"IISWC2020-KLEB!";

/// Probe-array slot size: one page per byte value so lines never alias.
const PROBE_STRIDE: u64 = 4096;

/// Probe array base (distinct region from the heap).
const PROBE_BASE: u64 = 0x7000_0000_0000;

/// Retries per secret byte (the PoC retries to beat noise).
const TRIES_PER_BYTE: u32 = 3;

/// The benign secret-printing program.
///
/// Work shape: per character, some formatting compute and a sprinkle of
/// cold-page accesses (stdio buffers, locale tables) that give the paper's
/// baseline a non-trivial MPKI (§IV-C reports 7.52 on average).
#[derive(Debug, Clone)]
pub struct SecretPrinter {
    remaining: u64,
    seed: u64,
}

impl SecretPrinter {
    /// A printer that outputs the secret `repeats` times.
    pub(crate) fn new(repeats: u64, seed: u64) -> Self {
        Self {
            remaining: repeats * SECRET.len() as u64,
            seed,
        }
    }

    /// The paper's configuration: one short run, < 10 ms.
    pub fn paper(seed: u64) -> Self {
        Self::new(220, seed)
    }
}

impl Workload for SecretPrinter {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        // Formatting compute plus cold buffer touches: a few thousand
        // instructions and a handful of fresh pages per character.
        let events = EventCounts::new()
            .with(HwEvent::Load, 900)
            .with(HwEvent::Store, 350)
            .with(HwEvent::BranchRetired, 600)
            .with(HwEvent::BranchMiss, 18);
        Some(WorkItem::Block(WorkBlock {
            instructions: 3_600,
            base_cycles: 4_500,
            extra_events: events,
            patterns: vec![AccessPattern::Random {
                base: HEAP_BASE,
                extent: 48 * 1024 * 1024,
                count: 27,
                seed: self.seed,
                kind: AccessKind::Read,
            }],
            flushes: Vec::new(),
        }))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackPhase {
    /// Decide whether this repeat begins with a recovery round.
    StartRepeat,
    /// Flush the probe array and do the transient access.
    FlushAndLeak { try_n: u32 },
    /// Timed reload of all 256 probe lines; decode from latencies.
    Reload { try_n: u32 },
    /// Print the secret characters (same work as the benign program).
    Print { char_idx: usize },
}

/// The Meltdown attacker.
///
/// Performs the benign program's printing work *plus* periodic Flush+Reload
/// recovery rounds that re-extract the secret from cache timing — which is
/// why the paper observes the attacked program running longer and producing
/// many more samples (Fig. 7). The recovered bytes are exposed via
/// [`into_shared`](Self::into_shared) so tests can verify the attack
/// genuinely works against the cache model.
#[derive(Debug, Clone)]
pub struct MeltdownAttack {
    repeats: u64,
    repeat_idx: u64,
    attack_interval: u64,
    phase: AttackPhase,
    byte_index: usize,
    current: Vec<u8>,
    recovered: Vec<u8>,
    seed: u64,
}

impl MeltdownAttack {
    /// A single print of the secret, preceded by one full recovery round.
    pub fn new(seed: u64) -> Self {
        Self::with_repeats(1, 1, seed)
    }

    /// `repeats` prints of the secret, with a Flush+Reload recovery round
    /// before every `attack_interval`-th print.
    fn with_repeats(repeats: u64, attack_interval: u64, seed: u64) -> Self {
        assert!(attack_interval > 0);
        Self {
            repeats,
            repeat_idx: 0,
            attack_interval,
            phase: AttackPhase::StartRepeat,
            byte_index: 0,
            current: Vec::with_capacity(SECRET.len()),
            recovered: Vec::new(),
            seed,
        }
    }

    /// The paper's configuration: the same 220 prints as
    /// [`SecretPrinter::paper`], with a recovery round before every second print.
    pub fn paper(seed: u64) -> Self {
        Self::with_repeats(220, 2, seed)
    }

    /// Wraps this attack so its recovered bytes land in a shared buffer
    /// when it exits, for inspection after the machine consumed the
    /// workload.
    pub fn into_shared(self) -> (Arc<Mutex<Vec<u8>>>, SharedMeltdown) {
        let shared: Arc<Mutex<Vec<u8>>> = Arc::default();
        (
            shared.clone(),
            SharedMeltdown {
                inner: self,
                shared,
            },
        )
    }

    fn probe_addrs() -> Vec<u64> {
        (0..256u64).map(|v| PROBE_BASE + v * PROBE_STRIDE).collect()
    }
}

/// A [`MeltdownAttack`] that mirrors its recovered bytes into a shared
/// buffer, for inspection after the machine consumed the workload.
#[derive(Debug)]
pub struct SharedMeltdown {
    inner: MeltdownAttack,
    shared: Arc<Mutex<Vec<u8>>>,
}

impl Workload for SharedMeltdown {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        let item = self.inner.next(prev);
        if item.is_none() {
            *self.shared.lock().unwrap() = self.inner.recovered.clone();
        }
        item
    }
}

impl MeltdownAttack {
    fn print_block(&mut self) -> WorkItem {
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let events = EventCounts::new()
            .with(HwEvent::Load, 900)
            .with(HwEvent::Store, 350)
            .with(HwEvent::BranchRetired, 600)
            .with(HwEvent::BranchMiss, 18);
        WorkItem::Block(WorkBlock {
            instructions: 3_600,
            base_cycles: 4_500,
            extra_events: events,
            patterns: vec![AccessPattern::Random {
                base: HEAP_BASE,
                extent: 48 * 1024 * 1024,
                count: 27,
                seed: self.seed,
                kind: AccessKind::Read,
            }],
            flushes: Vec::new(),
        })
    }
}

impl Workload for MeltdownAttack {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        loop {
            match self.phase {
                AttackPhase::StartRepeat => {
                    if self.repeat_idx >= self.repeats {
                        return None;
                    }
                    if self.repeat_idx.is_multiple_of(self.attack_interval) {
                        self.byte_index = 0;
                        self.current.clear();
                        self.phase = AttackPhase::FlushAndLeak { try_n: 0 };
                    } else {
                        self.phase = AttackPhase::Print { char_idx: 0 };
                    }
                }
                AttackPhase::FlushAndLeak { try_n } => {
                    self.phase = AttackPhase::Reload { try_n };
                    // clflush all 256 probe lines, then the transient
                    // access: the out-of-order core loads
                    // probe[secret * 4096] before the privilege fault
                    // squashes the architectural read — the cache keeps the
                    // line (§IV-C: "the cache state is not reverted").
                    let secret_byte = SECRET[self.byte_index] as u64;
                    let transient = AccessPattern::Single {
                        addr: PROBE_BASE + secret_byte * PROBE_STRIDE,
                        kind: AccessKind::Read,
                    };
                    let events = EventCounts::new()
                        .with(HwEvent::Load, 300) // retry setup, abort path
                        .with(HwEvent::BranchRetired, 380)
                        .with(HwEvent::BranchMiss, 25);
                    return Some(WorkItem::Block(WorkBlock {
                        instructions: 2_400,
                        base_cycles: 3_000,
                        extra_events: events,
                        patterns: vec![transient],
                        flushes: MeltdownAttack::probe_addrs(),
                    }));
                }
                AttackPhase::Reload { try_n } => {
                    if let ItemResult::Latencies(lat) = prev {
                        debug_assert_eq!(lat.len(), 256);
                        let (best, &best_lat) = lat
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &l)| l)
                            .expect("256 latencies");
                        let second = lat
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != best)
                            .map(|(_, &l)| l)
                            .min()
                            .expect("255 more");
                        if best_lat < second || try_n + 1 >= TRIES_PER_BYTE {
                            self.current.push(best as u8);
                            self.byte_index += 1;
                            if self.byte_index >= SECRET.len() {
                                self.recovered = self.current.clone();
                                self.phase = AttackPhase::Print { char_idx: 0 };
                            } else {
                                self.phase = AttackPhase::FlushAndLeak { try_n: 0 };
                            }
                        } else {
                            self.phase = AttackPhase::FlushAndLeak { try_n: try_n + 1 };
                        }
                        // Loop to issue the next item; `prev` is only
                        // consumed once because every continuation path
                        // returns a new item before re-entering Reload.
                        continue;
                    }
                    // Issue the timed reload of the whole probe array.
                    return Some(WorkItem::TimedAccess(MeltdownAttack::probe_addrs()));
                }
                AttackPhase::Print { char_idx } => {
                    if char_idx >= SECRET.len() {
                        self.repeat_idx += 1;
                        self.phase = AttackPhase::StartRepeat;
                        continue;
                    }
                    self.phase = AttackPhase::Print {
                        char_idx: char_idx + 1,
                    };
                    return Some(self.print_block());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Duration, Machine, MachineConfig};

    #[test]
    fn attack_recovers_the_secret_from_cache_timing() {
        let mut m = Machine::new(MachineConfig::i7_920(1));
        let (shared, attack) = MeltdownAttack::new(5).into_shared();
        let pid = m.spawn("meltdown", CoreId(0), Box::new(attack));
        m.run_until_exit(pid).unwrap();
        assert_eq!(shared.lock().unwrap().as_slice(), SECRET);
    }

    #[test]
    fn benign_run_is_short() {
        let mut m = Machine::new(MachineConfig::i7_920(1));
        let pid = m.spawn("victim", CoreId(0), Box::new(SecretPrinter::paper(1)));
        let info = m.run_until_exit(pid).unwrap();
        assert!(
            info.wall_time() < Duration::from_millis(10),
            "paper: the benign program finishes in under 10ms, got {}",
            info.wall_time()
        );
    }

    #[test]
    fn attack_inflates_llc_traffic() {
        // Same print volume with and without the attack (the paper's
        // comparison in Fig. 6).
        let mut m = Machine::new(MachineConfig::i7_920(1));
        let v = m.spawn("victim", CoreId(0), Box::new(SecretPrinter::paper(1)));
        let victim = m.run_until_exit(v).unwrap();
        let mut m2 = Machine::new(MachineConfig::i7_920(1));
        let a = m2.spawn("attack", CoreId(0), Box::new(MeltdownAttack::paper(1)));
        let attack = m2.run_until_exit(a).unwrap();

        let mpki = |info: &ksim::ProcessInfo| {
            info.true_user_events.get(HwEvent::LlcMiss) as f64
                / (info.true_user_events.get(HwEvent::InstructionsRetired) as f64 / 1000.0)
        };
        let (v_mpki, a_mpki) = (mpki(&victim), mpki(&attack));
        assert!(
            a_mpki > 2.0 * v_mpki,
            "attack MPKI {a_mpki:.1} should dwarf benign {v_mpki:.1}"
        );
        assert!(
            attack.true_user_events.get(HwEvent::LlcReference)
                > victim.true_user_events.get(HwEvent::LlcReference)
        );
    }

    #[test]
    fn benign_mpki_is_moderate() {
        let mut m = Machine::new(MachineConfig::i7_920(1));
        let v = m.spawn("victim", CoreId(0), Box::new(SecretPrinter::paper(1)));
        let info = m.run_until_exit(v).unwrap();
        let mpki = info.true_user_events.get(HwEvent::LlcMiss) as f64
            / (info.true_user_events.get(HwEvent::InstructionsRetired) as f64 / 1000.0);
        // Paper reports 7.52 for the benign program.
        assert!(mpki > 2.0 && mpki < 15.0, "benign MPKI {mpki:.2}");
    }
}
