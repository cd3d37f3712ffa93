//! Architectural and microarchitectural hardware events.
//!
//! The event inventory mirrors the events the K-LEB paper uses across its
//! case studies: instructions retired, core/reference cycles (the three
//! fixed-function events), loads, stores, branches and mispredictions, LLC
//! references and misses, and arithmetic-multiply operations (used in the
//! LINPACK case study, Fig. 4).

use std::fmt;

/// Privilege level an event batch is attributed to.
///
/// The PMU filters counting by the `USR`/`OS` bits of each event-select
/// register, exactly as real hardware does. This is one source of count
/// divergence between tools measured in Fig. 9: a tool that counts kernel-mode
/// work (e.g. its own handler) sees slightly different totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Ring 3: ordinary user-space execution.
    User,
    /// Ring 0: kernel execution (syscalls, interrupt handlers, the scheduler).
    Kernel,
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Privilege::User => f.write_str("user"),
            Privilege::Kernel => f.write_str("kernel"),
        }
    }
}

/// A hardware event the PMU can count.
///
/// The first three variants are the Intel fixed-function events; the rest are
/// programmable. Discriminants are stable and used to index [`EventCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum HwEvent {
    /// Instructions retired (fixed counter 0, or programmable).
    InstructionsRetired = 0,
    /// Unhalted core clock cycles (fixed counter 1).
    CoreCycles = 1,
    /// Unhalted reference (TSC-rate) cycles (fixed counter 2).
    RefCycles = 2,
    /// Retired load instructions.
    Load = 3,
    /// Retired store instructions.
    Store = 4,
    /// Retired branch instructions.
    BranchRetired = 5,
    /// Mispredicted branch instructions.
    BranchMiss = 6,
    /// Last-level cache references.
    LlcReference = 7,
    /// Last-level cache misses.
    LlcMiss = 8,
    /// Arithmetic multiply operations (FP_COMP_OPS_EXE.MUL-style).
    ArithMul = 9,
    /// Arithmetic divide operations.
    ArithDiv = 10,
    /// Floating-point operations executed (for FLOPS derivation).
    FpOps = 11,
    /// DTLB load misses.
    DtlbMiss = 12,
    /// L1 data-cache misses.
    L1dMiss = 13,
    /// L2 cache misses.
    L2Miss = 14,
    /// Resource-stall cycles.
    StallCycles = 15,
}

/// Number of distinct [`HwEvent`] kinds.
const N_EVENTS: usize = 16;

/// All events, in discriminant order.
pub const ALL_EVENTS: [HwEvent; N_EVENTS] = [
    HwEvent::InstructionsRetired,
    HwEvent::CoreCycles,
    HwEvent::RefCycles,
    HwEvent::Load,
    HwEvent::Store,
    HwEvent::BranchRetired,
    HwEvent::BranchMiss,
    HwEvent::LlcReference,
    HwEvent::LlcMiss,
    HwEvent::ArithMul,
    HwEvent::ArithDiv,
    HwEvent::FpOps,
    HwEvent::DtlbMiss,
    HwEvent::L1dMiss,
    HwEvent::L2Miss,
    HwEvent::StallCycles,
];

/// The `(event code, umask)` pair that selects an event in a
/// `IA32_PERFEVTSELx` register.
///
/// Codes follow the Intel SDM architectural-event encodings where one exists
/// (e.g. LLC references = `0x2E/0x4F`, LLC misses = `0x2E/0x41`, branches =
/// `0xC4/0x00`); events without an architectural encoding use stable
/// model-specific codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventCode {
    /// Primary event code (bits 0-7 of the event-select register).
    pub event: u8,
    /// Unit mask (bits 8-15).
    pub umask: u8,
}

impl EventCode {
    /// Creates an event code from raw `event`/`umask` bytes.
    pub const fn new(event: u8, umask: u8) -> Self {
        Self { event, umask }
    }
}

impl HwEvent {
    /// The `(event, umask)` encoding of this event.
    pub const fn code(self) -> EventCode {
        match self {
            HwEvent::InstructionsRetired => EventCode::new(0xC0, 0x00),
            HwEvent::CoreCycles => EventCode::new(0x3C, 0x00),
            HwEvent::RefCycles => EventCode::new(0x3C, 0x01),
            HwEvent::Load => EventCode::new(0xD0, 0x81),
            HwEvent::Store => EventCode::new(0xD0, 0x82),
            HwEvent::BranchRetired => EventCode::new(0xC4, 0x00),
            HwEvent::BranchMiss => EventCode::new(0xC5, 0x00),
            HwEvent::LlcReference => EventCode::new(0x2E, 0x4F),
            HwEvent::LlcMiss => EventCode::new(0x2E, 0x41),
            HwEvent::ArithMul => EventCode::new(0x14, 0x01),
            HwEvent::ArithDiv => EventCode::new(0x14, 0x02),
            HwEvent::FpOps => EventCode::new(0x10, 0x01),
            HwEvent::DtlbMiss => EventCode::new(0x08, 0x01),
            HwEvent::L1dMiss => EventCode::new(0x51, 0x01),
            HwEvent::L2Miss => EventCode::new(0x24, 0xAA),
            HwEvent::StallCycles => EventCode::new(0xA2, 0x01),
        }
    }

    /// Looks an event up by its `(event, umask)` encoding.
    ///
    /// Returns `None` for encodings this model does not implement; hardware
    /// would silently count nothing for an unknown code, and [`crate::Pmu`]
    /// mirrors that behaviour.
    pub fn from_code(code: EventCode) -> Option<Self> {
        ALL_EVENTS.iter().copied().find(|e| e.code() == code)
    }

    /// Index of this event into an [`EventCounts`] array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short uppercase mnemonic used in experiment output, matching the
    /// labels the paper uses in its figures (e.g. `ARITH MUL`, `LOAD`).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            HwEvent::InstructionsRetired => "INST_RETIRED",
            HwEvent::CoreCycles => "CORE_CYCLES",
            HwEvent::RefCycles => "REF_CYCLES",
            HwEvent::Load => "LOAD",
            HwEvent::Store => "STORE",
            HwEvent::BranchRetired => "BRANCH",
            HwEvent::BranchMiss => "BRANCH_MISS",
            HwEvent::LlcReference => "LLC_REF",
            HwEvent::LlcMiss => "LLC_MISS",
            HwEvent::ArithMul => "ARITH_MUL",
            HwEvent::ArithDiv => "ARITH_DIV",
            HwEvent::FpOps => "FP_OPS",
            HwEvent::DtlbMiss => "DTLB_MISS",
            HwEvent::L1dMiss => "L1D_MISS",
            HwEvent::L2Miss => "L2_MISS",
            HwEvent::StallCycles => "STALL_CYCLES",
        }
    }
}

impl fmt::Display for HwEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A batch of event occurrences, one slot per [`HwEvent`].
///
/// This is the unit of communication between the execution engine (which
/// produces events) and the PMU (which counts the ones it is programmed to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    counts: [u64; N_EVENTS],
}

impl EventCounts {
    /// Creates an empty batch.
    pub const fn new() -> Self {
        Self {
            counts: [0; N_EVENTS],
        }
    }

    /// Count for one event.
    #[inline]
    pub fn get(&self, event: HwEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Sets the count for one event, returning `self` for chaining.
    pub fn with(mut self, event: HwEvent, count: u64) -> Self {
        self.counts[event.index()] = count;
        self
    }

    /// Adds occurrences of one event.
    #[inline]
    pub fn add(&mut self, event: HwEvent, count: u64) {
        self.counts[event.index()] += count;
    }

    /// Adds every count from `other` into `self`.
    pub fn merge(&mut self, other: &EventCounts) {
        for i in 0..N_EVENTS {
            self.counts[i] += other.counts[i];
        }
    }

    /// Subtracts `other` from `self`, saturating at zero.
    pub fn saturating_sub(&self, other: &EventCounts) -> EventCounts {
        let mut out = EventCounts::new();
        for i in 0..N_EVENTS {
            out.counts[i] = self.counts[i].saturating_sub(other.counts[i]);
        }
        out
    }

    /// True if every slot is zero.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Total occurrences across all event kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(event, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (HwEvent, u64)> + '_ {
        ALL_EVENTS
            .iter()
            .copied()
            .map(move |e| (e, self.get(e)))
            .filter(|&(_, c)| c > 0)
    }
}

impl std::ops::Index<HwEvent> for EventCounts {
    type Output = u64;

    fn index(&self, event: HwEvent) -> &u64 {
        &self.counts[event.index()]
    }
}

impl std::ops::IndexMut<HwEvent> for EventCounts {
    fn index_mut(&mut self, event: HwEvent) -> &mut u64 {
        &mut self.counts[event.index()]
    }
}

impl FromIterator<(HwEvent, u64)> for EventCounts {
    fn from_iter<I: IntoIterator<Item = (HwEvent, u64)>>(iter: I) -> Self {
        let mut counts = EventCounts::new();
        for (event, count) in iter {
            counts.add(event, count);
        }
        counts
    }
}

impl Extend<(HwEvent, u64)> for EventCounts {
    fn extend<I: IntoIterator<Item = (HwEvent, u64)>>(&mut self, iter: I) {
        for (event, count) in iter {
            self.add(event, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_codes_are_unique() {
        for (i, a) in ALL_EVENTS.iter().enumerate() {
            for b in &ALL_EVENTS[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a} and {b} share an encoding");
            }
        }
    }

    #[test]
    fn discriminants_match_position() {
        for (i, e) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn round_trip_codes() {
        for e in ALL_EVENTS {
            assert_eq!(HwEvent::from_code(e.code()), Some(e));
        }
    }

    #[test]
    fn unknown_code_is_none() {
        assert_eq!(HwEvent::from_code(EventCode::new(0xFF, 0xFF)), None);
    }

    #[test]
    fn llc_events_use_architectural_encoding() {
        assert_eq!(HwEvent::LlcReference.code(), EventCode::new(0x2E, 0x4F));
        assert_eq!(HwEvent::LlcMiss.code(), EventCode::new(0x2E, 0x41));
    }

    #[test]
    fn counts_add_and_merge() {
        let mut a = EventCounts::new();
        a.add(HwEvent::Load, 10);
        a.add(HwEvent::Load, 5);
        let b = EventCounts::new().with(HwEvent::Store, 7);
        a.merge(&b);
        assert_eq!(a.get(HwEvent::Load), 15);
        assert_eq!(a.get(HwEvent::Store), 7);
        assert_eq!(a.total(), 22);
    }

    #[test]
    fn counts_saturating_sub() {
        let a = EventCounts::new().with(HwEvent::Load, 3);
        let b = EventCounts::new()
            .with(HwEvent::Load, 5)
            .with(HwEvent::Store, 1);
        let d = a.saturating_sub(&b);
        assert_eq!(d.get(HwEvent::Load), 0);
        assert_eq!(d.get(HwEvent::Store), 0);
        let d2 = b.saturating_sub(&a);
        assert_eq!(d2.get(HwEvent::Load), 2);
        assert_eq!(d2.get(HwEvent::Store), 1);
    }

    #[test]
    fn counts_iter_skips_zeros() {
        let c = EventCounts::new().with(HwEvent::LlcMiss, 1);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(HwEvent::LlcMiss, 1)]);
    }

    #[test]
    fn counts_from_iterator() {
        let c: EventCounts = vec![(HwEvent::Load, 2), (HwEvent::Load, 3)]
            .into_iter()
            .collect();
        assert_eq!(c[HwEvent::Load], 5);
    }

    #[test]
    fn empty_batch_reports_empty() {
        assert!(EventCounts::new().is_empty());
        assert!(!EventCounts::new().with(HwEvent::FpOps, 1).is_empty());
    }
}
