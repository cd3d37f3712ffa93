//! The performance-monitoring unit proper: register file, counting logic,
//! overflow/PMI state, and a ground-truth ledger used by accuracy
//! experiments.

use std::cell::RefCell;
use std::fmt;

use crate::counter::Counter;
use crate::event::{EventCounts, HwEvent, Privilege};
use crate::eventsel::EventSel;
use crate::msr;
use crate::protocol::{ProtocolChecker, ProtocolViolation};

/// Number of programmable counters (Nehalem through Cascade Lake expose 4,
/// as the paper notes in §II-A).
pub const NUM_PROGRAMMABLE: usize = 4;

/// Number of fixed-function counters.
pub const NUM_FIXED: usize = 3;

/// Errors returned by the PMU register interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmuError {
    /// The MSR address does not belong to the PMU register file.
    UnknownMsr(u32),
    /// `rdpmc` with an out-of-range counter index.
    BadPmcIndex(u32),
    /// Write to a read-only register (`IA32_PERF_GLOBAL_STATUS`).
    ReadOnlyMsr(u32),
}

impl fmt::Display for PmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmuError::UnknownMsr(a) => write!(f, "unknown PMU MSR {a:#x}"),
            PmuError::BadPmcIndex(i) => write!(f, "rdpmc index {i:#x} out of range"),
            PmuError::ReadOnlyMsr(a) => write!(f, "MSR {a:#x} is read-only"),
        }
    }
}

impl std::error::Error for PmuError {}

/// The event each fixed-function counter counts.
const FIXED_EVENTS: [HwEvent; NUM_FIXED] = [
    HwEvent::InstructionsRetired,
    HwEvent::CoreCycles,
    HwEvent::RefCycles,
];

/// One counter that counts at one privilege, decoded from the control
/// registers.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// `IA32_PMCn` below [`NUM_PROGRAMMABLE`], else fixed counter
    /// `counter - NUM_PROGRAMMABLE`.
    counter: usize,
    /// The event it counts.
    event: HwEvent,
    /// Its bit in `IA32_PERF_GLOBAL_STATUS`.
    status_bit: u64,
    /// Whether its overflow raises a PMI (the INT bit, or the fixed
    /// counter's PMI bit).
    pmi: bool,
}

/// The counters that count at one privilege, in counter order: the
/// control registers decoded once, so a batch visits only these.
#[derive(Debug, Clone, Copy)]
struct CountingPlan {
    lanes: [Lane; NUM_PROGRAMMABLE + NUM_FIXED],
    len: usize,
}

impl CountingPlan {
    const EMPTY: CountingPlan = CountingPlan {
        lanes: [Lane {
            counter: 0,
            event: HwEvent::InstructionsRetired,
            status_bit: 0,
            pmi: false,
        }; NUM_PROGRAMMABLE + NUM_FIXED],
        len: 0,
    };

    fn push(&mut self, lane: Lane) {
        self.lanes[self.len] = lane;
        self.len += 1;
    }

    #[inline]
    fn lanes(&self) -> &[Lane] {
        &self.lanes[..self.len]
    }
}

/// The PMU for one simulated core.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct Pmu {
    pmc: [Counter; NUM_PROGRAMMABLE],
    evtsel: [EventSel; NUM_PROGRAMMABLE],
    fixed: [Counter; NUM_FIXED],
    fixed_ctrl: u64,
    global_ctrl: u64,
    global_status: u64,
    pmi_pending: bool,
    /// The counters that count user and kernel batches, rebuilt from the
    /// control registers whenever one of them changes.
    plan_user: CountingPlan,
    plan_kernel: CountingPlan,
    /// Ground truth: every event ever observed, per privilege, regardless of
    /// counter programming. Accuracy experiments (Fig. 9) compare tool
    /// readings against this ledger.
    ledger_user: EventCounts,
    ledger_kernel: EventCounts,
    /// Optional protocol checker (see [`crate::protocol`]). `RefCell`
    /// because counter reads take `&self` but must record violations.
    checker: Option<RefCell<ProtocolChecker>>,
}

impl Default for Pmu {
    fn default() -> Self {
        Self::new()
    }
}

impl Pmu {
    /// Creates a powered-on PMU with all counters zero and disabled.
    pub fn new() -> Self {
        Self {
            pmc: [Counter::new(); NUM_PROGRAMMABLE],
            evtsel: [EventSel::new(); NUM_PROGRAMMABLE],
            fixed: [Counter::new(); NUM_FIXED],
            fixed_ctrl: 0,
            global_ctrl: 0,
            global_status: 0,
            pmi_pending: false,
            plan_user: CountingPlan::EMPTY,
            plan_kernel: CountingPlan::EMPTY,
            ledger_user: EventCounts::new(),
            ledger_kernel: EventCounts::new(),
            checker: None,
        }
    }

    /// Attaches a [`ProtocolChecker`] that validates every subsequent MSR
    /// access against the SDM programming protocol.
    pub fn enable_protocol_checker(&mut self) {
        self.checker = Some(RefCell::new(ProtocolChecker::new()));
    }

    /// Violations recorded by the protocol checker so far (empty when the
    /// checker was never enabled).
    pub fn protocol_violations(&self) -> Vec<ProtocolViolation> {
        match &self.checker {
            Some(c) => c.borrow().violations().to_vec(),
            None => Vec::new(),
        }
    }

    /// Writes a PMU MSR.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::UnknownMsr`] for addresses outside the PMU register
    /// file and [`PmuError::ReadOnlyMsr`] for `IA32_PERF_GLOBAL_STATUS`.
    pub fn wrmsr(&mut self, addr: u32, value: u64) -> Result<(), PmuError> {
        if let Some(c) = &self.checker {
            c.borrow_mut().on_wrmsr(addr, value);
        }
        match addr {
            msr::IA32_PMC0..=msr::IA32_PMC3 => {
                self.pmc[(addr - msr::IA32_PMC0) as usize].write(value);
            }
            msr::IA32_PERFEVTSEL0..=msr::IA32_PERFEVTSEL3 => {
                self.evtsel[(addr - msr::IA32_PERFEVTSEL0) as usize] = EventSel::from_bits(value);
                self.rebuild_plans();
            }
            msr::IA32_FIXED_CTR0..=msr::IA32_FIXED_CTR2 => {
                self.fixed[(addr - msr::IA32_FIXED_CTR0) as usize].write(value);
            }
            msr::IA32_FIXED_CTR_CTRL => {
                self.fixed_ctrl = value;
                self.rebuild_plans();
            }
            msr::IA32_PERF_GLOBAL_CTRL => {
                self.global_ctrl = value;
                self.rebuild_plans();
            }
            msr::IA32_PERF_GLOBAL_STATUS => return Err(PmuError::ReadOnlyMsr(addr)),
            msr::IA32_PERF_GLOBAL_OVF_CTRL => {
                // Write-1-to-clear the corresponding status bits.
                self.global_status &= !value;
                if self.global_status == 0 {
                    self.pmi_pending = false;
                }
            }
            other => return Err(PmuError::UnknownMsr(other)),
        }
        Ok(())
    }

    /// Reads a PMU MSR.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::UnknownMsr`] for addresses outside the PMU register
    /// file.
    pub fn rdmsr(&self, addr: u32) -> Result<u64, PmuError> {
        if let Some(c) = &self.checker {
            c.borrow_mut().on_rdmsr(addr);
        }
        Ok(match addr {
            msr::IA32_PMC0..=msr::IA32_PMC3 => self.pmc[(addr - msr::IA32_PMC0) as usize].value(),
            msr::IA32_PERFEVTSEL0..=msr::IA32_PERFEVTSEL3 => {
                self.evtsel[(addr - msr::IA32_PERFEVTSEL0) as usize].bits()
            }
            msr::IA32_FIXED_CTR0..=msr::IA32_FIXED_CTR2 => {
                self.fixed[(addr - msr::IA32_FIXED_CTR0) as usize].value()
            }
            msr::IA32_FIXED_CTR_CTRL => self.fixed_ctrl,
            msr::IA32_PERF_GLOBAL_CTRL => self.global_ctrl,
            msr::IA32_PERF_GLOBAL_STATUS => self.global_status,
            msr::IA32_PERF_GLOBAL_OVF_CTRL => 0,
            other => return Err(PmuError::UnknownMsr(other)),
        })
    }

    /// User-space counter read (`rdpmc` instruction).
    ///
    /// Index `0..=3` reads `IA32_PMCn`; index `0x4000_0000 | n` reads fixed
    /// counter `n`, matching the hardware encoding.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::BadPmcIndex`] if the index selects no counter.
    pub fn rdpmc(&self, index: u32) -> Result<u64, PmuError> {
        const FIXED_FLAG: u32 = 0x4000_0000;
        if index & FIXED_FLAG != 0 {
            let n = (index & !FIXED_FLAG) as usize;
            if n >= NUM_FIXED {
                return Err(PmuError::BadPmcIndex(index));
            }
            if let Some(c) = &self.checker {
                c.borrow_mut().on_rdpmc_fixed(n);
            }
            Ok(self.fixed[n].value())
        } else {
            let n = index as usize;
            if n >= NUM_PROGRAMMABLE {
                return Err(PmuError::BadPmcIndex(index));
            }
            if let Some(c) = &self.checker {
                c.borrow_mut().on_rdpmc_programmable(n);
            }
            Ok(self.pmc[n].value())
        }
    }

    /// The event-select currently programmed on programmable counter `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= NUM_PROGRAMMABLE`.
    pub fn eventsel(&self, n: usize) -> EventSel {
        self.evtsel[n]
    }

    fn pmc_active(&self, n: usize) -> bool {
        self.evtsel[n].is_enabled() && (self.global_ctrl & msr::global_ctrl_pmc_bit(n)) != 0
    }

    fn fixed_field(&self, n: usize) -> u64 {
        (self.fixed_ctrl >> (4 * n)) & 0xF
    }

    fn fixed_active_at(&self, n: usize, privilege: Privilege) -> bool {
        if self.global_ctrl & msr::global_ctrl_fixed_bit(n) == 0 {
            return false;
        }
        let field = self.fixed_field(n);
        match privilege {
            Privilege::Kernel => field & 0b01 != 0,
            Privilege::User => field & 0b10 != 0,
        }
    }

    fn fixed_pmi_enabled(&self, n: usize) -> bool {
        self.fixed_field(n) & 0b1000 != 0
    }

    /// Decodes the control registers into the user and kernel counting
    /// plans. Every write to `IA32_PERFEVTSELn`, `IA32_FIXED_CTR_CTRL` or
    /// `IA32_PERF_GLOBAL_CTRL` calls it, and so do
    /// [`freeze`](Self::freeze) and [`unfreeze`](Self::unfreeze).
    fn rebuild_plans(&mut self) {
        self.plan_user = self.decode_plan(Privilege::User);
        self.plan_kernel = self.decode_plan(Privilege::Kernel);
    }

    fn decode_plan(&self, privilege: Privilege) -> CountingPlan {
        let mut plan = CountingPlan::EMPTY;
        for n in 0..NUM_PROGRAMMABLE {
            if !self.pmc_active(n) || !self.evtsel[n].counts_at(privilege) {
                continue;
            }
            // An unknown encoding counts nothing, like hardware.
            if let Some(event) = self.evtsel[n].event() {
                plan.push(Lane {
                    counter: n,
                    event,
                    status_bit: msr::global_ctrl_pmc_bit(n),
                    pmi: self.evtsel[n].int_enabled(),
                });
            }
        }
        for (n, &event) in FIXED_EVENTS.iter().enumerate() {
            if self.fixed_active_at(n, privilege) {
                plan.push(Lane {
                    counter: NUM_PROGRAMMABLE + n,
                    event,
                    status_bit: msr::global_ctrl_fixed_bit(n),
                    pmi: self.fixed_pmi_enabled(n),
                });
            }
        }
        plan
    }

    /// Applies a batch of events at `privilege` to every active counter and
    /// to the ground-truth ledger.
    ///
    /// Counters that overflow set their `IA32_PERF_GLOBAL_STATUS` bit; if the
    /// overflowing counter has its INT (or fixed PMI) bit set, a PMI becomes
    /// pending (see [`take_pmi`](Self::take_pmi)).
    #[inline]
    pub fn observe(&mut self, batch: &EventCounts, privilege: Privilege) {
        self.ledger_mut(privilege).merge(batch);
        self.count(privilege, |event| batch.get(event));
    }

    /// [`observe`](Self::observe) for a batch of a few events, given as
    /// `(event, count)` pairs: the same as observing the pairs collected
    /// into an [`EventCounts`] (a repeated event adds up), without visiting
    /// the events the pairs leave out. It is inlined, so a caller whose
    /// events are constants updates the ledger with one add per pair.
    #[inline]
    pub fn observe_sparse(&mut self, events: &[(HwEvent, u64)], privilege: Privilege) {
        self.ledger_mut(privilege).extend(events.iter().copied());
        self.count(privilege, |event| {
            events
                .iter()
                .filter(|&&(e, _)| e == event)
                .map(|&(_, n)| n)
                .sum()
        });
    }

    #[inline]
    fn ledger_mut(&mut self, privilege: Privilege) -> &mut EventCounts {
        match privilege {
            Privilege::User => &mut self.ledger_user,
            Privilege::Kernel => &mut self.ledger_kernel,
        }
    }

    /// Adds `count_of(event)` to every counter of `privilege`'s plan,
    /// setting the status bit of each that overflows and raising a PMI
    /// where its lane asks for one.
    #[inline]
    fn count(&mut self, privilege: Privilege, count_of: impl Fn(HwEvent) -> u64) {
        let Pmu {
            pmc,
            fixed,
            global_status,
            pmi_pending,
            plan_user,
            plan_kernel,
            checker,
            ..
        } = self;
        let plan = match privilege {
            Privilege::User => plan_user,
            Privilege::Kernel => plan_kernel,
        };
        let status_before = *global_status;
        for lane in plan.lanes() {
            let count = count_of(lane.event);
            if count == 0 {
                continue;
            }
            let counter = match lane.counter.checked_sub(NUM_PROGRAMMABLE) {
                None => &mut pmc[lane.counter],
                Some(n) => &mut fixed[n],
            };
            if counter.add(count) > 0 {
                *global_status |= lane.status_bit;
                *pmi_pending |= lane.pmi;
            }
        }
        let new_bits = *global_status & !status_before;
        if new_bits != 0 {
            if let Some(c) = checker {
                c.borrow_mut().on_overflow(new_bits);
            }
        }
    }

    /// Returns `true` once if a PMI is pending, clearing the pending flag.
    ///
    /// The overflow *status* bits remain set until software clears them via
    /// `IA32_PERF_GLOBAL_OVF_CTRL`, exactly as on hardware.
    pub fn take_pmi(&mut self) -> bool {
        std::mem::take(&mut self.pmi_pending)
    }

    /// Every counter's value: the programmable ones, then the fixed ones.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> ([u64; NUM_PROGRAMMABLE], [u64; NUM_FIXED]) {
        (
            std::array::from_fn(|i| self.pmc[i].value()),
            std::array::from_fn(|i| self.fixed[i].value()),
        )
    }

    /// True if a PMI is pending (without consuming it).
    #[cfg(test)]
    pub(crate) fn pmi_pending(&self) -> bool {
        self.pmi_pending
    }

    /// Overflow status bits (`IA32_PERF_GLOBAL_STATUS`).
    #[cfg(test)]
    pub(crate) fn global_status(&self) -> u64 {
        self.global_status
    }

    /// Ground truth: all events observed at `privilege` since power-on.
    pub fn ledger(&self, privilege: Privilege) -> &EventCounts {
        match privilege {
            Privilege::User => &self.ledger_user,
            Privilege::Kernel => &self.ledger_kernel,
        }
    }

    /// Disables every counter by clearing `IA32_PERF_GLOBAL_CTRL`,
    /// returning the previous value so it can be restored. K-LEB's module
    /// isolates processes the same way, but through a charged `wrmsr` of
    /// that MSR (`ksim::KernelCtx::wrmsr_on`).
    pub fn freeze(&mut self) -> u64 {
        let saved = std::mem::take(&mut self.global_ctrl);
        self.rebuild_plans();
        saved
    }

    /// Restores a control value saved by [`freeze`](Self::freeze).
    pub fn unfreeze(&mut self, saved_ctrl: u64) {
        self.global_ctrl = saved_ctrl;
        self.rebuild_plans();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ALL_EVENTS;

    fn batch(event: HwEvent, n: u64) -> EventCounts {
        EventCounts::new().with(event, n)
    }

    fn programmed(event: HwEvent, n: usize) -> Pmu {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(event).usr(true).os(true).enabled(true);
        pmu.wrmsr(msr::perfevtsel(n), sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, msr::global_ctrl_pmc_bit(n))
            .unwrap();
        pmu
    }

    #[test]
    fn counts_programmed_event() {
        let mut pmu = programmed(HwEvent::LlcMiss, 0);
        pmu.observe(&batch(HwEvent::LlcMiss, 10), Privilege::User);
        pmu.observe(&batch(HwEvent::LlcMiss, 5), Privilege::Kernel);
        assert_eq!(pmu.rdpmc(0).unwrap(), 15);
    }

    #[test]
    fn ignores_unprogrammed_events() {
        let mut pmu = programmed(HwEvent::LlcMiss, 0);
        pmu.observe(&batch(HwEvent::Load, 100), Privilege::User);
        assert_eq!(pmu.rdpmc(0).unwrap(), 0);
    }

    #[test]
    fn privilege_filtering() {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::Load).usr(true).enabled(true);
        pmu.wrmsr(msr::perfevtsel(0), sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1).unwrap();
        pmu.observe(&batch(HwEvent::Load, 7), Privilege::User);
        pmu.observe(&batch(HwEvent::Load, 9), Privilege::Kernel);
        assert_eq!(
            pmu.rdpmc(0).unwrap(),
            7,
            "OS bit clear: kernel events not counted"
        );
    }

    #[test]
    fn global_ctrl_gates_counting() {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::Load).usr(true).enabled(true);
        pmu.wrmsr(msr::perfevtsel(0), sel.bits()).unwrap();
        // Global ctrl left zero: nothing counts.
        pmu.observe(&batch(HwEvent::Load, 7), Privilege::User);
        assert_eq!(pmu.rdpmc(0).unwrap(), 0);
    }

    #[test]
    fn freeze_and_unfreeze() {
        let mut pmu = programmed(HwEvent::Store, 2);
        pmu.observe(&batch(HwEvent::Store, 3), Privilege::User);
        let saved = pmu.freeze();
        pmu.observe(&batch(HwEvent::Store, 100), Privilege::User);
        pmu.unfreeze(saved);
        pmu.observe(&batch(HwEvent::Store, 4), Privilege::User);
        assert_eq!(pmu.rdpmc(2).unwrap(), 7);
    }

    #[test]
    fn fixed_counters_count_their_events() {
        let mut pmu = Pmu::new();
        // Enable fixed ctr 0 for user+kernel (field 0b011).
        pmu.wrmsr(msr::IA32_FIXED_CTR_CTRL, 0b011).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, msr::global_ctrl_fixed_bit(0))
            .unwrap();
        pmu.observe(&batch(HwEvent::InstructionsRetired, 1000), Privilege::User);
        pmu.observe(&batch(HwEvent::InstructionsRetired, 11), Privilege::Kernel);
        assert_eq!(pmu.rdmsr(msr::IA32_FIXED_CTR0).unwrap(), 1011);
        // rdpmc with the fixed flag.
        assert_eq!(pmu.rdpmc(0x4000_0000).unwrap(), 1011);
    }

    #[test]
    fn fixed_counter_privilege_fields() {
        let mut pmu = Pmu::new();
        // Fixed ctr 1: OS only (field 0b001 at bits 4..8).
        pmu.wrmsr(msr::IA32_FIXED_CTR_CTRL, 0b0001 << 4).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, msr::global_ctrl_fixed_bit(1))
            .unwrap();
        pmu.observe(&batch(HwEvent::CoreCycles, 50), Privilege::User);
        pmu.observe(&batch(HwEvent::CoreCycles, 20), Privilege::Kernel);
        assert_eq!(pmu.rdmsr(msr::IA32_FIXED_CTR1).unwrap(), 20);
    }

    #[test]
    fn overflow_sets_status_and_pmi() {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::InstructionsRetired)
            .usr(true)
            .int_enable(true)
            .enabled(true);
        pmu.wrmsr(msr::perfevtsel(0), sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1).unwrap();
        // Preload for a 100-instruction sampling period.
        let preload = (1u64 << 48) - 100;
        pmu.wrmsr(msr::IA32_PMC0, preload).unwrap();
        pmu.observe(&batch(HwEvent::InstructionsRetired, 99), Privilege::User);
        assert!(!pmu.pmi_pending());
        pmu.observe(&batch(HwEvent::InstructionsRetired, 1), Privilege::User);
        assert!(pmu.pmi_pending());
        assert_eq!(pmu.global_status() & 1, 1);
        assert!(pmu.take_pmi());
        assert!(!pmu.take_pmi(), "take_pmi consumes the pending flag");
        // Status persists until cleared via OVF_CTRL.
        assert_eq!(pmu.global_status() & 1, 1);
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_OVF_CTRL, 1).unwrap();
        assert_eq!(pmu.global_status(), 0);
    }

    #[test]
    fn overflow_without_int_bit_raises_no_pmi() {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::Load).usr(true).enabled(true);
        pmu.wrmsr(msr::perfevtsel(0), sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1).unwrap();
        pmu.wrmsr(msr::IA32_PMC0, (1u64 << 48) - 1).unwrap();
        pmu.observe(&batch(HwEvent::Load, 2), Privilege::User);
        assert_eq!(pmu.global_status() & 1, 1);
        assert!(!pmu.pmi_pending());
    }

    #[test]
    fn ledger_tracks_everything() {
        let mut pmu = Pmu::new(); // nothing programmed
        pmu.observe(&batch(HwEvent::LlcMiss, 3), Privilege::User);
        pmu.observe(&batch(HwEvent::LlcMiss, 4), Privilege::Kernel);
        assert_eq!(pmu.ledger(Privilege::User).get(HwEvent::LlcMiss), 3);
        assert_eq!(pmu.ledger(Privilege::Kernel).get(HwEvent::LlcMiss), 4);
    }

    #[test]
    fn unknown_msr_rejected() {
        let mut pmu = Pmu::new();
        assert_eq!(pmu.wrmsr(0x10, 0), Err(PmuError::UnknownMsr(0x10)));
        assert_eq!(pmu.rdmsr(0x10), Err(PmuError::UnknownMsr(0x10)));
        assert_eq!(
            pmu.wrmsr(msr::IA32_PERF_GLOBAL_STATUS, 0),
            Err(PmuError::ReadOnlyMsr(msr::IA32_PERF_GLOBAL_STATUS))
        );
    }

    #[test]
    fn bad_rdpmc_index() {
        let pmu = Pmu::new();
        assert_eq!(pmu.rdpmc(4), Err(PmuError::BadPmcIndex(4)));
        assert_eq!(
            pmu.rdpmc(0x4000_0003),
            Err(PmuError::BadPmcIndex(0x4000_0003))
        );
    }

    #[test]
    fn every_event_countable_on_every_programmable_counter() {
        for event in ALL_EVENTS {
            for n in 0..NUM_PROGRAMMABLE {
                let mut pmu = programmed(event, n);
                pmu.observe(&batch(event, 9), Privilege::User);
                assert_eq!(pmu.rdpmc(n as u32).unwrap(), 9, "{event} on PMC{n}");
            }
        }
    }
}
