//! The decode-per-call PMU, kept as the oracle the counting plan of
//! [`Pmu`](crate::Pmu) is checked against.
//!
//! It holds the same register file, and on every batch re-checks the
//! enable and privilege bits of all seven counters and decodes each
//! active programmable counter's event code. A sparse batch is collected
//! into an [`EventCounts`] and observed like a dense one.

use crate::counter::Counter;
use crate::event::{EventCounts, HwEvent, Privilege};
use crate::eventsel::EventSel;
use crate::msr;
use crate::unit::{NUM_FIXED, NUM_PROGRAMMABLE};

#[derive(Debug, Clone, Default)]
pub(crate) struct RefPmu {
    pmc: [Counter; NUM_PROGRAMMABLE],
    evtsel: [EventSel; NUM_PROGRAMMABLE],
    fixed: [Counter; NUM_FIXED],
    fixed_ctrl: u64,
    global_ctrl: u64,
    global_status: u64,
    pmi_pending: bool,
    ledger_user: EventCounts,
    ledger_kernel: EventCounts,
}

impl RefPmu {
    /// Writes one of the PMU's writable MSRs.
    pub(crate) fn wrmsr(&mut self, addr: u32, value: u64) {
        match addr {
            msr::IA32_PMC0..=msr::IA32_PMC3 => {
                self.pmc[(addr - msr::IA32_PMC0) as usize].write(value);
            }
            msr::IA32_PERFEVTSEL0..=msr::IA32_PERFEVTSEL3 => {
                self.evtsel[(addr - msr::IA32_PERFEVTSEL0) as usize] = EventSel::from_bits(value);
            }
            msr::IA32_FIXED_CTR0..=msr::IA32_FIXED_CTR2 => {
                self.fixed[(addr - msr::IA32_FIXED_CTR0) as usize].write(value);
            }
            msr::IA32_FIXED_CTR_CTRL => self.fixed_ctrl = value,
            msr::IA32_PERF_GLOBAL_CTRL => self.global_ctrl = value,
            msr::IA32_PERF_GLOBAL_OVF_CTRL => {
                self.global_status &= !value;
                if self.global_status == 0 {
                    self.pmi_pending = false;
                }
            }
            other => panic!("the reference has no MSR {other:#x}"),
        }
    }

    pub(crate) fn counters(&self) -> ([u64; NUM_PROGRAMMABLE], [u64; NUM_FIXED]) {
        (self.pmc.map(|c| c.value()), self.fixed.map(|c| c.value()))
    }

    pub(crate) fn global_status(&self) -> u64 {
        self.global_status
    }

    pub(crate) fn pmi_pending(&self) -> bool {
        self.pmi_pending
    }

    pub(crate) fn take_pmi(&mut self) -> bool {
        std::mem::take(&mut self.pmi_pending)
    }

    pub(crate) fn ledger(&self, privilege: Privilege) -> &EventCounts {
        match privilege {
            Privilege::User => &self.ledger_user,
            Privilege::Kernel => &self.ledger_kernel,
        }
    }

    pub(crate) fn freeze(&mut self) -> u64 {
        std::mem::take(&mut self.global_ctrl)
    }

    pub(crate) fn unfreeze(&mut self, saved_ctrl: u64) {
        self.global_ctrl = saved_ctrl;
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

    pub(crate) fn observe(&mut self, batch: &EventCounts, privilege: Privilege) {
        match privilege {
            Privilege::User => self.ledger_user.merge(batch),
            Privilege::Kernel => self.ledger_kernel.merge(batch),
        }
        for n in 0..NUM_PROGRAMMABLE {
            if !self.pmc_active(n) || !self.evtsel[n].counts_at(privilege) {
                continue;
            }
            let Some(event) = self.evtsel[n].event() else {
                continue;
            };
            let count = batch.get(event);
            if count == 0 {
                continue;
            }
            if self.pmc[n].add(count) > 0 {
                self.global_status |= msr::global_ctrl_pmc_bit(n);
                if self.evtsel[n].int_enabled() {
                    self.pmi_pending = true;
                }
            }
        }
        for n in 0..NUM_FIXED {
            if !self.fixed_active_at(n, privilege) {
                continue;
            }
            let event = match n {
                0 => HwEvent::InstructionsRetired,
                1 => HwEvent::CoreCycles,
                _ => HwEvent::RefCycles,
            };
            let count = batch.get(event);
            if count == 0 {
                continue;
            }
            if self.fixed[n].add(count) > 0 {
                self.global_status |= msr::global_ctrl_fixed_bit(n);
                if self.fixed_field(n) & 0b1000 != 0 {
                    self.pmi_pending = true;
                }
            }
        }
    }

    pub(crate) fn observe_sparse(&mut self, events: &[(HwEvent, u64)], privilege: Privilege) {
        self.observe(&events.iter().copied().collect(), privilege);
    }
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::event::ALL_EVENTS;
    use crate::Pmu;

    /// One step of a random MSR program.
    #[derive(Debug, Clone)]
    enum Op {
        Write(u32, u64),
        Freeze,
        Unfreeze,
        TakePmi,
        Dense(EventCounts, Privilege),
        Sparse(Vec<(HwEvent, u64)>, Privilege),
    }

    /// A count that is usually small, sometimes zero, and sometimes large
    /// enough to carry a counter preloaded near its wrap past 2^48.
    fn count(x: u64) -> u64 {
        match x % 8 {
            0 => 0,
            1 => (x >> 3) % (1 << 49),
            _ => (x >> 3) % 5_000,
        }
    }

    fn event(x: u64) -> HwEvent {
        ALL_EVENTS[(x % ALL_EVENTS.len() as u64) as usize]
    }

    fn privilege(x: u64) -> Privilege {
        if x & 1 == 0 {
            Privilege::User
        } else {
            Privilege::Kernel
        }
    }

    /// Builds an op from one draw. Event selects take a model event's
    /// code three times in four and random bytes otherwise, with random
    /// USR, OS, INT and EN bits (EN usually set) and random high bits.
    /// Control writes draw from the bits the registers define, plus a few
    /// stray ones; counter writes usually preload close to the wrap.
    fn op(kind: u32, a: u64, b: u64) -> Op {
        match kind {
            0..=14 => {
                let code = if !b.is_multiple_of(4) {
                    let c = event(a).code();
                    u64::from(c.event) | u64::from(c.umask) << 8
                } else {
                    a & 0xFFFF
                };
                let bits = code
                    | (b >> 2 & 1) << 16
                    | (b >> 3 & 1) << 17
                    | (b >> 4 & 1) << 20
                    | u64::from(!(b >> 5).is_multiple_of(4)) << 22
                    | (b >> 8) & 0xFF80_0000;
                Op::Write(msr::perfevtsel((a >> 16) as usize % NUM_PROGRAMMABLE), bits)
            }
            15..=21 => Op::Write(msr::IA32_FIXED_CTR_CTRL, a & 0xFFFF),
            22..=29 => {
                let value = if b.is_multiple_of(5) {
                    a
                } else {
                    a & 0x7_0000_000F
                };
                Op::Write(msr::IA32_PERF_GLOBAL_CTRL, value)
            }
            30..=33 => Op::Write(msr::IA32_PERF_GLOBAL_OVF_CTRL, a),
            34..=41 => {
                let value = if !b.is_multiple_of(4) {
                    (1u64 << 48) - 1 - a % 10_000
                } else {
                    a
                };
                let addr = match b % 7 {
                    n @ 0..=3 => msr::pmc(n as usize),
                    n => msr::fixed_ctr((n - 4) as usize),
                };
                Op::Write(addr, value)
            }
            42..=45 => Op::Freeze,
            46..=49 => Op::Unfreeze,
            50..=53 => Op::TakePmi,
            54..=76 => {
                let mut batch = EventCounts::new();
                for (i, &e) in ALL_EVENTS.iter().enumerate() {
                    if a >> i & 1 == 1 {
                        batch.add(e, count(b.rotate_left(4 * i as u32)));
                    }
                }
                Op::Dense(batch, privilege(a >> 20))
            }
            _ => {
                let pairs = (0..b % 9)
                    .map(|i| (event(a >> (4 * i)), count(b.rotate_left(7 * i as u32))))
                    .collect();
                Op::Sparse(pairs, privilege(a >> 40))
            }
        }
    }

    /// Plays `ops` on both PMUs, comparing every counter, the overflow
    /// status, the pending PMI and both ledgers after each step.
    fn compare(ops: &[Op]) {
        let mut fast = Pmu::new();
        let mut oracle = RefPmu::default();
        let mut saved = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                &Op::Write(addr, value) => {
                    assert_eq!(fast.wrmsr(addr, value), Ok(()), "step {step}");
                    oracle.wrmsr(addr, value);
                }
                Op::Freeze => {
                    let a = fast.freeze();
                    assert_eq!(a, oracle.freeze(), "step {step}");
                    saved.push(a);
                }
                Op::Unfreeze => {
                    let ctrl = saved.pop().unwrap_or(0x7_0000_000F);
                    fast.unfreeze(ctrl);
                    oracle.unfreeze(ctrl);
                }
                Op::TakePmi => assert_eq!(fast.take_pmi(), oracle.take_pmi(), "step {step}"),
                Op::Dense(batch, privilege) => {
                    fast.observe(batch, *privilege);
                    oracle.observe(batch, *privilege);
                }
                Op::Sparse(pairs, privilege) => {
                    fast.observe_sparse(pairs, *privilege);
                    oracle.observe_sparse(pairs, *privilege);
                }
            }
            assert_eq!(fast.counters(), oracle.counters(), "step {step}: {op:?}");
            assert_eq!(fast.global_status(), oracle.global_status(), "step {step}");
            assert_eq!(fast.pmi_pending(), oracle.pmi_pending(), "step {step}");
            for privilege in [Privilege::User, Privilege::Kernel] {
                assert_eq!(
                    fast.ledger(privilege),
                    oracle.ledger(privilege),
                    "step {step}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counting_plan_matches_the_reference(
            draws in proptest::collection::vec((0u32..100, any::<u64>(), any::<u64>()), 1..400),
        ) {
            let ops: Vec<Op> = draws.iter().map(|&(kind, a, b)| op(kind, a, b)).collect();
            compare(&ops);
        }
    }

    /// K-LEB's programming with kernel counting on: four events on the
    /// programmable counters, all three fixed counters at both
    /// privileges, then a kernel charge's six events as a sparse batch
    /// and a user block as a dense one, across a freeze.
    #[test]
    fn kleb_programming_matches_the_reference() {
        let mut ops = Vec::new();
        let events = [
            HwEvent::Load,
            HwEvent::L1dMiss,
            HwEvent::LlcReference,
            HwEvent::LlcMiss,
        ];
        for (n, &e) in events.iter().enumerate() {
            let sel = EventSel::for_event(e).usr(true).os(true).enabled(true);
            ops.push(Op::Write(msr::perfevtsel(n), sel.bits()));
        }
        ops.push(Op::Write(msr::IA32_FIXED_CTR_CTRL, 0x333));
        ops.push(Op::Write(msr::IA32_PERF_GLOBAL_CTRL, 0x7_0000_000F));
        let charge = vec![
            (HwEvent::InstructionsRetired, 810),
            (HwEvent::BranchRetired, 162),
            (HwEvent::Load, 202),
            (HwEvent::Store, 101),
            (HwEvent::CoreCycles, 900),
            (HwEvent::RefCycles, 900),
        ];
        let block = EventCounts::new()
            .with(HwEvent::InstructionsRetired, 59_000)
            .with(HwEvent::CoreCycles, 66_750)
            .with(HwEvent::LlcReference, 30)
            .with(HwEvent::LlcMiss, 3);
        for _ in 0..3 {
            ops.push(Op::Sparse(charge.clone(), Privilege::Kernel));
            ops.push(Op::Dense(block, Privilege::User));
            ops.push(Op::Freeze);
            ops.push(Op::Sparse(charge.clone(), Privilege::Kernel));
            ops.push(Op::Unfreeze);
        }
        compare(&ops);
    }
}
