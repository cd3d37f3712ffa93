//! Runtime validation of the Intel SDM MSR programming protocol.
//!
//! The accuracy claims of the reproduction (Fig. 9's <0.3 % divergence)
//! rest on every tool programming the PMU through the documented
//! register protocol. A tool that enables a counter before programming
//! its event select, or reads a counter the global control register
//! never enabled, gets a *plausible but wrong* number back — the worst
//! failure mode for a measurement harness, because nothing crashes.
//!
//! [`ProtocolChecker`] is the dynamic twin of the `klint` static pass
//! (see DESIGN.md, "Correctness tooling"): attached to a [`crate::Pmu`]
//! it observes the MSR access *trace* and records structured
//! [`ProtocolViolation`]s for:
//!
//! - **enable-before-select**: a `IA32_PERF_GLOBAL_CTRL` write enables a
//!   counter whose event select (or fixed-counter control field) is not
//!   programmed;
//! - **read-without-enable**: a counter is read (`rdmsr`/`rdpmc`) that
//!   the global control register never enabled while selected;
//! - **write-to-read-only**: a `wrmsr` to `IA32_PERF_GLOBAL_STATUS`
//!   (status bits are cleared through `IA32_PERF_GLOBAL_OVF_CTRL`'s
//!   write-1-to-clear protocol, never by writing the status register);
//! - **read-with-pending-overflow**: a counter is read while its
//!   overflow status bit is still set — the value has wrapped and must
//!   not be trusted until the tool clears the bit via `OVF_CTRL`.
//!
//! The checker is off by default and costs one `Option` branch per MSR
//! access when disabled. Each distinct violation is recorded once, so a
//! tool that repeats a mistake every sample still produces a bounded
//! report.

use std::fmt;

use crate::eventsel::EventSel;
use crate::msr;
use crate::unit::{NUM_FIXED, NUM_PROGRAMMABLE};

/// One observed departure from the SDM register protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// `IA32_PERF_GLOBAL_CTRL` enabled a counter whose select register
    /// (reported here) was not programmed with a valid, enabled event.
    EnableBeforeSelect {
        /// The select register that should have been programmed first
        /// (`IA32_PERFEVTSELn` or `IA32_FIXED_CTR_CTRL`).
        msr: u32,
    },
    /// A counter was read that was never enabled by the global control
    /// register while its select was programmed.
    ReadWithoutEnable {
        /// The counter register that was read.
        msr: u32,
    },
    /// A `wrmsr` targeted the read-only `IA32_PERF_GLOBAL_STATUS`.
    WriteToReadOnly {
        /// The register that was written.
        msr: u32,
    },
    /// A counter was read while its overflow status bit was pending
    /// (not yet cleared through `IA32_PERF_GLOBAL_OVF_CTRL`).
    ReadWithPendingOverflow {
        /// The counter register that was read.
        msr: u32,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::EnableBeforeSelect { msr } => {
                write!(f, "counter enabled before select {msr:#x} was programmed")
            }
            ProtocolViolation::ReadWithoutEnable { msr } => {
                write!(f, "counter {msr:#x} read but never enabled by global-ctrl")
            }
            ProtocolViolation::WriteToReadOnly { msr } => {
                write!(f, "write to read-only status register {msr:#x}")
            }
            ProtocolViolation::ReadWithPendingOverflow { msr } => {
                write!(f, "counter {msr:#x} read with overflow status pending")
            }
        }
    }
}

/// Tracks the MSR access trace of one PMU and records protocol
/// violations. See the [module documentation](self) for the rule set.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProtocolChecker {
    /// Event select programmed with a valid event and its EN bit.
    selected_pmc: [bool; NUM_PROGRAMMABLE],
    /// Fixed-control field has at least one ring-enable bit.
    selected_fixed: [bool; NUM_FIXED],
    /// Counter was enabled by global-ctrl at least once while selected.
    armed_pmc: [bool; NUM_PROGRAMMABLE],
    armed_fixed: [bool; NUM_FIXED],
    /// The checker's mirror of `IA32_PERF_GLOBAL_CTRL`.
    ctrl: u64,
    /// The checker's mirror of the overflow status bits.
    status: u64,
    violations: Vec<ProtocolViolation>,
}

impl ProtocolChecker {
    /// A fresh checker with no trace observed.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Every violation recorded so far, in first-occurrence order.
    pub(crate) fn violations(&self) -> &[ProtocolViolation] {
        &self.violations
    }

    fn record(&mut self, v: ProtocolViolation) {
        if !self.violations.contains(&v) {
            self.violations.push(v);
        }
    }

    fn arm_if_enabled(&mut self) {
        for n in 0..NUM_PROGRAMMABLE {
            if self.selected_pmc[n] && self.ctrl & msr::global_ctrl_pmc_bit(n) != 0 {
                self.armed_pmc[n] = true;
            }
        }
        for n in 0..NUM_FIXED {
            if self.selected_fixed[n] && self.ctrl & msr::global_ctrl_fixed_bit(n) != 0 {
                self.armed_fixed[n] = true;
            }
        }
    }

    /// Observes a `wrmsr`. Call before the write is applied.
    pub(crate) fn on_wrmsr(&mut self, addr: u32, value: u64) {
        match addr {
            msr::IA32_PERFEVTSEL0..=msr::IA32_PERFEVTSEL3 => {
                let n = (addr - msr::IA32_PERFEVTSEL0) as usize;
                let sel = EventSel::from_bits(value);
                self.selected_pmc[n] = sel.is_enabled() && sel.event().is_some();
                self.arm_if_enabled();
            }
            msr::IA32_FIXED_CTR_CTRL => {
                for n in 0..NUM_FIXED {
                    self.selected_fixed[n] = (value >> (4 * n)) & 0b011 != 0;
                }
                self.arm_if_enabled();
            }
            msr::IA32_PERF_GLOBAL_CTRL => {
                let rising = value & !self.ctrl;
                for n in 0..NUM_PROGRAMMABLE {
                    if rising & msr::global_ctrl_pmc_bit(n) != 0 && !self.selected_pmc[n] {
                        self.record(ProtocolViolation::EnableBeforeSelect {
                            msr: msr::perfevtsel(n),
                        });
                    }
                }
                for n in 0..NUM_FIXED {
                    if rising & msr::global_ctrl_fixed_bit(n) != 0 && !self.selected_fixed[n] {
                        self.record(ProtocolViolation::EnableBeforeSelect {
                            msr: msr::IA32_FIXED_CTR_CTRL,
                        });
                    }
                }
                self.ctrl = value;
                self.arm_if_enabled();
            }
            msr::IA32_PERF_GLOBAL_STATUS => {
                self.record(ProtocolViolation::WriteToReadOnly { msr: addr });
            }
            msr::IA32_PERF_GLOBAL_OVF_CTRL => {
                // Write-1-to-clear: the only sanctioned way to retire
                // overflow status.
                self.status &= !value;
            }
            _ => {}
        }
    }

    /// Observes overflow status bits the hardware just set.
    pub(crate) fn on_overflow(&mut self, bits: u64) {
        self.status |= bits;
    }

    fn on_counter_read(&mut self, addr: u32, armed: bool, status_bit: u64) {
        if !armed {
            self.record(ProtocolViolation::ReadWithoutEnable { msr: addr });
        } else if self.status & status_bit != 0 {
            self.record(ProtocolViolation::ReadWithPendingOverflow { msr: addr });
        }
    }

    /// Observes a counter read via `rdmsr`. Non-counter reads are free.
    pub(crate) fn on_rdmsr(&mut self, addr: u32) {
        match addr {
            msr::IA32_PMC0..=msr::IA32_PMC3 => {
                let n = (addr - msr::IA32_PMC0) as usize;
                self.on_counter_read(addr, self.armed_pmc[n], msr::global_ctrl_pmc_bit(n));
            }
            msr::IA32_FIXED_CTR0..=msr::IA32_FIXED_CTR2 => {
                let n = (addr - msr::IA32_FIXED_CTR0) as usize;
                self.on_counter_read(addr, self.armed_fixed[n], msr::global_ctrl_fixed_bit(n));
            }
            _ => {}
        }
    }

    /// Observes a user-space `rdpmc` of programmable counter `n`.
    pub(crate) fn on_rdpmc_programmable(&mut self, n: usize) {
        self.on_counter_read(msr::pmc(n), self.armed_pmc[n], msr::global_ctrl_pmc_bit(n));
    }

    /// Observes a user-space `rdpmc` of fixed counter `n`.
    pub(crate) fn on_rdpmc_fixed(&mut self, n: usize) {
        self.on_counter_read(
            msr::fixed_ctr(n),
            self.armed_fixed[n],
            msr::global_ctrl_fixed_bit(n),
        );
    }
}
