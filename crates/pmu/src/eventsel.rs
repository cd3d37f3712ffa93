//! `IA32_PERFEVTSELx` bit-field encoding.
//!
//! | Bits  | Field | Meaning |
//! |-------|-------|---------|
//! | 0-7   | EVENT | primary event code |
//! | 8-15  | UMASK | unit mask |
//! | 16    | USR   | count in ring 3 |
//! | 17    | OS    | count in ring 0 |
//! | 18    | E     | edge detect (modelled but unused) |
//! | 20    | INT   | raise PMI on overflow |
//! | 22    | EN    | counter enable |
//! | 23    | INV   | invert counter-mask comparison |
//! | 24-31 | CMASK | counter mask |

use crate::event::{EventCode, HwEvent, Privilege};

const USR_BIT: u64 = 1 << 16;
const OS_BIT: u64 = 1 << 17;
const INT_BIT: u64 = 1 << 20;
const EN_BIT: u64 = 1 << 22;

/// A decoded view of one event-select register.
///
/// `EventSel` is a value type: builder-style methods return an updated copy,
/// so a full configuration reads as a chain:
///
/// ```
/// use pmu::{EventSel, HwEvent};
///
/// let sel = EventSel::for_event(HwEvent::BranchMiss)
///     .usr(true)
///     .os(false)
///     .int_enable(true)
///     .enabled(true);
/// assert!(sel.is_enabled());
/// assert_eq!(sel.event(), Some(HwEvent::BranchMiss));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventSel(u64);

impl EventSel {
    /// An all-zero (disabled) event select.
    pub const fn new() -> Self {
        Self(0)
    }

    /// Creates a select for `event` with both privilege bits clear and the
    /// counter disabled; chain [`usr`](Self::usr)/[`os`](Self::os)/
    /// [`enabled`](Self::enabled) to complete it.
    pub const fn for_event(event: HwEvent) -> Self {
        let code = event.code();
        Self(code.event as u64 | ((code.umask as u64) << 8))
    }

    /// Reconstructs a select from raw register bits.
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Raw register bits.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The `(event, umask)` encoding currently programmed.
    pub const fn code(self) -> EventCode {
        EventCode {
            event: (self.0 & 0xFF) as u8,
            umask: ((self.0 >> 8) & 0xFF) as u8,
        }
    }

    /// The decoded [`HwEvent`], if the programmed code is one this model
    /// implements.
    pub fn event(self) -> Option<HwEvent> {
        HwEvent::from_code(self.code())
    }

    fn set(self, bit: u64, on: bool) -> Self {
        if on {
            Self(self.0 | bit)
        } else {
            Self(self.0 & !bit)
        }
    }

    /// Sets the USR (ring-3) counting bit.
    pub fn usr(self, on: bool) -> Self {
        self.set(USR_BIT, on)
    }

    /// Sets the OS (ring-0) counting bit.
    pub fn os(self, on: bool) -> Self {
        self.set(OS_BIT, on)
    }

    /// Sets the INT bit (PMI on overflow), used by sampling tools.
    pub fn int_enable(self, on: bool) -> Self {
        self.set(INT_BIT, on)
    }

    /// Sets the EN bit.
    pub fn enabled(self, on: bool) -> Self {
        self.set(EN_BIT, on)
    }

    /// True if the EN bit is set.
    pub const fn is_enabled(self) -> bool {
        self.0 & EN_BIT != 0
    }

    /// True if the USR bit is set.
    const fn counts_user(self) -> bool {
        self.0 & USR_BIT != 0
    }

    /// True if the OS bit is set.
    const fn counts_os(self) -> bool {
        self.0 & OS_BIT != 0
    }

    /// True if the INT bit is set.
    pub const fn int_enabled(self) -> bool {
        self.0 & INT_BIT != 0
    }

    /// Whether this select counts events at `privilege`.
    pub const fn counts_at(self, privilege: Privilege) -> bool {
        match privilege {
            Privilege::User => self.counts_user(),
            Privilege::Kernel => self.counts_os(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_event_and_umask() {
        let sel = EventSel::for_event(HwEvent::LlcMiss);
        assert_eq!(sel.bits() & 0xFF, 0x2E);
        assert_eq!((sel.bits() >> 8) & 0xFF, 0x41);
        assert_eq!(sel.event(), Some(HwEvent::LlcMiss));
    }

    #[test]
    fn privilege_bits() {
        let sel = EventSel::for_event(HwEvent::Load).usr(true);
        assert!(sel.counts_at(Privilege::User));
        assert!(!sel.counts_at(Privilege::Kernel));
        let sel = sel.os(true).usr(false);
        assert!(!sel.counts_at(Privilege::User));
        assert!(sel.counts_at(Privilege::Kernel));
    }

    #[test]
    fn enable_and_int_bits() {
        let sel = EventSel::new().enabled(true).int_enable(true);
        assert!(sel.is_enabled());
        assert!(sel.int_enabled());
        let sel = sel.enabled(false);
        assert!(!sel.is_enabled());
        assert!(sel.int_enabled());
    }

    #[test]
    fn round_trips_through_bits() {
        let sel = EventSel::for_event(HwEvent::BranchRetired)
            .usr(true)
            .os(true)
            .enabled(true);
        let back = EventSel::from_bits(sel.bits());
        assert_eq!(back, sel);
        assert_eq!(back.event(), Some(HwEvent::BranchRetired));
    }

    #[test]
    fn unknown_code_decodes_to_none() {
        let sel = EventSel::from_bits(0xDEAD);
        assert_eq!(sel.event(), None);
    }
}
