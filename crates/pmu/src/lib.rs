//! Bit-accurate model of an Intel-style Performance Monitoring Unit (PMU).
//!
//! This crate is the lowest layer of the K-LEB reproduction. It models the
//! register-level protocol that performance-monitoring tools speak on real
//! hardware:
//!
//! - a set of **programmable counters** (`IA32_PMC0..3`) configured through
//!   **event-select registers** (`IA32_PERFEVTSEL0..3`) with the documented
//!   bit layout (event code, umask, USR/OS privilege filters, INT on
//!   overflow, EN),
//! - three **fixed-function counters** (instructions retired, core cycles,
//!   reference cycles) controlled by `IA32_FIXED_CTR_CTRL`,
//! - the **global control/status** registers (`IA32_PERF_GLOBAL_CTRL`,
//!   `IA32_PERF_GLOBAL_STATUS`, `IA32_PERF_GLOBAL_OVF_CTRL`),
//! - 48-bit counter width with overflow status bits and optional PMI
//!   (performance-monitoring interrupt) generation, which is how
//!   sampling-mode tools such as `perf record` operate,
//! - a user-space **`rdpmc`** read path, which is how LiMiT avoids system
//!   calls,
//! - an **event-multiplexing** helper that time-shares more requested events
//!   than there are hardware counters and produces scaled estimates, which is
//!   how `perf` virtualizes counters (and where its estimation error comes
//!   from).
//!
//! Higher layers drive the PMU by calling [`Pmu::observe`] with batches of
//! architectural events attributed to a privilege level; the PMU applies its
//! configured filters exactly as hardware would.
//!
//! # Example
//!
//! ```
//! use pmu::{Pmu, HwEvent, Privilege, EventCounts, EventSel, msr};
//!
//! let mut pmu = Pmu::new();
//! // Program PMC0 to count LLC misses in user mode, enabled.
//! let sel = EventSel::for_event(HwEvent::LlcMiss)
//!     .usr(true)
//!     .os(false)
//!     .enabled(true);
//! pmu.wrmsr(msr::IA32_PERFEVTSEL0, sel.bits())?;
//! pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1)?; // enable PMC0 globally
//!
//! let mut batch = EventCounts::new();
//! batch.add(HwEvent::LlcMiss, 42);
//! pmu.observe(&batch, Privilege::User);
//!
//! assert_eq!(pmu.rdpmc(0)?, 42);
//! # Ok::<(), pmu::PmuError>(())
//! ```

pub mod counter;
pub mod event;
pub mod eventsel;
pub mod msr;
mod multiplex;
pub mod protocol;
#[cfg(test)]
mod reference;
mod unit;

pub use counter::{Counter, COUNTER_WIDTH_BITS};
pub use event::{EventCode, EventCounts, HwEvent, Privilege, ALL_EVENTS};
pub use eventsel::EventSel;
pub use multiplex::{MultiplexEstimate, Multiplexer};
pub use protocol::{ProtocolChecker, ProtocolViolation};
pub use unit::{Pmu, PmuError, NUM_FIXED, NUM_PROGRAMMABLE};
