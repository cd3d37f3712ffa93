//! # K-LEB: Kernel — Lineage of Event Behavior
//!
//! Reproduction of the monitoring system from *"High Frequency Performance
//! Monitoring via Architectural Event Measurement"* (Woralert, Bruska, Liu,
//! Yan — IISWC 2020): a kernel-module-based mechanism that collects precise,
//! non-intrusive, low-overhead, periodic performance-counter data at rates
//! down to 100 µs — 100× faster than user-space timer tools like `perf`.
//!
//! The system has two halves, mirroring the paper's Fig. 1:
//!
//! - [`KlebModule`]: the kernel module. It programs the PMU, hooks the
//!   scheduler's context switches to isolate counts to the monitored process
//!   tree, samples counters on a high-resolution kernel timer into a kernel
//!   ring buffer, follows forks, pauses on buffer pressure (the starvation
//!   safety mechanism) and takes a final partial sample at process exit.
//! - [`controller`]: the user-space controller process that configures the
//!   module over `ioctl`, periodically drains samples with `read()`, and
//!   hands each drained batch to a [`SampleSink`].
//!
//! [`Monitor`] packages both into a one-call API:
//!
//! ```
//! use kleb::Monitor;
//! use ksim::{Machine, MachineConfig, Duration, FixedBlocks, WorkBlock};
//! use pmu::HwEvent;
//!
//! let mut machine = Machine::new(MachineConfig::test_tiny(1));
//! let outcome = Monitor::new(&[HwEvent::LlcMiss], Duration::from_micros(100))
//!     .run(&mut machine, "app", Box::new(FixedBlocks::new(1_000, WorkBlock::compute(1_000, 2_670))))?;
//! println!("{} samples at 100us", outcome.samples.len());
//! # Ok::<(), kleb::MonitorError>(())
//! ```

mod api;
pub mod config;
mod controller;
mod governor;
mod module;
mod sample;

pub use api::{Monitor, MonitorError, MonitorOutcome};
pub use config::{ModuleStatus, MonitorConfig};
pub use controller::{RecoveryStats, SampleSink};
pub use governor::{GovernorStats, RatePolicy};
pub use module::{KlebModule, KlebTuning};
pub use sample::{Sample, RECORD_BYTES};
