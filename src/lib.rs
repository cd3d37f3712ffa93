//! # kleb-repro — umbrella crate for the K-LEB reproduction
//!
//! Reproduction of *"High Frequency Performance Monitoring via
//! Architectural Event Measurement"* (IISWC 2020). This crate re-exports
//! the workspace so downstream users can depend on one crate:
//!
//! - [`kleb`] — the paper's system: kernel module, controller, and the
//!   one-call [`kleb::Monitor`] API;
//! - [`ksim`] — the simulated machine (CPU, kernel, scheduler, timers);
//! - [`pmu`] — the performance-monitoring-unit model;
//! - [`memsim`] — the cache hierarchy;
//! - [`workloads`] — the paper's benchmark programs;
//! - [`baselines`] — perf stat / perf record / PAPI / LiMiT;
//! - [`analysis`] — statistics, metrics, phase/anomaly detection;
//! - [`fleet`] — many monitors, one collector: the scaled-out pipeline,
//!   supervision, and the closed-loop sampling-rate [`fleet::governor`];
//! - [`ktrace`] — columnar trace store with deterministic record/replay;
//! - [`kchan`] — lock-free SPSC sample rings; no ring sits on the fleet's
//!   path, which ingests each machine's samples at join.
//!
//! See the repository README for a quickstart and EXPERIMENTS.md for the
//! paper-vs-measured record.
//!
//! Single-machine session:
//!
//! ```
//! use kleb_repro::prelude::*;
//!
//! let mut machine = Machine::new(MachineConfig::test_tiny(1));
//! let outcome = Monitor::new(&[HwEvent::LlcMiss], Duration::from_millis(1))
//!     .run(&mut machine, "app", Box::new(Synthetic::cpu_bound(Duration::from_millis(5))))?;
//! assert!(!outcome.samples.is_empty());
//! # Ok::<(), kleb_repro::Error>(())
//! ```
//!
//! Governed fleet session — three machines under one sampling budget:
//!
//! ```
//! use kleb_repro::prelude::*;
//! use ksim::{FixedBlocks, WorkBlock};
//!
//! let config = FleetConfig::builder(&[HwEvent::LlcMiss], Duration::from_micros(500))
//!     .machine(MachineConfig::test_tiny)
//!     .govern(GovernorPolicy::new().budget(4_000))
//!     .build();
//! let specs = (0..3)
//!     .map(|i| {
//!         MachineSpec::new(format!("m{i}"), 7 + i, |_seed| {
//!             Box::new(FixedBlocks::new(2_000, WorkBlock::compute(1_000, 2_670))) as _
//!         })
//!     })
//!     .collect();
//! let outcome = FleetRunner::new(config).run(specs)?;
//! assert_eq!(outcome.governors.len(), 3);
//! # Ok::<(), kleb_repro::Error>(())
//! ```

pub use analysis;
pub use baselines;
pub use fleet;
pub use kchan;
pub use kleb;
pub use ksim;
pub use ktrace;
pub use memsim;
pub use pmu;
pub use workloads;

/// The most common imports for monitoring sessions.
pub mod prelude {
    pub use analysis::{mpki, EwmaDetector, IntensityClass};
    pub use fleet::{FleetConfig, FleetOutcome, FleetRunner, GovernorPolicy, MachineSpec};
    pub use kleb::{Monitor, MonitorOutcome, Sample};
    pub use ksim::{CoreId, Duration, Instant, Machine, MachineConfig, Pid};
    pub use ktrace::TraceReader;
    pub use pmu::HwEvent;
    pub use workloads::{Dgemm, DockerImage, Linpack, Matmul, Synthetic};
}

/// Any error the workspace can surface, for callers that mix layers.
///
/// Each subsystem keeps its own error enum ([`kleb::MonitorError`],
/// [`fleet::FleetError`], [`ktrace::TraceError`]); this type exists so a
/// `main` that monitors, records, and replays can use one `?` throughout
/// instead of `Box<dyn Error>`. All the source enums are
/// `#[non_exhaustive]`, and so is this one.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A single-machine monitoring session failed.
    Monitor(kleb::MonitorError),
    /// A fleet run failed.
    Fleet(fleet::FleetError),
    /// A trace could not be written, opened, or replayed.
    Trace(ktrace::TraceError),
    /// The simulator itself failed outside a monitoring session (e.g. an
    /// unmonitored baseline run stalled).
    Sim(ksim::SimError),
    /// A baseline tool adapter failed.
    Tool(baselines::ToolError),
    /// Plain filesystem I/O outside the trace layer (examples listing
    /// output directories, etc.).
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Monitor(e) => write!(f, "{e}"),
            Error::Fleet(e) => write!(f, "{e}"),
            Error::Trace(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "simulation error: {e}"),
            Error::Tool(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Monitor(e) => Some(e),
            Error::Fleet(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Tool(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<kleb::MonitorError> for Error {
    fn from(e: kleb::MonitorError) -> Self {
        Error::Monitor(e)
    }
}

impl From<fleet::FleetError> for Error {
    fn from(e: fleet::FleetError) -> Self {
        Error::Fleet(e)
    }
}

impl From<ktrace::TraceError> for Error {
    fn from(e: ktrace::TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<ksim::SimError> for Error {
    fn from(e: ksim::SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<baselines::ToolError> for Error {
    fn from(e: baselines::ToolError) -> Self {
        Error::Tool(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
