//! Fleet telemetry pipeline: many K-LEB monitors, one collector.
//!
//! The paper demonstrates low-overhead, high-frequency monitoring of one
//! process on one machine. This crate scales that architecture out:
//! [`FleetRunner`] drives N independent simulated machines on OS
//! threads, each with its own seeded RNG, workload, and K-LEB monitor;
//! their sample batches stream through one lock-free SPSC ring per
//! machine ([`ingest`]) with an explicit [`Backpressure`] policy into a
//! sharded [`FleetStore`], where
//! windowed queries and the [`detect`] fan-in pass operate across the
//! fleet. The pipeline observes itself through [`FleetMetrics`], a
//! summary of each run's reports, and the [`governor`] module can hold
//! the whole fleet inside an aggregate sampling budget while each
//! machine's AIMD loop rides out its own pressure bursts.
//!
//! Under [`Backpressure::Block`] every digested result is a function of
//! the seeds alone: machines stamp samples in simulated time, a panicked
//! machine restarts at once, and host time reaches only
//! [`FleetOutcome::elapsed`] and the drain latency in [`FleetMetrics`],
//! neither of which is digested.
//!
//! ```
//! use fleet::{FleetConfig, FleetRunner, MachineSpec};
//! use ksim::{Duration, FixedBlocks, MachineConfig, WorkBlock};
//! use pmu::HwEvent;
//!
//! let config = FleetConfig::builder(&[HwEvent::LlcMiss], Duration::from_micros(500))
//!     .machine(MachineConfig::test_tiny)
//!     .build();
//! let specs = (0..3)
//!     .map(|i| {
//!         MachineSpec::new(format!("m{i}"), 7 + i, |_seed| {
//!             Box::new(FixedBlocks::new(2_000, WorkBlock::compute(1_000, 2_670))) as _
//!         })
//!     })
//!     .collect();
//! let outcome = FleetRunner::new(config).run(specs)?;
//! assert_eq!(outcome.machines.len(), 3);
//! assert_eq!(outcome.channel.total_dropped(), 0);
//! # Ok::<(), fleet::FleetError>(())
//! ```

pub mod detect;
pub mod governor;
pub mod ingest;
pub(crate) mod ksync;
pub mod metrics;
pub mod runner;
pub mod store;
pub mod supervisor;

pub use detect::{scan_fleet, verdict_table, AnomalyConfig, FleetAnomalyReport, MachineVerdict};
pub use governor::{GovernorPolicy, GovernorReport};
pub use ingest::{ring_fanin, Backpressure, ChannelStats, Polled, RingCollector, RingSender};
pub use metrics::{FleetMetrics, LatencyHistogram};
pub use runner::{
    FleetConfig, FleetConfigBuilder, FleetError, FleetOutcome, FleetRunner, MachineReport,
    MachineSpec, WorkloadFactory,
};
pub use store::{FleetStore, Lane, MachineSnapshot, Point, StoreStats, Window};
pub use supervisor::{
    panic_message, BreakerState, CircuitBreaker, FailureKind, HealthReport, MachineFailure,
    SupervisedRun, SupervisorPolicy,
};
