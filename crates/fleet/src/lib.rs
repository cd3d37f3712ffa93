//! Fleet telemetry pipeline: many K-LEB monitors, one sample store.
//!
//! The paper demonstrates low-overhead, high-frequency monitoring of one
//! process on one machine. This crate scales that architecture out:
//! [`FleetRunner`] runs N independent simulated machines, each with its
//! own seeded RNG, workload, and K-LEB monitor, to completion on a
//! deterministic pool of at most one worker per host core (the calling
//! thread is one of them). When every machine has finished, its samples
//! go into its shard of a [`FleetStore`], where windowed queries and the
//! [`detect`] fan-in pass operate across the fleet. The pipeline observes
//! itself through [`FleetMetrics`], a summary of each run's reports, and
//! the [`governor`] module can hold the whole fleet inside an aggregate
//! sampling budget while each machine's AIMD loop rides out its own
//! pressure bursts.
//!
//! Every digested result is a function of the seeds alone, whatever the
//! pool's width: machines stamp samples in simulated time, a panicked
//! machine restarts at once, the outcome is assembled in spec order, and
//! host time reaches only [`FleetOutcome::elapsed`], which is not
//! digested. The [`ingest`] ring fan-in is a standalone transport that
//! the runner does not use.
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
pub use metrics::FleetMetrics;
pub use runner::{
    FleetConfig, FleetConfigBuilder, FleetError, FleetOutcome, FleetRunner, MachineReport,
    MachineSpec, WorkloadFactory,
};
pub use store::{FleetStore, Lane, MachineSnapshot, Point, StoreStats, Window};
pub use supervisor::{
    panic_message, BreakerState, CircuitBreaker, FailureKind, HealthReport, MachineFailure,
    SupervisedRun, SupervisorPolicy,
};
