//! Discrete-event CPU + kernel simulator for the K-LEB reproduction.
//!
//! This crate supplies everything a performance-monitoring tool interacts
//! with on a real Linux machine, in simulated form:
//!
//! - [`Machine`]: multi-core execution engine with a [`pmu::Pmu`] per
//!   core, one [`memsim::Hierarchy`] of private L1d/L2 pairs over a shared
//!   LLC, a physical address space per process tree, a preemptive
//!   round-robin scheduler, and a deterministic discrete-event queue;
//! - [`Workload`]: the program model — compute blocks with memory-access
//!   patterns, syscalls, `rdpmc` reads, sleeps, and child spawning;
//! - [`Device`]: loadable-kernel-module interface with ioctl/read entry
//!   points and kprobe-style hooks (context switch, timer, PMI, process
//!   lifecycle) — exactly the surface the real K-LEB module uses;
//! - [`hrtimer`]: high-resolution kernel timers with a seeded jitter model
//!   (§VI of the paper discusses why jitter bounds usable sampling rates);
//! - [`CostModel`]: calibrated cycle charges for syscalls, context switches,
//!   interrupts and MSR access, so tool overhead *emerges* from mechanism
//!   usage;
//! - [`wire`]: the one little-endian format of every ioctl and `read`
//!   payload, and its bounds-checked reader.
//!
//! # Example: run a workload and observe its instruction count
//!
//! ```
//! use ksim::{Machine, MachineConfig, CoreId, FixedBlocks, WorkBlock};
//!
//! let mut machine = Machine::new(MachineConfig::test_tiny(7));
//! let pid = machine.spawn(
//!     "demo",
//!     CoreId(0),
//!     Box::new(FixedBlocks::new(10, WorkBlock::compute(1_000, 900))),
//! );
//! let info = machine.run_until_exit(pid)?;
//! assert_eq!(info.true_user_events.get(pmu::HwEvent::InstructionsRetired), 10_000);
//! # Ok::<(), ksim::SimError>(())
//! ```

pub mod cost;
pub mod device;
pub mod event;
pub mod faults;
pub mod hrtimer;
pub mod machine;
pub mod process;
pub mod time;
pub mod wire;
pub mod workload;

pub use cost::CostModel;
pub use device::{Device, DeviceId, Errno};
pub use faults::{FaultClass, FaultPlan};
pub use hrtimer::{JitterModel, TimerId};
pub use machine::{DramModel, KernelCtx, Machine, MachineConfig, SimError};
pub use process::{CoreId, Pid, ProcessInfo, ProcessState};
pub use time::{CpuFreq, Duration, Instant};
pub use workload::{FixedBlocks, ItemResult, Syscall, WorkBlock, WorkItem, Workload};
