//! The comparison tools from the K-LEB paper, implemented by mechanism.
//!
//! The paper's Tables II/III and Figs. 8/9 compare K-LEB against four
//! established performance-counter tools. Each is reproduced here as its
//! *mechanism*, not as a scripted overhead number:
//!
//! | Tool | Mechanism | Paper's critique |
//! |------|-----------|------------------|
//! | [`perf_stat`] | user-space interval timer (10 ms floor) + per-switch counter virtualization + read syscalls | high overhead, slow timer |
//! | [`perf_record`] | PMU-overflow interrupts (PMI) per sample | estimated counts |
//! | [`papi`] | source instrumentation, syscall per read | needs source, expensive syscalls |
//! | [`limit`] | kernel patch, user-space `rdpmc` reads | needs a kernel patch/reboot |
//!
//! [`run_tool`] dispatches a uniform [`ToolSpec`] so harnesses can sweep all
//! tools; [`run_unmonitored`] provides the no-profiling baseline.

mod common;
mod kleb_tool;
mod limit;
#[cfg(test)]
mod malformed;
mod papi;
mod perf_kernel;
mod perf_record;
mod perf_stat;

pub use common::{overhead_percent, ToolRun, ToolSample};
pub use kleb_tool::run_kleb;
pub use limit::{run_limit, LimitCosts};
pub use papi::{run_papi, PapiCosts};
pub use perf_kernel::{PerfEventKernel, PerfKernelCosts};
pub use perf_record::{run_perf_record, PerfRecordCosts};
pub use perf_stat::{run_perf_stat, PerfStatCosts};

use pmu::HwEvent;

use kleb::KlebTuning;
use ksim::{CoreId, Duration, Machine, SimError, Workload};

/// Errors from running a tool harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ToolError {
    /// The simulation stalled.
    Sim(SimError),
    /// The tool itself failed (bad config, setup error).
    Tool(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Sim(e) => write!(f, "simulation error: {e}"),
            ToolError::Tool(msg) => write!(f, "tool error: {msg}"),
        }
    }
}

impl std::error::Error for ToolError {}

/// Which tool to run, with its cost profile.
#[derive(Debug, Clone)]
pub enum ToolSpec {
    /// No profiling at all — the overhead baseline.
    None,
    /// K-LEB.
    Kleb(KlebTuning),
    /// `perf stat` in interval mode. The `bool` is `count_kernel`.
    PerfStat(PerfStatCosts, bool),
    /// `perf record` sampling mode. The `bool` is `count_kernel`.
    PerfRecord(PerfRecordCosts, bool),
    /// PAPI instrumentation reading every `read_every` work blocks.
    Papi(PapiCosts, u64),
    /// LiMiT instrumentation reading every `read_every` work blocks.
    Limit(LimitCosts, u64),
}

impl ToolSpec {
    /// All five tools with paper-calibrated costs, instrumented variants at
    /// `read_every` blocks per read.
    pub fn all_calibrated(read_every: u64) -> Vec<ToolSpec> {
        vec![
            ToolSpec::Kleb(KlebTuning::paper_calibrated()),
            ToolSpec::PerfStat(PerfStatCosts::paper_calibrated(), false),
            ToolSpec::PerfRecord(PerfRecordCosts::paper_calibrated(), false),
            ToolSpec::Papi(PapiCosts::paper_calibrated(), read_every),
            ToolSpec::Limit(LimitCosts::paper_calibrated(), read_every),
        ]
    }

    /// The tool's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ToolSpec::None => "No profiling",
            ToolSpec::Kleb(_) => "K-LEB",
            ToolSpec::PerfStat(..) => "perf stat",
            ToolSpec::PerfRecord(..) => "perf record",
            ToolSpec::Papi(..) => "PAPI",
            ToolSpec::Limit(..) => "LiMiT",
        }
    }
}

/// Runs `workload` bare (no monitoring) and reports it as a [`ToolRun`]
/// with empty counts.
///
/// # Errors
///
/// [`ToolError::Sim`] if the simulation stalls.
pub fn run_unmonitored(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
) -> Result<ToolRun, ToolError> {
    let pid = machine.spawn(name, CoreId(0), workload);
    let info = machine.run_until_exit(pid).map_err(ToolError::Sim)?;
    Ok(ToolRun {
        tool: "No profiling",
        target: info,
        event_totals: Vec::new(),
        fixed_totals: [0; 3],
        samples: Vec::new(),
        requested_period: Duration::ZERO,
        effective_period: Duration::ZERO,
    })
}

/// Runs `workload` under `spec` on `machine`.
///
/// # Errors
///
/// Propagates the underlying tool's [`ToolError`].
pub fn run_tool(
    spec: &ToolSpec,
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    period: Duration,
) -> Result<ToolRun, ToolError> {
    match spec {
        ToolSpec::None => run_unmonitored(machine, name, workload),
        ToolSpec::Kleb(tuning) => run_kleb(machine, name, workload, events, period, *tuning),
        ToolSpec::PerfStat(costs, count_kernel) => run_perf_stat(
            machine,
            name,
            workload,
            events,
            period,
            *costs,
            *count_kernel,
        ),
        ToolSpec::PerfRecord(costs, count_kernel) => run_perf_record(
            machine,
            name,
            workload,
            events,
            period,
            *costs,
            *count_kernel,
        ),
        ToolSpec::Papi(costs, read_every) => {
            run_papi(machine, name, workload, events, *read_every, period, *costs)
        }
        ToolSpec::Limit(costs, read_every) => {
            run_limit(machine, name, workload, events, *read_every, period, *costs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    #[test]
    fn dispatcher_runs_every_tool() {
        let events = [HwEvent::Load, HwEvent::BranchRetired];
        let specs = [
            ToolSpec::None,
            ToolSpec::Kleb(KlebTuning::microarchitectural()),
            ToolSpec::PerfStat(PerfStatCosts::microarchitectural(), true),
            ToolSpec::PerfRecord(PerfRecordCosts::microarchitectural(), false),
            ToolSpec::Papi(PapiCosts::microarchitectural(), 100),
            ToolSpec::Limit(LimitCosts::microarchitectural(), 100),
        ];
        for spec in &specs {
            let mut machine = Machine::new(MachineConfig::test_tiny(21));
            let run = run_tool(
                spec,
                &mut machine,
                "t",
                Box::new(Synthetic::cpu_bound(Duration::from_millis(30))),
                &events,
                Duration::from_millis(10),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
            assert_eq!(run.tool, spec.name());
            assert!(run.target.is_exited());
        }
    }

    #[test]
    fn every_tool_adds_overhead_over_baseline() {
        let events = [HwEvent::Load];
        let baseline = {
            let mut machine = Machine::new(MachineConfig::test_tiny(21));
            run_unmonitored(
                &mut machine,
                "t",
                Box::new(Synthetic::cpu_bound(Duration::from_millis(30))),
            )
            .unwrap()
            .wall_time()
        };
        for spec in ToolSpec::all_calibrated(100) {
            let mut machine = Machine::new(MachineConfig::test_tiny(21));
            let run = run_tool(
                &spec,
                &mut machine,
                "t",
                Box::new(Synthetic::cpu_bound(Duration::from_millis(30))),
                &events,
                Duration::from_millis(10),
            )
            .unwrap();
            assert!(
                run.wall_time() > baseline,
                "{}: {} !> {}",
                spec.name(),
                run.wall_time(),
                baseline
            );
        }
    }
}
