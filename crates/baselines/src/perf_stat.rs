//! `perf stat` in interval mode (paper §II-B, §V).
//!
//! `perf stat -I <ms> <prog>` forks the program and wakes every interval to
//! read the virtualized counters and print a line. Two structural facts
//! drive its overhead in the paper:
//!
//! - the interval timer is a *user-space* timer, floored at 10 ms (§II-C) —
//!   perf cannot sample faster, which is the 100× gap to K-LEB;
//! - the perf process shares the machine with the workload (it forked it),
//!   so every interval wakeup preempts the workload for the read syscalls
//!   and the formatting/printing work, and the kernel pays per-context-
//!   switch counter virtualization on top (see
//!   [`crate::perf_kernel::PerfEventKernel`]).

use std::sync::{Arc, Mutex};

use pmu::HwEvent;

use ksim::{
    CoreId, DeviceId, Duration, ItemResult, Machine, Pid, Syscall, WorkBlock, WorkItem, Workload,
};

use crate::common::{ToolRun, ToolSample};
use crate::perf_kernel::{
    PerfCounts, PerfEventKernel, PerfKernelCosts, PerfOpenConfig, PERF_CLOSE, PERF_OPEN, PERF_READ,
};
use crate::ToolError;

/// perf's user-space interval floor (§II-C: "10 ms or slower").
const PERF_MIN_INTERVAL: Duration = Duration::from_millis(10);

/// Costs of the perf-stat user-space interval work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfStatCosts {
    /// Kernel infrastructure costs.
    pub kernel: PerfKernelCosts,
    /// User cycles per interval (value aggregation, formatting, printing).
    pub interval_user_cycles: u64,
    /// User instructions per interval.
    pub interval_user_instructions: u64,
    /// Extra kernel work per interval read beyond the plain read path
    /// (IPIs to sync remote counters, locking).
    pub interval_kernel_cycles: u64,
    /// One-time startup (fork/exec plumbing, event parsing).
    pub setup_cycles: u64,
}

impl Default for PerfStatCosts {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl PerfStatCosts {
    /// Effective costs derived from the paper's Tables II/III (see
    /// EXPERIMENTS.md).
    pub fn paper_calibrated() -> Self {
        Self {
            kernel: PerfKernelCosts::default(),
            interval_user_cycles: 1_250_000,
            interval_user_instructions: 1_000_000,
            interval_kernel_cycles: 160_000,
            setup_cycles: 3_200_000,
        }
    }

    /// First-principles microcost estimates.
    pub fn microarchitectural() -> Self {
        Self {
            kernel: PerfKernelCosts::default(),
            interval_user_cycles: 60_000,
            interval_user_instructions: 50_000,
            interval_kernel_cycles: 30_000,
            setup_cycles: 400_000,
        }
    }
}

#[derive(Debug, Default)]
struct PerfStatShared {
    samples: Vec<ToolSample>,
    final_counts: Option<PerfCounts>,
    error: Option<String>,
}

/// The `perf stat` process.
#[derive(Debug)]
struct PerfStatProcess {
    device: DeviceId,
    target: Pid,
    events: Vec<HwEvent>,
    interval: Duration,
    costs: PerfStatCosts,
    count_kernel: bool,
    shared: Arc<Mutex<PerfStatShared>>,
    phase: u32,
    last: Option<PerfCounts>,
    pending: Option<PerfCounts>,
}

impl PerfStatProcess {
    fn open_payload(&self) -> Vec<u8> {
        PerfOpenConfig {
            target: self.target.0,
            events: self.events.iter().map(|e| e.code()).collect(),
            count_kernel: self.count_kernel,
            track_children: true,
        }
        .encode()
    }
}

const PH_SETUP: u32 = 0;
const PH_OPEN: u32 = 1;
const PH_RESUME: u32 = 2;
const PH_SLEEP: u32 = 3;
const PH_READ: u32 = 4;
const PH_FORMAT: u32 = 5;
const PH_CLOSE: u32 = 6;
const PH_DONE: u32 = 7;

impl Workload for PerfStatProcess {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        loop {
            match self.phase {
                PH_SETUP => {
                    self.phase = PH_OPEN;
                    return Some(WorkItem::Block(WorkBlock::compute(
                        self.costs.setup_cycles * 4 / 5,
                        self.costs.setup_cycles,
                    )));
                }
                PH_OPEN => {
                    self.phase = PH_RESUME;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_OPEN,
                        payload: self.open_payload(),
                    }));
                }
                PH_RESUME => {
                    if let Some(r) = prev.retval() {
                        if r != 0 {
                            self.shared.lock().unwrap().error =
                                Some(format!("perf_event_open failed: {r}"));
                            self.phase = PH_DONE;
                            return None;
                        }
                    }
                    self.phase = PH_SLEEP;
                    return Some(WorkItem::Syscall(Syscall::Resume(self.target)));
                }
                PH_SLEEP => {
                    self.phase = PH_READ;
                    return Some(WorkItem::Sleep(self.interval));
                }
                PH_READ => {
                    self.phase = PH_FORMAT;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_READ,
                        payload: Vec::new(),
                    }));
                }
                PH_FORMAT => {
                    let counts = match prev {
                        ItemResult::Syscall { payload, .. } => PerfCounts::decode(payload),
                        _ => None,
                    };
                    let Some(counts) = counts else {
                        self.shared.lock().unwrap().error = Some("perf read failed".into());
                        self.phase = PH_DONE;
                        return None;
                    };
                    self.pending = Some(counts);
                    self.phase = PH_CLOSE; // provisional; CLOSE phase decides
                                           // Interval work: aggregate + format + print, plus the
                                           // kernel-side IPI/synchronization tax of the read
                                           // (charged as part of the perf process's occupancy of
                                           // the shared core).
                    return Some(WorkItem::Block(WorkBlock::compute(
                        self.costs.interval_user_instructions,
                        self.costs.interval_user_cycles + self.costs.interval_kernel_cycles,
                    )));
                }
                PH_CLOSE => {
                    let counts = self.pending.take().expect("set in PH_FORMAT");
                    // Record the interval delta as a sample.
                    {
                        let mut shared = self.shared.lock().unwrap();
                        let delta_events: Vec<u64> = match &self.last {
                            Some(last) => counts
                                .events
                                .iter()
                                .zip(&last.events)
                                .map(|(now, then)| now.saturating_sub(*then))
                                .collect(),
                            None => counts.events.clone(),
                        };
                        let delta_instr = match &self.last {
                            Some(last) => counts.fixed[0].saturating_sub(last.fixed[0]),
                            None => counts.fixed[0],
                        };
                        shared.samples.push(ToolSample {
                            timestamp_ns: 0, // filled by the runner if needed
                            values: delta_events,
                            instructions: delta_instr,
                        });
                        if !counts.target_alive {
                            shared.final_counts = Some(counts.clone());
                        }
                    }
                    let alive = counts.target_alive;
                    self.last = Some(counts);
                    if alive {
                        self.phase = PH_SLEEP;
                        continue;
                    }
                    self.phase = PH_DONE;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_CLOSE,
                        payload: Vec::new(),
                    }));
                }
                _ => return None,
            }
        }
    }
}

/// Runs `workload` under `perf stat` on `machine`.
///
/// The target runs on core 0 and the perf process shares that core, as
/// `perf stat <prog>` does. The requested period is clamped to perf's 10 ms
/// floor.
///
/// # Errors
///
/// [`ToolError`] if the simulation stalls or perf setup fails.
pub fn run_perf_stat(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    period: Duration,
    costs: PerfStatCosts,
    count_kernel: bool,
) -> Result<ToolRun, ToolError> {
    let effective = period.max(PERF_MIN_INTERVAL);
    let device = machine.register_device(Box::new(PerfEventKernel::new(costs.kernel)));
    let target = machine.spawn_suspended(name, CoreId(0), workload);
    let shared = Arc::new(Mutex::new(PerfStatShared::default()));
    let perf = machine.spawn(
        "perf-stat",
        CoreId(0),
        Box::new(PerfStatProcess {
            device,
            target,
            events: events.to_vec(),
            interval: effective,
            costs,
            count_kernel,
            shared: shared.clone(),
            phase: PH_SETUP,
            last: None,
            pending: None,
        }),
    );
    machine.run_until_exit(perf).map_err(ToolError::Sim)?;
    let guard = shared.lock().unwrap();
    if let Some(err) = &guard.error {
        return Err(ToolError::Tool(err.clone()));
    }
    let final_counts = guard
        .final_counts
        .clone()
        .ok_or_else(|| ToolError::Tool("perf stat never saw target exit".into()))?;
    Ok(ToolRun {
        tool: "perf stat",
        target: machine.process(target).clone(),
        event_totals: events
            .iter()
            .copied()
            .zip(final_counts.events.iter().copied())
            .collect(),
        fixed_totals: final_counts.fixed,
        samples: guard.samples.clone(),
        requested_period: period,
        effective_period: effective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    fn run(period_ms: u64) -> ToolRun {
        let mut machine = Machine::new(MachineConfig::test_tiny(4));
        run_perf_stat(
            &mut machine,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(80))),
            &[HwEvent::Load, HwEvent::BranchRetired],
            Duration::from_millis(period_ms),
            PerfStatCosts::microarchitectural(),
            true,
        )
        .unwrap()
    }

    #[test]
    fn counts_match_truth_closely() {
        let run = run(10);
        let err = run
            .relative_error(HwEvent::BranchRetired, true)
            .expect("branches counted");
        assert!(err < 0.01, "perf stat error {err}");
        // Instructions via fixed counter.
        let truth = run
            .target
            .true_user_events
            .get(HwEvent::InstructionsRetired)
            + run
                .target
                .true_kernel_events
                .get(HwEvent::InstructionsRetired);
        let diff = (run.fixed_totals[0] as f64 - truth as f64).abs() / truth as f64;
        assert!(diff < 0.01, "instruction error {diff}");
    }

    #[test]
    fn interval_floor_is_enforced() {
        let run = run(1); // ask for 1ms
        assert_eq!(run.effective_period, PERF_MIN_INTERVAL);
    }

    #[test]
    fn produces_interval_samples() {
        let run = run(10);
        // ~80ms of work at 10ms intervals → at least 5 interval samples.
        assert!(run.samples.len() >= 5, "{} samples", run.samples.len());
    }

    #[test]
    fn perf_slows_the_target() {
        // Baseline without profiling.
        let mut m0 = Machine::new(MachineConfig::test_tiny(4));
        let pid = m0.spawn(
            "t",
            CoreId(0),
            Box::new(Synthetic::cpu_bound(Duration::from_millis(80))),
        );
        let baseline = m0.run_until_exit(pid).unwrap().wall_time();
        let monitored = run(10).wall_time();
        assert!(
            monitored > baseline,
            "perf stat must add overhead: {baseline} -> {monitored}"
        );
    }
}
