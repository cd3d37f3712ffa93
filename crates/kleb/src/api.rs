//! High-level one-call monitoring API.
//!
//! [`Monitor`] wires the whole paper architecture together: it loads the
//! kernel module, spawns the target suspended on one core, spawns the
//! controller on another, runs the simulation to completion and hands back
//! the sample time series plus precise timing of the monitored process.
//!
//! ```
//! use kleb::{Monitor};
//! use ksim::{Machine, MachineConfig, Duration, FixedBlocks, WorkBlock};
//! use pmu::HwEvent;
//!
//! let mut machine = Machine::new(MachineConfig::test_tiny(11));
//! let outcome = Monitor::new(&[HwEvent::Load, HwEvent::Store], Duration::from_micros(500))
//!     .run(
//!         &mut machine,
//!         "demo",
//!         Box::new(FixedBlocks::new(5_000, WorkBlock::compute(1_000, 2_670))),
//!     )?;
//! assert!(!outcome.samples.is_empty());
//! # Ok::<(), kleb::MonitorError>(())
//! ```

use std::sync::{Arc, Mutex};

use pmu::HwEvent;

use ksim::{CoreId, Duration, Machine, ProcessInfo, SimError, Workload};

use crate::config::{ModuleStatus, MonitorConfig};
use crate::controller::{lock, shared_report, Controller, SampleSink};
use crate::governor::{GovernorStats, RateGovernor, RatePolicy};
use crate::module::{KlebModule, KlebTuning};
use crate::sample::Sample;

/// Errors from a monitoring session.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MonitorError {
    /// The simulation stalled or referenced a missing process.
    Sim(SimError),
    /// The controller failed during setup (bad config, missing target).
    Controller(String),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Sim(e) => write!(f, "simulation error: {e}"),
            MonitorError::Controller(msg) => write!(f, "controller error: {msg}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<SimError> for MonitorError {
    fn from(e: SimError) -> Self {
        MonitorError::Sim(e)
    }
}

/// Everything a completed monitoring session produced.
#[derive(Debug, Clone)]
pub struct MonitorOutcome {
    /// The per-period sample time series. Empty after
    /// [`Monitor::run_with_sink`], whose sink received every sample.
    pub samples: Vec<Sample>,
    /// Timing and ground-truth events of the monitored process.
    pub target: ProcessInfo,
    /// Final module status (pauses, totals).
    pub status: ModuleStatus,
    /// The events programmed on the programmable counters, in `pmc[i]`
    /// order.
    pub events: Vec<HwEvent>,
    /// Fault-recovery accounting from the controller (retries, kicks,
    /// degraded-mode escalations). All zero on a healthy machine.
    pub recovery: crate::controller::RecoveryStats,
    /// Rate-governor accounting. All zero when the session was ungoverned
    /// or the governor never saw pressure.
    pub governor: GovernorStats,
}

impl MonitorOutcome {
    /// Sums a programmable event across all samples.
    ///
    /// Returns `None` if `event` was not among the configured events.
    pub fn total_event(&self, event: HwEvent) -> Option<u64> {
        let i = self.events.iter().position(|&e| e == event)?;
        Some(self.samples.iter().map(|s| s.pmc[i]).sum())
    }

    /// Total instructions retired across all samples (fixed counter 0).
    pub fn total_instructions(&self) -> u64 {
        self.samples.iter().map(|s| s.instructions()).sum()
    }

    /// The per-sample series for one configured event.
    pub fn series(&self, event: HwEvent) -> Option<Vec<u64>> {
        let i = self.events.iter().position(|&e| e == event)?;
        Some(self.samples.iter().map(|s| s.pmc[i]).collect())
    }
}

/// The sink behind [`Monitor::run`] and [`Monitor::attach`]: its one
/// `Vec` moves, uncloned, into [`MonitorOutcome::samples`].
#[derive(Debug, Clone, Default)]
struct VecSink(Arc<Mutex<Vec<Sample>>>);

impl SampleSink for VecSink {
    fn on_batch(&mut self, samples: &[Sample]) {
        lock(&self.0).extend_from_slice(samples);
    }
}

/// Builder for a monitoring session.
#[derive(Debug, Clone)]
pub struct Monitor {
    events: Vec<HwEvent>,
    period: Duration,
    tuning: KlebTuning,
    track_children: bool,
    buffer_capacity: usize,
    count_kernel: bool,
    target_core: CoreId,
    controller_core: CoreId,
    drain_interval: Option<Duration>,
    resume_base: Option<(u64, u64)>,
    governor: Option<RatePolicy>,
    governed_resume_period: Option<Duration>,
}

impl Monitor {
    /// A session sampling `events` every `period`, with the paper-calibrated
    /// cost tuning, target on core 0 and controller on core 1.
    pub fn new(events: &[HwEvent], period: Duration) -> Self {
        Self {
            events: events.to_vec(),
            period,
            tuning: KlebTuning::default(),
            track_children: true,
            buffer_capacity: 8192,
            count_kernel: false,
            target_core: CoreId(0),
            controller_core: CoreId(1),
            drain_interval: None,
            resume_base: None,
            governor: None,
            governed_resume_period: None,
        }
    }

    /// Attaches a closed-loop sampling-rate governor: every status poll is
    /// folded into the AIMD law described in [`crate::governor`], and the
    /// period is retuned live through the acked `SET_PERIOD` path. The
    /// policy's base period should match (or floor at) the configured
    /// period; pass `RatePolicy::new(period.as_nanos())` for the default
    /// shape.
    pub fn govern(mut self, policy: RatePolicy) -> Self {
        self.governor = Some(policy);
        self
    }

    /// Resumes a *governed* session at a previously governed period
    /// (supervisor restart continuity): both the module's initial period
    /// and the governor's state start from `period` instead of the
    /// configured base. No-op unless [`Monitor::govern`] is also set.
    pub fn governed_resume_period(mut self, period: Duration) -> Self {
        self.governed_resume_period = Some(period);
        self
    }

    /// Overrides the module cost tuning.
    pub fn tuning(mut self, tuning: KlebTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Enables or disables fork-following.
    pub fn track_children(mut self, on: bool) -> Self {
        self.track_children = on;
        self
    }

    /// Sets the kernel buffer capacity in records.
    pub fn buffer_capacity(mut self, records: usize) -> Self {
        self.buffer_capacity = records;
        self
    }

    /// Also count ring-0 events attributed to the target.
    pub fn count_kernel(mut self, on: bool) -> Self {
        self.count_kernel = on;
        self
    }

    /// Overrides the controller's drain interval.
    pub fn drain_interval(mut self, interval: Duration) -> Self {
        self.drain_interval = Some(interval);
        self
    }

    /// Makes this session a **restart re-entry** continuing an interrupted
    /// stream: every sample is rebased by `seq_base` / `ts_base_ns` as it
    /// is decoded, and the first sample is flagged `gap` (whatever the
    /// dead incarnation had in flight is lost, and the ledger says so).
    /// Supervisors pass the last observed seq + 1 and the last observed
    /// timestamp so the merged series stays strictly ordered.
    pub fn resume_from(mut self, seq_base: u64, ts_base_ns: u64) -> Self {
        self.resume_base = Some((seq_base, ts_base_ns));
        self
    }

    /// Runs `workload` under monitoring to completion.
    ///
    /// The target is spawned suspended and woken only after the module is
    /// configured, so the samples cover its entire execution.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Sim`] if the simulation stalls;
    /// [`MonitorError::Controller`] if module setup fails.
    pub fn run(
        &self,
        machine: &mut Machine,
        name: &str,
        workload: Box<dyn Workload>,
    ) -> Result<MonitorOutcome, MonitorError> {
        let target = machine.spawn_suspended(name, self.target_core, workload);
        self.drive(machine, target, true, None)
    }

    /// Like [`Monitor::run`], but streams every drained batch into `sink`
    /// as monitoring progresses — the fleet-telemetry entry point. The
    /// sink is the only holder of the samples: the returned outcome's
    /// `samples` is empty, and its status, recovery and governor ledgers
    /// are those [`Monitor::run`] would report.
    ///
    /// # Errors
    ///
    /// Same as [`Monitor::run`].
    pub fn run_with_sink(
        &self,
        machine: &mut Machine,
        name: &str,
        workload: Box<dyn Workload>,
        sink: Box<dyn SampleSink>,
    ) -> Result<MonitorOutcome, MonitorError> {
        let target = machine.spawn_suspended(name, self.target_core, workload);
        self.drive(machine, target, true, Some(sink))
    }

    /// Attaches to an **already running** process and monitors it until it
    /// exits — the paper's non-intrusive scenario (§III): no restart, no
    /// source, monitoring starts mid-execution, so counts cover only the
    /// remainder of the run.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Sim`] if the simulation stalls;
    /// [`MonitorError::Controller`] if module setup fails (e.g. the pid
    /// does not exist).
    pub fn attach(
        &self,
        machine: &mut Machine,
        target: ksim::Pid,
    ) -> Result<MonitorOutcome, MonitorError> {
        self.drive(machine, target, false, None)
    }

    /// Runs the controller to completion, handing every batch to `sink`,
    /// or, without one, to a [`VecSink`] whose samples the outcome takes.
    fn drive(
        &self,
        machine: &mut Machine,
        target: ksim::Pid,
        resume_target: bool,
        sink: Option<Box<dyn SampleSink>>,
    ) -> Result<MonitorOutcome, MonitorError> {
        let device = machine.register_device(Box::new(KlebModule::with_tuning(self.tuning)));
        // A governed resume re-enters at the governed period, not the
        // configured base: the ring already proved it cannot sustain base.
        let start_period = match (self.governor.as_ref(), self.governed_resume_period) {
            (Some(_), Some(p)) => p,
            _ => self.period,
        };
        let mut cfg = MonitorConfig::new(target, &self.events, start_period);
        cfg.track_children = self.track_children;
        cfg.buffer_capacity = self.buffer_capacity;
        cfg.count_kernel = self.count_kernel;

        let report = shared_report();
        let drain = self
            .drain_interval
            .unwrap_or_else(|| Controller::default_drain_interval(self.period));
        let collected = VecSink::default();
        let sink = sink.unwrap_or_else(|| Box::new(collected.clone()));
        let mut controller_workload =
            Controller::new(device, cfg, target, drain, report.clone(), sink);
        if !resume_target {
            controller_workload = controller_workload.attach_running();
        }
        if let Some((seq_base, ts_base_ns)) = self.resume_base {
            controller_workload = controller_workload.resume_from(seq_base, ts_base_ns);
        }
        if let Some(policy) = self.governor {
            controller_workload = controller_workload
                .with_governor(RateGovernor::resumed(policy, start_period.as_nanos()));
        }
        let controller = machine.spawn(
            "kleb-ctl",
            self.controller_core,
            Box::new(controller_workload),
        );

        machine.run_until_exit(controller)?;

        let guard = lock(&report);
        if let Some(err) = &guard.error {
            return Err(MonitorError::Controller(err.clone()));
        }
        let mut samples = std::mem::take(&mut *lock(&collected.0));
        // The run is over: drop the slack of the sink's doubling growth.
        samples.shrink_to_fit();
        Ok(MonitorOutcome {
            samples,
            target: machine.process(target).clone(),
            status: guard.final_status.unwrap_or_default(),
            events: self.events.clone(),
            recovery: guard.recovery,
            governor: guard.governor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{FixedBlocks, MachineConfig, WorkBlock};

    fn quick_outcome(period_us: u64) -> MonitorOutcome {
        let mut machine = Machine::new(MachineConfig::test_tiny(9));
        Monitor::new(
            &[HwEvent::Load, HwEvent::LlcMiss],
            Duration::from_micros(period_us),
        )
        .tuning(KlebTuning::microarchitectural())
        .run(
            &mut machine,
            "t",
            Box::new(FixedBlocks::new(5_000, WorkBlock::compute(1_000, 2_670))),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_monitoring_produces_samples() {
        let outcome = quick_outcome(500);
        assert!(outcome.samples.len() > 5);
        assert_eq!(
            outcome.total_instructions(),
            5_000_000 + extra_instr(&outcome)
        );
        assert!(outcome.status.samples_taken >= outcome.samples.len() as u64);
        assert!(outcome.target.is_exited());
    }

    #[test]
    fn run_keeps_no_spare_sample_capacity() {
        // Long enough for several drains, so the sink's Vec grows.
        let mut machine = Machine::new(MachineConfig::test_tiny(9));
        let workload = FixedBlocks::new(20_000, WorkBlock::compute(1_000, 2_670));
        let outcome = Monitor::new(&[HwEvent::Load], Duration::from_micros(100))
            .run(&mut machine, "t", Box::new(workload))
            .unwrap();
        assert!(outcome.samples.len() > 500);
        assert_eq!(outcome.samples.capacity(), outcome.samples.len());
    }

    // FixedBlocks(compute) issues no loads, so the Load series is zero; the
    // "extra" instructions term is 0 here but kept explicit for clarity.
    fn extra_instr(_o: &MonitorOutcome) -> u64 {
        0
    }

    #[test]
    fn total_event_matches_truth() {
        let outcome = quick_outcome(500);
        assert_eq!(outcome.total_event(HwEvent::Load), Some(0));
        assert_eq!(outcome.total_event(HwEvent::Store), None, "not configured");
        assert_eq!(
            outcome.total_instructions(),
            outcome
                .target
                .true_user_events
                .get(HwEvent::InstructionsRetired)
        );
    }

    #[test]
    fn series_has_one_entry_per_sample() {
        let outcome = quick_outcome(500);
        let series = outcome.series(HwEvent::LlcMiss).unwrap();
        assert_eq!(series.len(), outcome.samples.len());
    }

    /// A governed session on a machine with `faults`: its machine,
    /// monitor and target program.
    fn governed_session(
        seed: u64,
        faults: ksim::FaultPlan,
    ) -> (Machine, Monitor, Box<dyn Workload>) {
        let mut cfg = MachineConfig::test_tiny(seed);
        cfg.faults = faults;
        let base = Duration::from_micros(100);
        // A run long enough for many live status polls (the governor only
        // acts at polls), with polls at every millisecond.
        let monitor = Monitor::new(&[HwEvent::LlcMiss], base)
            .tuning(KlebTuning::microarchitectural())
            .drain_interval(Duration::from_millis(1))
            .govern(crate::RatePolicy::new(base.as_nanos()));
        let workload = Box::new(FixedBlocks::new(30_000, WorkBlock::compute(1_000, 2_670)));
        (Machine::new(cfg), monitor, workload)
    }

    fn governed_outcome(seed: u64, pressure: f64) -> MonitorOutcome {
        let (mut machine, monitor, workload) =
            governed_session(seed, ksim::FaultPlan::ring_pressure(pressure));
        monitor.run(&mut machine, "t", workload).unwrap()
    }

    /// Keeps every batch a session hands its sink.
    #[derive(Debug, Clone, Default)]
    struct Capture(Arc<Mutex<Vec<Vec<Sample>>>>);

    impl SampleSink for Capture {
        fn on_batch(&mut self, samples: &[Sample]) {
            self.0.lock().unwrap().push(samples.to_vec());
        }
    }

    #[test]
    fn run_collects_exactly_the_batches_a_sink_sees() {
        // Chaos under a governor leaves every ledger nonzero.
        let faults = ksim::FaultPlan::chaos(0.3);
        let (mut machine, monitor, workload) = governed_session(5, faults);
        let collected = monitor.run(&mut machine, "t", workload).unwrap();
        let capture = Capture::default();
        let (mut machine, monitor, workload) = governed_session(5, faults);
        let streamed = monitor
            .run_with_sink(&mut machine, "t", workload, Box::new(capture.clone()))
            .unwrap();
        assert!(streamed.samples.is_empty(), "the sink holds the samples");
        let batches = capture.0.lock().unwrap();
        assert!(batches.len() > 1 && batches.iter().all(|b| !b.is_empty()));
        assert_eq!(batches.concat(), collected.samples);
        assert_eq!(streamed.status, collected.status);
        assert_eq!(streamed.recovery, collected.recovery);
        assert_eq!(streamed.governor, collected.governor);
        assert!(collected.status.samples_dropped > 0);
        assert!(collected.recovery.drain_retries > 0);
        assert!(collected.governor.retunes > 0);
    }

    #[test]
    fn governed_run_retunes_under_ring_pressure_and_acks_every_retune() {
        let outcome = governed_outcome(5, 0.5);
        let gov = outcome.governor;
        assert!(
            gov.retunes > 0,
            "50% ring pressure must drive retunes: {gov:?}"
        );
        assert_eq!(
            gov.acked, gov.retunes,
            "every retune lands via the acked ioctl"
        );
        assert!(
            gov.last_period_ns > 100_000,
            "the governed period must back off from base: {gov:?}"
        );
        assert!(
            outcome.samples.iter().any(|s| s.retune),
            "each acked retune stamps the next sample with the retune flag"
        );
    }

    #[test]
    fn governed_run_without_pressure_matches_ungoverned_byte_for_byte() {
        let governed = governed_outcome(9, 0.0);
        assert_eq!(governed.governor, crate::GovernorStats::default());
        let mut machine = Machine::new(MachineConfig::test_tiny(9));
        let base = Duration::from_micros(100);
        let plain = Monitor::new(&[HwEvent::LlcMiss], base)
            .tuning(KlebTuning::microarchitectural())
            .drain_interval(Duration::from_millis(1))
            .run(
                &mut machine,
                "t",
                Box::new(FixedBlocks::new(30_000, WorkBlock::compute(1_000, 2_670))),
            )
            .unwrap();
        assert_eq!(governed.samples, plain.samples);
        assert_eq!(governed.status, plain.status);
    }

    #[test]
    fn faster_period_takes_more_samples() {
        let fast = quick_outcome(200);
        let slow = quick_outcome(1000);
        assert!(
            fast.samples.len() > 2 * slow.samples.len(),
            "fast {} vs slow {}",
            fast.samples.len(),
            slow.samples.len()
        );
    }

    #[test]
    fn attach_to_running_process_covers_the_remainder() {
        use ksim::CoreId;
        let mut machine = Machine::new(MachineConfig::test_tiny(13));
        // A process that is already running: let it burn ~1ms first.
        let pid = machine.spawn(
            "running",
            CoreId(0),
            Box::new(FixedBlocks::new(4_000, WorkBlock::compute(1_000, 2_670))),
        );
        machine.run_until(ksim::Instant::from_nanos(1_000_000));
        let before = machine
            .process(pid)
            .true_user_events
            .get(HwEvent::InstructionsRetired);
        assert!(before > 0, "target did run before attach");

        let outcome = Monitor::new(&[HwEvent::Load], Duration::from_micros(200))
            .tuning(KlebTuning::microarchitectural())
            .attach(&mut machine, pid)
            .unwrap();
        let total = outcome
            .target
            .true_user_events
            .get(HwEvent::InstructionsRetired);
        // Monitoring starts mid-run: it sees the remainder, not the prefix.
        assert!(outcome.total_instructions() <= total - before + 2_000);
        assert!(outcome.total_instructions() > 0);
        assert!(outcome.target.is_exited());
    }

    #[test]
    fn attach_to_missing_process_errors() {
        let mut machine = Machine::new(MachineConfig::test_tiny(13));
        let err = Monitor::new(&[HwEvent::Load], Duration::from_millis(1))
            .attach(&mut machine, ksim::Pid(77))
            .unwrap_err();
        assert!(matches!(err, MonitorError::Controller(_)));
    }

    #[test]
    fn too_many_events_surface_as_controller_error() {
        let mut machine = Machine::new(MachineConfig::test_tiny(9));
        let err = Monitor::new(
            &[
                HwEvent::Load,
                HwEvent::Store,
                HwEvent::BranchRetired,
                HwEvent::BranchMiss,
                HwEvent::LlcMiss,
            ],
            Duration::from_millis(1),
        )
        .run(
            &mut machine,
            "t",
            Box::new(FixedBlocks::new(10, WorkBlock::compute(10, 10))),
        )
        .unwrap_err();
        assert!(matches!(err, MonitorError::Controller(_)));
    }
}
