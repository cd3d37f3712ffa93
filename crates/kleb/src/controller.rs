//! The user-space controller process.
//!
//! The controller (paper Fig. 1, "Controller Process") configures the kernel
//! module, starts monitoring, wakes the target, then loops: sleep → `read()`
//! the kernel buffer → decode and log the records in user space. Logging
//! lives here because "kernel developers highly recommend against directly
//! accessing files in kernel space" (§III) — the module only buffers.
//!
//! The controller is itself a simulated process: its drains are real
//! syscalls with real costs, and its logging is user-mode compute — on its
//! own core, which is precisely why K-LEB's overhead on the monitored core
//! stays low.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ksim::{DeviceId, Duration, Errno, ItemResult, Pid, Syscall, WorkBlock, WorkItem, Workload};

use crate::config::{
    ModuleStatus, MonitorConfig, IOCTL_CONFIG, IOCTL_KICK, IOCTL_SET_PERIOD, IOCTL_START,
    IOCTL_STATUS, IOCTL_STOP,
};
use crate::governor::{GovernorStats, PressureSample, RateDecision, RateGovernor};
use crate::sample::{Sample, RECORD_BYTES};

/// Receives every drained sample batch as it leaves the kernel buffer.
///
/// The sink is the only way samples leave a monitor: the controller keeps
/// no copy of its own. A sink sees batches in drain order, exactly once,
/// on the thread driving the simulation. Implementations must be cheap —
/// they run inside the controller's logging step.
pub trait SampleSink: Send + std::fmt::Debug {
    /// Called once per non-empty drain with the decoded records.
    fn on_batch(&mut self, samples: &[Sample]);

    /// Called once after the final drain, when no more batches will follow.
    fn on_complete(&mut self) {}

    /// Called when the module acks a governor retune: `period_ns` is now
    /// in effect. Supervisors use this to restart a crashed machine at its
    /// governed period rather than the configured one.
    fn on_retune(&mut self, seq: u64, period_ns: u64) {
        let _ = (seq, period_ns);
    }
}

/// What the controller did to survive a degraded machine: every retry,
/// kick and period escalation is counted here so chaos runs can prove the
/// degradation was bounded and accounted, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// `read()` drains that came back `EAGAIN` and were retried with
    /// backoff.
    pub drain_retries: u64,
    /// Drains abandoned after the per-drain retry budget ran out (the
    /// records stay buffered for the next round).
    pub drains_abandoned: u64,
    /// `IOCTL_KICK`s issued after `samples_taken` froze between polls.
    pub kicks: u64,
    /// Kicks the module confirmed repaired a stalled timer.
    pub kicks_honoured: u64,
    /// Degraded-mode period doublings issued via `IOCTL_SET_PERIOD`.
    pub period_doublings: u32,
    /// Latched true the first time drop pressure pushed the controller
    /// into degraded mode.
    pub degraded: bool,
}

/// Shared result channel between the controller process and the host code
/// that spawned it: the controller's ledgers. Samples go to the sink.
#[derive(Debug, Default)]
pub(crate) struct ControllerReport {
    /// The final module status after STOP.
    pub final_status: Option<ModuleStatus>,
    /// Fatal setup error (failed ioctl), if any.
    pub error: Option<String>,
    /// Fault-recovery accounting (all zero on a healthy machine).
    pub recovery: RecoveryStats,
    /// Rate-governor accounting (all zero when ungoverned or never
    /// pressured).
    pub governor: GovernorStats,
}

/// Handle to a [`ControllerReport`] shared with a running controller.
pub(crate) type SharedReport = Arc<Mutex<ControllerReport>>;

/// Creates an empty shared report.
pub(crate) fn shared_report() -> SharedReport {
    Arc::new(Mutex::new(ControllerReport::default()))
}

/// Locks a report or sample buffer shared with a controller, recovering
/// from poisoning: a panic elsewhere must not cascade into the
/// controller, and the data stays valid (each update is one write under
/// the lock).
pub(crate) fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-record user-space logging cost (format + write to the log file,
/// amortized): instructions and cycles charged as a compute block on the
/// controller's core after each drain.
const LOG_INSTRUCTIONS_PER_RECORD: u64 = 120;
const LOG_CYCLES_PER_RECORD: u64 = 220;

/// Retries per drain before giving up until the next round.
const MAX_DRAIN_RETRIES: u32 = 4;
/// Retries for the post-STOP drain loop: generous, because abandoned
/// records here would be lost for good (`drained + dropped == taken` must
/// still balance after a chaotic run).
const MAX_FINAL_DRAIN_RETRIES: u32 = 64;
/// Degraded-mode trigger: more than this many new drops between two
/// status polls means the machine cannot sustain the current period.
const DEGRADE_DROP_THRESHOLD: u64 = 4;
/// Bound on degraded-mode escalations (8x the original period at most).
const MAX_PERIOD_DOUBLINGS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Config,
    Start,
    Resume,
    Sleep,
    Drain,
    Log { drained: usize },
    Status,
    Stop,
    AfterKick,
    AfterSetPeriod,
    AfterRetune { seq: u64, period_ns: u64 },
    FinalDrain,
    FinalStatus,
    Done,
}

/// The controller workload.
///
/// Drive it with [`ksim::Machine::spawn`] on a different core than the
/// target; read its ledgers from the [`SharedReport`] after it exits.
#[derive(Debug)]
pub(crate) struct Controller {
    device: DeviceId,
    cfg: MonitorConfig,
    target: Pid,
    resume_target: bool,
    drain_interval: Duration,
    report: SharedReport,
    sink: Box<dyn SampleSink>,
    phase: Phase,
    /// EAGAIN retries consumed for the drain in flight.
    drain_attempt: u32,
    /// EAGAIN retries consumed by the post-STOP drain loop.
    final_attempt: u32,
    /// `samples_taken` at the previous status poll (stall detector).
    last_taken: Option<u64>,
    /// `samples_dropped` at the previous status poll (degrade detector).
    last_dropped: u64,
    /// `pauses` at the previous status poll (governor pressure signal).
    last_pauses: u64,
    /// Period doublings issued so far.
    doublings: u32,
    /// Closed-loop rate governor; `None` keeps the legacy degraded-mode
    /// doubling as the only period control.
    governor: Option<RateGovernor>,
    /// Rebase applied to every decoded sample (restart re-entry). `None`
    /// for a first run — the zero-cost common case.
    resume_base: Option<ResumeBase>,
}

/// Sequence/timestamp rebase for a monitor re-entered after a crash: the
/// restarted module restarts its `seq` space at 0 and its timestamps near
/// machine power-on, but the *stream* this controller feeds continues an
/// older one. Rebasing on decode keeps downstream ledgers closed: seqs
/// stay strictly increasing across the restart (the hole between the last
/// pre-crash seq and the first rebased one is a normal accounted gap) and
/// timestamps stay monotonic per stream.
#[derive(Debug, Clone, Copy)]
struct ResumeBase {
    /// Added to every decoded `seq`.
    seq: u64,
    /// Added to every decoded `timestamp_ns`.
    ts_ns: u64,
    /// True until the first post-restart sample is decoded: that sample
    /// carries `gap = true`, because whatever was in flight when the
    /// previous incarnation died is lost.
    gap_pending: bool,
}

impl Controller {
    /// A controller that will configure `device` to monitor `target` per
    /// `cfg`, wake the (suspended) target once monitoring is live, drain
    /// every `drain_interval` and hand each drained batch to `sink`.
    pub(crate) fn new(
        device: DeviceId,
        cfg: MonitorConfig,
        target: Pid,
        drain_interval: Duration,
        report: SharedReport,
        sink: Box<dyn SampleSink>,
    ) -> Self {
        Self {
            device,
            cfg,
            target,
            resume_target: true,
            drain_interval,
            report,
            sink,
            phase: Phase::Config,
            drain_attempt: 0,
            final_attempt: 0,
            last_taken: None,
            last_dropped: 0,
            last_pauses: 0,
            doublings: 0,
            governor: None,
            resume_base: None,
        }
    }

    /// Attaches a closed-loop rate governor. The governor takes over
    /// period control from the legacy degraded-mode doubling: every status
    /// poll is folded into its AIMD law, and retunes flow through the
    /// acked `SET_PERIOD` form.
    pub(crate) fn with_governor(mut self, governor: RateGovernor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Disables the wake-up step (for targets that are already running,
    /// i.e. attaching to a live process as §III describes).
    pub(crate) fn attach_running(mut self) -> Self {
        self.resume_target = false;
        self
    }

    /// Continues an interrupted stream: every decoded sample gets
    /// `seq_base` added to its sequence number and `ts_base_ns` to its
    /// timestamp, and the first sample is flagged as following a gap. Used
    /// by supervisors re-entering a monitor after the previous incarnation
    /// crashed (see the [`ResumeBase`] doc for why ledgers stay closed).
    pub(crate) fn resume_from(mut self, seq_base: u64, ts_base_ns: u64) -> Self {
        self.resume_base = Some(ResumeBase {
            seq: seq_base,
            ts_ns: ts_base_ns,
            gap_pending: true,
        });
        self
    }

    /// A sensible drain interval for a sampling period: every ~64 periods,
    /// clamped to [1 ms, 50 ms] — frequent enough that an 8192-record buffer
    /// never starves at 100 µs sampling.
    pub(crate) fn default_drain_interval(period: Duration) -> Duration {
        let raw = period * 64;
        let min = Duration::from_millis(1);
        let max = Duration::from_millis(50);
        if raw < min {
            min
        } else if raw > max {
            max
        } else {
            raw
        }
    }

    fn fail(&mut self, what: &str, retval: i64) -> Option<WorkItem> {
        lock(&self.report).error = Some(format!("{what} failed: {retval}"));
        self.phase = Phase::Done;
        None
    }

    fn ioctl(&self, request: u64, payload: Vec<u8>) -> WorkItem {
        WorkItem::Syscall(Syscall::Ioctl {
            device: self.device,
            request,
            payload,
        })
    }

    fn read(&self) -> WorkItem {
        WorkItem::Syscall(Syscall::Read {
            device: self.device,
            max_bytes: 1 << 20,
        })
    }

    /// Deterministic exponential backoff before retrying a failed drain:
    /// 1/16th of the drain interval, doubling per attempt. No randomness —
    /// same seed, same chaos, same schedule.
    fn backoff(&self, attempt: u32) -> Duration {
        let base_ns = (self.drain_interval.as_nanos() / 16).max(10_000);
        Duration::from_nanos(base_ns << attempt.min(6))
    }

    /// Decodes a drained payload, applies the resume rebase (a no-op on a
    /// first run) and hands a non-empty batch to the sink. Returns the
    /// number of records.
    fn deliver(&mut self, payload: &[u8]) -> usize {
        let mut samples = Sample::decode_all(payload);
        if let Some(base) = &mut self.resume_base {
            for s in samples.iter_mut() {
                s.seq = s.seq.wrapping_add(base.seq);
                s.timestamp_ns = s.timestamp_ns.wrapping_add(base.ts_ns);
                if base.gap_pending {
                    s.gap = true;
                    base.gap_pending = false;
                }
            }
        }
        if !samples.is_empty() {
            self.sink.on_batch(&samples);
        }
        samples.len()
    }
}

impl Workload for Controller {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        loop {
            match self.phase {
                Phase::Config => {
                    self.phase = Phase::Start;
                    return Some(self.ioctl(IOCTL_CONFIG, self.cfg.to_payload()));
                }
                Phase::Start => {
                    match prev.retval() {
                        Some(0) => {}
                        Some(r) => return self.fail("KLEB_CONFIG", r),
                        None => {}
                    }
                    self.phase = if self.resume_target {
                        Phase::Resume
                    } else {
                        Phase::Sleep
                    };
                    return Some(self.ioctl(IOCTL_START, Vec::new()));
                }
                Phase::Resume => {
                    match prev.retval() {
                        Some(0) => {}
                        Some(r) => return self.fail("KLEB_START", r),
                        None => {}
                    }
                    self.phase = Phase::Sleep;
                    return Some(WorkItem::Syscall(Syscall::Resume(self.target)));
                }
                Phase::Sleep => {
                    self.phase = Phase::Drain;
                    return Some(WorkItem::Sleep(self.drain_interval));
                }
                Phase::Drain => {
                    self.phase = Phase::Log { drained: 0 };
                    return Some(self.read());
                }
                Phase::Log { .. } => {
                    // A failed drain (EAGAIN) is retried with deterministic
                    // backoff, up to a bounded budget; then we give up until
                    // the next round (records stay buffered in the kernel).
                    if prev.retval() == Some(Errno::Again.as_retval()) {
                        if self.drain_attempt < MAX_DRAIN_RETRIES {
                            self.drain_attempt += 1;
                            lock(&self.report).recovery.drain_retries += 1;
                            let pause = self.backoff(self.drain_attempt);
                            self.phase = Phase::Drain;
                            return Some(WorkItem::Sleep(pause));
                        }
                        lock(&self.report).recovery.drains_abandoned += 1;
                        self.drain_attempt = 0;
                        self.phase = Phase::Status;
                        continue;
                    }
                    self.drain_attempt = 0;
                    let drained = match prev {
                        ItemResult::Syscall { payload, .. } => self.deliver(payload),
                        _ => 0,
                    };
                    self.phase = Phase::Status;
                    if drained > 0 {
                        // User-space logging work for the drained records.
                        let n = drained as u64;
                        return Some(WorkItem::Block(WorkBlock::compute(
                            n * LOG_INSTRUCTIONS_PER_RECORD,
                            n * LOG_CYCLES_PER_RECORD,
                        )));
                    }
                    // Nothing drained: fall through to Status immediately.
                }
                Phase::Status => {
                    self.phase = Phase::Stop; // provisional; Stop inspects
                    return Some(self.ioctl(IOCTL_STATUS, Vec::new()));
                }
                Phase::Stop => {
                    let status = match prev {
                        ItemResult::Syscall { payload, .. } => ModuleStatus::from_payload(payload),
                        _ => None,
                    };
                    match status {
                        Some(s) if s.target_alive => {
                            let drop_delta = s.samples_dropped.saturating_sub(self.last_dropped);
                            self.last_dropped = s.samples_dropped;
                            let pause_delta = s.pauses.saturating_sub(self.last_pauses);
                            self.last_pauses = s.pauses;
                            let stalled = self.last_taken == Some(s.samples_taken) && !s.paused;
                            self.last_taken = Some(s.samples_taken);
                            // Closed-loop governed mode: the AIMD governor
                            // owns period control and supersedes the legacy
                            // degraded-mode doubling below.
                            if let Some(gov) = &mut self.governor {
                                let decision = gov.observe(PressureSample {
                                    drop_delta,
                                    pause_delta,
                                    buffered: s.buffered,
                                    capacity: self.cfg.buffer_capacity as u64,
                                });
                                lock(&self.report).governor = gov.stats();
                                if let RateDecision::Retune { period_ns, seq } = decision {
                                    self.phase = Phase::AfterRetune { seq, period_ns };
                                    let mut payload = period_ns.to_le_bytes().to_vec();
                                    payload.extend_from_slice(&seq.to_le_bytes());
                                    return Some(self.ioctl(IOCTL_SET_PERIOD, payload));
                                }
                                if stalled {
                                    lock(&self.report).recovery.kicks += 1;
                                    self.phase = Phase::AfterKick;
                                    return Some(self.ioctl(IOCTL_KICK, Vec::new()));
                                }
                                self.phase = Phase::Sleep;
                                continue;
                            }
                            // Degraded-mode fallback: when drops since the
                            // last poll exceed the threshold, the machine
                            // cannot sustain this period — double it
                            // (bounded) instead of losing samples silently.
                            if drop_delta > DEGRADE_DROP_THRESHOLD
                                && self.doublings < MAX_PERIOD_DOUBLINGS
                                && s.period_ns > 0
                            {
                                self.doublings += 1;
                                let mut report = lock(&self.report);
                                report.recovery.period_doublings = self.doublings;
                                report.recovery.degraded = true;
                                drop(report);
                                self.phase = Phase::AfterSetPeriod;
                                let doubled = s.period_ns.saturating_mul(2);
                                return Some(
                                    self.ioctl(IOCTL_SET_PERIOD, doubled.to_le_bytes().to_vec()),
                                );
                            }
                            if stalled {
                                // samples_taken froze between polls: the
                                // sampling timer may have lost its expiry.
                                // Kick it (a no-op if nothing is stalled).
                                lock(&self.report).recovery.kicks += 1;
                                self.phase = Phase::AfterKick;
                                return Some(self.ioctl(IOCTL_KICK, Vec::new()));
                            }
                            self.phase = Phase::Sleep; // keep monitoring
                        }
                        Some(_) => {
                            self.phase = Phase::FinalDrain;
                            return Some(self.ioctl(IOCTL_STOP, Vec::new()));
                        }
                        None => return self.fail("KLEB_STATUS", -1),
                    }
                }
                Phase::AfterKick => {
                    if prev.retval() == Some(1) {
                        lock(&self.report).recovery.kicks_honoured += 1;
                    }
                    self.phase = Phase::Sleep;
                }
                Phase::AfterSetPeriod => {
                    // Success or not, go back to monitoring; the new period
                    // shows up in the next status poll.
                    self.phase = Phase::Sleep;
                }
                Phase::AfterRetune { seq, period_ns } => {
                    if prev.retval() == Some(seq as i64) {
                        if let Some(gov) = &mut self.governor {
                            gov.acked(seq);
                            lock(&self.report).governor = gov.stats();
                        }
                        self.sink.on_retune(seq, period_ns);
                    }
                    self.phase = Phase::Sleep;
                }
                Phase::FinalDrain => {
                    self.phase = Phase::FinalStatus;
                    return Some(self.read());
                }
                Phase::FinalStatus => {
                    // After STOP the buffer must be drained to empty even on
                    // a flaky machine: abandoned records here would be lost
                    // for good, so the retry budget is generous.
                    if prev.retval() == Some(Errno::Again.as_retval())
                        && self.final_attempt < MAX_FINAL_DRAIN_RETRIES
                    {
                        self.final_attempt += 1;
                        lock(&self.report).recovery.drain_retries += 1;
                        let pause = self.backoff(self.final_attempt);
                        self.phase = Phase::FinalDrain;
                        return Some(WorkItem::Sleep(pause));
                    }
                    if let ItemResult::Syscall { payload, retval } = prev {
                        if *retval > 0 {
                            self.deliver(payload);
                            // Buffer may still hold more records than one
                            // read returned; drain again.
                            if *retval as usize >= RECORD_BYTES {
                                self.phase = Phase::FinalDrain;
                                continue;
                            }
                        }
                    }
                    self.phase = Phase::Done;
                    return Some(self.ioctl(IOCTL_STATUS, Vec::new()));
                }
                Phase::Done => {
                    if let ItemResult::Syscall { payload, .. } = prev {
                        if let Some(s) = ModuleStatus::from_payload(payload) {
                            lock(&self.report).final_status = Some(s);
                        }
                    }
                    self.sink.on_complete();
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_interval_clamps() {
        assert_eq!(
            Controller::default_drain_interval(Duration::from_micros(1)),
            Duration::from_millis(1)
        );
        assert_eq!(
            Controller::default_drain_interval(Duration::from_millis(10)),
            Duration::from_millis(50)
        );
        assert_eq!(
            Controller::default_drain_interval(Duration::from_micros(100)),
            Duration::from_micros(6400)
        );
    }

    #[test]
    fn shared_report_starts_empty() {
        let r = shared_report();
        let g = r.lock().unwrap();
        assert!(g.final_status.is_none());
        assert!(g.error.is_none());
    }
}
