//! Supervision & recovery: panic containment, deterministic restart,
//! circuit breaking, and partial-outcome health accounting.
//!
//! Before this module, one panicking machine killed the whole fleet run
//! behind a generic "machine thread panicked" error. Supervision turns a
//! machine failure into *data*:
//!
//! - **Containment** — each monitor attempt runs under
//!   [`std::panic::catch_unwind`]; the panic payload is downcast back to
//!   its message ([`panic_message`]) and recorded as a typed
//!   [`MachineFailure`] instead of being dropped on the floor. A panic
//!   outside the attempts (in the machine-config or workload factory) is
//!   contained too: it fails that machine alone, and the rest of its
//!   worker's machines still run.
//! - **Restart** — a panicked machine is rebuilt and re-run at once,
//!   under a bounded budget ([`SupervisorPolicy::max_restarts`]). The
//!   retry's fault RNG is salted by attempt number
//!   (`ksim::FaultState::for_attempt`) so it does not deterministically
//!   hit the identical crash point forever, and the monitor resumes
//!   with [`kleb::Monitor::resume_from`] so sequence numbers and
//!   timestamps stay globally monotone across incarnations — the first
//!   resumed sample carries the `gap` flag because whatever the dead
//!   incarnation had buffered is gone, and the ledger says so.
//! - **Circuit breaking** — a per-machine [`CircuitBreaker`]
//!   (Closed → Open → HalfOpen) records hot restart loops. It is a pure
//!   state machine over the failure sequence: an open breaker admits the
//!   next attempt as its half-open probe.
//! - **Partial outcomes** — every machine reports a [`HealthReport`];
//!   the fleet run succeeds with its surviving streams and fails only
//!   when *no* machine survived. Health is packed into the persisted
//!   ktrace ledger ([`ktrace::StreamHealth`]) so record → replay
//!   reproduces the extended [`crate::FleetOutcome::digest`]
//!   byte-for-byte.
//!
//! Determinism contract: supervision reads no clock and never sleeps.
//! The happy path (attempt 0 succeeds) makes zero breaker decisions — a
//! clean supervised run is bit-identical to one that never heard of
//! supervision — and after a failure the *recorded* health (restart
//! count, failure count, trips, final breaker state) is a pure function
//! of the failure sequence, which is why the digest is too.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, PoisonError};

use kleb::{Monitor, MonitorOutcome, Sample, SampleSink};
use ksim::{Machine, MachineConfig};
use ktrace::{SharedWriter, StreamHealth, StreamLedger, StreamMeta, TraceWriter};

use crate::runner::{outline_report, MachineReport, WorkloadFactory};

/// Restart and circuit-breaker tuning for one fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts a machine may consume before it is declared failed.
    /// Zero disables restarting: the first panic is terminal (but still
    /// contained and typed).
    pub max_restarts: u32,
    /// Consecutive failures that trip the breaker open.
    pub breaker_threshold: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            breaker_threshold: 2,
        }
    }
}

impl SupervisorPolicy {
    /// No restarts at all: panics are contained and typed, never retried.
    pub fn no_restarts() -> Self {
        Self {
            max_restarts: 0,
            ..Self::default()
        }
    }

    /// Overrides the restart budget.
    pub fn max_restarts(mut self, restarts: u32) -> Self {
        self.max_restarts = restarts;
        self
    }

    /// Overrides the breaker's consecutive-failure threshold.
    pub fn breaker_threshold(mut self, failures: u32) -> Self {
        self.breaker_threshold = failures.max(1);
        self
    }
}

/// Circuit-breaker position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are being counted.
    #[default]
    Closed,
    /// Tripped: the next request is admitted only as a probe.
    Open,
    /// Exactly one probe is in flight; its result closes or re-trips the
    /// breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire tag, as persisted in [`ktrace::StreamHealth`].
    pub fn tag(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Inverse of [`BreakerState::tag`]; unknown tags decode `Closed`.
    pub fn from_tag(tag: u8) -> Self {
        match tag {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// Per-machine circuit breaker: Closed → Open on
/// `threshold` consecutive failures (or any half-open probe failure),
/// Open → HalfOpen when the next request is admitted as its probe,
/// HalfOpen → Closed on a probe success.
///
/// A pure state machine over the sequence of requests and their
/// results: it reads no clock, so its trips and final state depend on
/// nothing else.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    threshold: u32,
    consecutive_failures: u32,
    trips: u8,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (min 1).
    pub fn new(threshold: u32) -> Self {
        Self {
            state: BreakerState::Closed,
            threshold: threshold.max(1),
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// May a request proceed? Closed always admits; Open admits the
    /// request as its single probe and turns HalfOpen; HalfOpen refuses
    /// further requests while the probe is outstanding.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// The admitted request succeeded: reset the failure streak and
    /// close the breaker (a half-open probe success heals it).
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// The admitted request failed. A half-open probe failure re-trips
    /// immediately; a closed breaker trips once the streak reaches the
    /// threshold.
    pub fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.trips = self.trips.saturating_add(1);
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u8 {
        self.trips
    }
}

/// What category of failure took a machine down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The monitor (or the machine under it) panicked; the payload is
    /// preserved in the message. Retryable within the restart budget.
    Panic,
    /// The monitor returned a typed error (bad config, missing target).
    /// Deterministic, so never retried.
    Monitor,
    /// Trace persistence failed (create or seal). The sample pipeline
    /// itself may have been fine.
    Io,
}

impl FailureKind {
    fn verb(self) -> &'static str {
        match self {
            FailureKind::Panic => "panicked",
            FailureKind::Monitor => "monitor error",
            FailureKind::Io => "trace I/O error",
        }
    }
}

/// One recorded machine failure, with its cause preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineFailure {
    /// The failing spec's label.
    pub label: String,
    /// Which attempt failed (0 = the original run).
    pub attempt: u32,
    /// Failure category.
    pub kind: FailureKind,
    /// The panic payload or error message.
    pub message: String,
}

impl std::fmt::Display for MachineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine '{}' attempt {} {}: {}",
            self.label,
            self.attempt,
            self.kind.verb(),
            self.message
        )
    }
}

/// Recovers the human-readable message from a caught panic payload.
///
/// `panic!("...")` payloads are `String` or `&'static str`; anything
/// else (a `panic_any` with an exotic type) is reported as opaque rather
/// than discarded along with the whole report — which is exactly what
/// the old `"machine thread panicked"` string used to do.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// One machine's supervision summary, parallel to its
/// [`MachineReport`] in the [`crate::FleetOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Restarts consumed (0 on a clean run).
    pub restarts: u32,
    /// Total recorded failures across all attempts. Kept separately
    /// from `failures.len()` because replayed runs reconstruct the
    /// count from the persisted ledger but not the messages.
    pub failure_count: u16,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u8,
    /// The breaker's final position.
    pub breaker_state: BreakerState,
    /// The machine was lost for good: its restart budget ran out, or it
    /// hit a non-retryable error.
    pub failed: bool,
    /// The recorded failures, in attempt order. Empty on replayed runs
    /// (messages are not persisted; only the counts above are).
    pub failures: Vec<MachineFailure>,
}

impl HealthReport {
    /// Clean run: no restarts, no failures, breaker closed.
    pub fn is_healthy(&self) -> bool {
        !self.failed && self.restarts == 0 && self.failure_count == 0
    }

    /// One-word-ish status for tables and logs: `healthy`,
    /// `restarted(n)`, `degraded`, or `failed`.
    pub fn summary(&self) -> String {
        if self.failed {
            "failed".to_string()
        } else if self.restarts > 0 {
            format!("restarted({})", self.restarts)
        } else if self.failure_count > 0 {
            "degraded".to_string()
        } else {
            "healthy".to_string()
        }
    }

    /// Packs the digest-relevant health fields for the persisted ledger.
    pub fn to_stream_health(&self) -> StreamHealth {
        StreamHealth {
            restarts: self.restarts,
            failures: self.failure_count,
            breaker_trips: self.breaker_trips,
            breaker_state: self.breaker_state.tag(),
            failed: self.failed,
        }
    }

    /// Rebuilds the report from a replayed ledger. Failure messages are
    /// not persisted, so `failures` comes back empty — by design, the
    /// digest covers only the counts.
    pub fn from_stream_health(health: StreamHealth) -> Self {
        Self {
            restarts: health.restarts,
            failure_count: health.failures,
            breaker_trips: health.breaker_trips,
            breaker_state: BreakerState::from_tag(health.breaker_state),
            failed: health.failed,
            failures: Vec::new(),
        }
    }

    /// A terminally failed report carrying `failures`.
    pub(crate) fn failed_with(failures: Vec<MachineFailure>) -> Self {
        Self {
            failure_count: failures.len().min(u16::MAX as usize) as u16,
            failed: true,
            failures,
            ..Self::default()
        }
    }
}

/// Everything the supervisor shares across attempts of one machine,
/// *outside* the `catch_unwind` boundary: the trace writer, resume
/// bookkeeping, and the union of samples forwarded so far.
#[derive(Debug)]
pub(crate) struct StreamProgress {
    pub trace: Option<SharedWriter<std::fs::File>>,
    /// `(seq, timestamp_ns)` of the last forwarded sample; the next
    /// incarnation resumes from `seq + 1` on this time base.
    pub last: Option<(u64, u64)>,
    /// Every sample forwarded across all attempts — what the trace
    /// holds, what a replay will reproduce, and the only copy the
    /// machine's report (and, at join, its store shard) carries.
    pub forwarded: Vec<Sample>,
    /// The last period the rate governor retuned to, if any: a restarted
    /// incarnation resumes here rather than snapping back to the
    /// configured rate the ring already proved it cannot sustain.
    pub governed_period_ns: Option<u64>,
}

/// The per-attempt [`SampleSink`]: forwards each drained batch to the
/// trace (if recording) and the machine's samples, and tracks resume
/// state. Holds only an [`Arc`] — unwinding through a panicking attempt
/// drops the sink without touching the trace.
#[derive(Debug)]
pub(crate) struct SupervisorSink(Arc<Mutex<StreamProgress>>);

impl SupervisorSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, StreamProgress> {
        // Same poison stance as ktrace::SharedWriter: a panic can at
        // worst have interrupted bookkeeping this sink itself performs
        // atomically per batch, so recover and continue.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SampleSink for SupervisorSink {
    fn on_batch(&mut self, samples: &[Sample]) {
        let mut guard = self.lock();
        let progress = &mut *guard;
        if let Some(trace) = &progress.trace {
            trace.append_batch(samples);
        }
        if let Some(sample) = samples.last() {
            progress.last = Some((sample.seq, sample.timestamp_ns));
        }
        progress.forwarded.extend_from_slice(samples);
    }

    fn on_retune(&mut self, _seq: u64, period_ns: u64) {
        self.lock().governed_period_ns = Some(period_ns);
    }
}

/// One supervised machine's final word: always a report (failed
/// machines get an outline one over the samples their attempts
/// forwarded) plus its health. Infallible by construction — failure is
/// data, not an early return.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The machine's report, in the shape [`crate::FleetRunner::run`]
    /// has always produced.
    pub report: MachineReport,
    /// What supervision saw: restarts, failures, breaker history.
    pub health: HealthReport,
    /// Samples the sealed trace's ledger counts; `None` when nothing was
    /// recorded or the seal failed.
    pub(crate) sealed_samples: Option<u64>,
}

/// Everything a worker needs to run one spec under supervision.
pub(crate) struct MachineTask {
    pub label: String,
    pub seed: u64,
    pub monitor: Monitor,
    pub machine_config: fn(u64) -> MachineConfig,
    pub faults: Option<ksim::FaultPlan>,
    pub workload: WorkloadFactory,
    pub policy: SupervisorPolicy,
    pub trace_path: Option<std::path::PathBuf>,
    pub meta: StreamMeta,
}

/// Runs one machine to a verdict: retry panics at once under the
/// policy's budget and breaker; stop on success, a non-retryable error,
/// or budget exhaustion. Seals the trace (durably, with the health
/// ledger) either way. See the module docs for the determinism
/// contract.
///
/// Never panics: the machine-config and workload factories run before
/// each attempt, outside its `catch_unwind`, so a panic there fails this
/// machine with a [`FailureKind::Panic`] outline report instead of
/// unwinding through the worker and the machines it has yet to run.
pub(crate) fn supervise_machine(task: MachineTask) -> SupervisedRun {
    let (label, seed, events) = (task.label.clone(), task.seed, task.meta.events.clone());
    std::panic::catch_unwind(AssertUnwindSafe(|| supervise_attempts(task))).unwrap_or_else(
        |payload| {
            let failure = MachineFailure {
                label: label.clone(),
                attempt: 0,
                kind: FailureKind::Panic,
                message: panic_message(payload),
            };
            SupervisedRun {
                report: outline_report(&label, seed, events, Vec::new()),
                health: HealthReport::failed_with(vec![failure]),
                sealed_samples: None,
            }
        },
    )
}

/// The body of [`supervise_machine`], which contains its panics.
fn supervise_attempts(task: MachineTask) -> SupervisedRun {
    let MachineTask {
        label,
        seed,
        monitor,
        machine_config,
        faults,
        workload,
        policy,
        trace_path,
        meta,
    } = task;

    let mut failures: Vec<MachineFailure> = Vec::new();
    let trace = match &trace_path {
        Some(path) => match TraceWriter::create(path, &meta) {
            Ok(writer) => Some(SharedWriter::new(writer)),
            Err(e) => {
                // No trace file means nothing to seal and nothing to
                // replay; the machine itself never ran. Terminal.
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt: 0,
                    kind: FailureKind::Io,
                    message: format!("cannot create trace {}: {e}", path.display()),
                });
                let health = HealthReport::failed_with(failures);
                let report = outline_report(&label, seed, meta.events.clone(), Vec::new());
                return SupervisedRun {
                    report,
                    health,
                    sealed_samples: None,
                };
            }
        },
        None => None,
    };

    let progress = Arc::new(Mutex::new(StreamProgress {
        trace: trace.clone(),
        last: None,
        forwarded: Vec::new(),
        governed_period_ns: None,
    }));

    let mut breaker = CircuitBreaker::new(policy.breaker_threshold);
    let mut restarts = 0u32;
    let mut attempt = 0u32;
    let mut outcome: Option<MonitorOutcome> = None;
    loop {
        if attempt > 0 {
            // An open breaker admits this restart as its half-open probe.
            // Attempts run one at a time, so no probe is outstanding.
            let admitted = breaker.allow();
            debug_assert!(admitted, "the previous attempt has finished");
        }
        let mut config = machine_config(seed);
        if let Some(plan) = faults {
            config.faults = plan;
        }
        // Salt the fault RNG per attempt: replaying the identical fault
        // sequence would panic at the identical point forever.
        config.fault_attempt = attempt;
        let mut machine = Machine::new(config);
        let body = workload(seed);
        let mut monitor = monitor.clone();
        {
            let guard = progress.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((last_seq, last_ts)) = guard.last {
                monitor = monitor.resume_from(last_seq + 1, last_ts);
            }
            if let Some(period_ns) = guard.governed_period_ns {
                monitor = monitor.governed_resume_period(ksim::Duration::from_nanos(period_ns));
            }
        }
        let sink = Box::new(SupervisorSink(Arc::clone(&progress)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monitor.run_with_sink(&mut machine, &label, body, sink)
        }));
        match result {
            Ok(Ok(done)) => {
                breaker.record_success();
                outcome = Some(done);
                break;
            }
            Ok(Err(e)) => {
                // Monitor errors are deterministic (config, missing
                // target): retrying replays them. Terminal.
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt,
                    kind: FailureKind::Monitor,
                    message: e.to_string(),
                });
                breaker.record_failure();
                break;
            }
            Err(payload) => {
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt,
                    kind: FailureKind::Panic,
                    message: panic_message(payload),
                });
                breaker.record_failure();
                if restarts >= policy.max_restarts {
                    break;
                }
                restarts += 1;
                attempt += 1;
            }
        }
    }

    // Reclaim the shared state, then seal the trace with the final
    // ledger + health.
    let (trace, mut forwarded) = {
        let mut guard = progress.lock().unwrap_or_else(PoisonError::into_inner);
        (guard.trace.take(), std::mem::take(&mut guard.forwarded))
    };
    // The stream is complete: drop the slack its doubling growth left
    // before the samples move into the report for the outcome's life.
    forwarded.shrink_to_fit();
    let failed = outcome.is_none();
    let mut health = HealthReport {
        restarts,
        failure_count: failures.len().min(u16::MAX as usize) as u16,
        breaker_trips: breaker.trips(),
        breaker_state: breaker.state(),
        failed,
        failures,
    };
    let (status, recovery, governor) = match &outcome {
        Some(done) => (done.status, done.recovery, done.governor),
        None => Default::default(),
    };
    let mut sealed_samples = None;
    if let Some(shared) = trace {
        let seal = shared.finish_durable(&StreamLedger {
            samples_written: 0, // the writer fills in its own count
            status,
            recovery,
            health: health.to_stream_health(),
            governor,
        });
        match seal {
            Ok(()) => sealed_samples = Some(shared.samples_written()),
            Err(e) => {
                // The run's data is already in the report; a seal failure
                // degrades the recording, it does not un-succeed the
                // machine.
                health.failures.push(MachineFailure {
                    label: label.clone(),
                    attempt,
                    kind: FailureKind::Io,
                    message: format!("cannot seal trace: {e}"),
                });
                health.failure_count = health.failure_count.saturating_add(1);
            }
        }
    }
    // The sink was the attempts' only way out for samples, so the
    // report's samples are what the trace received: the union across
    // all attempts.
    let report = match outcome {
        Some(done) => MachineReport {
            label,
            seed,
            outcome: MonitorOutcome {
                samples: forwarded,
                ..done
            },
        },
        None => outline_report(&label, seed, meta.events, forwarded),
    };
    SupervisedRun {
        report,
        health,
        sealed_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(2);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "one failure: still closed");
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "threshold reached");
        assert_eq!(b.trips(), 1);
        // Open admits the next request as its one probe.
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "probe already in flight");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_probe_failure_re_trips_immediately() {
        let mut b = CircuitBreaker::new(3);
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "probe failure re-trips");
        assert_eq!(b.trips(), 2);
        assert!(b.allow(), "the next request is the next probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_state_tags_round_trip() {
        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            assert_eq!(BreakerState::from_tag(state.tag()), state);
        }
        assert_eq!(BreakerState::from_tag(99), BreakerState::Closed);
    }

    #[test]
    fn panic_message_preserves_string_and_str_payloads() {
        let s = std::panic::catch_unwind(|| panic!("injected fault: {}", 42)).unwrap_err();
        assert_eq!(panic_message(s), "injected fault: 42");
        let s = std::panic::catch_unwind(|| panic!("bare str")).unwrap_err();
        assert_eq!(panic_message(s), "bare str");
        let s = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(s), "opaque panic payload");
    }

    #[test]
    fn health_report_round_trips_through_stream_health() {
        let health = HealthReport {
            restarts: 2,
            failure_count: 3,
            breaker_trips: 1,
            breaker_state: BreakerState::Open,
            failed: true,
            failures: vec![MachineFailure {
                label: "m0".into(),
                attempt: 2,
                kind: FailureKind::Panic,
                message: "boom".into(),
            }],
        };
        let back = HealthReport::from_stream_health(health.to_stream_health());
        assert_eq!(back.restarts, 2);
        assert_eq!(back.failure_count, 3);
        assert_eq!(back.breaker_trips, 1);
        assert_eq!(back.breaker_state, BreakerState::Open);
        assert!(back.failed);
        assert!(back.failures.is_empty(), "messages are not persisted");
    }

    #[test]
    fn health_summaries_cover_the_taxonomy() {
        assert_eq!(HealthReport::default().summary(), "healthy");
        assert!(HealthReport::default().is_healthy());
        let restarted = HealthReport {
            restarts: 2,
            failure_count: 2,
            ..Default::default()
        };
        assert_eq!(restarted.summary(), "restarted(2)");
        let degraded = HealthReport {
            failure_count: 1,
            ..Default::default()
        };
        assert_eq!(degraded.summary(), "degraded");
        assert_eq!(HealthReport::failed_with(Vec::new()).summary(), "failed");
    }

    #[test]
    fn machine_failure_display_names_the_machine_and_attempt() {
        let f = MachineFailure {
            label: "node-3".into(),
            attempt: 1,
            kind: FailureKind::Panic,
            message: "injected fault: thread panic at 500 ns".into(),
        };
        let rendered = f.to_string();
        assert!(rendered.contains("node-3"), "{rendered}");
        assert!(rendered.contains("attempt 1"), "{rendered}");
        assert!(rendered.contains("panicked"), "{rendered}");
        assert!(rendered.contains("injected fault"), "{rendered}");
    }
}
