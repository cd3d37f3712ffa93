//! Fleet execution: N machines on a deterministic worker pool.
//!
//! [`FleetRunner`] runs every [`MachineSpec`] to completion on one of W =
//! min(N, `available_parallelism`) workers. The calling thread is one of
//! them, so W = 1 spawns no thread. Each worker takes a contiguous slice
//! of the specs; for each, it builds a [`ksim::Machine`] from the spec's
//! seed and runs the workload under a K-LEB [`kleb::Monitor`] inside the
//! supervisor ([`crate::supervisor`]), whose [`kleb::SampleSink`] tees
//! every drained batch to the trace and keeps it as the machine's
//! samples. Nothing passes between workers while they run. At join the
//! outcome is assembled in spec order: each machine's samples go into its
//! [`FleetStore`] shard in one ingest, and the run's reports are summed
//! into [`FleetMetrics`].
//!
//! Determinism contract: each machine's sample stream is a pure function
//! of its seed and workload, and the outcome is assembled in spec order
//! whatever W is and however the workers interleave, so
//! [`FleetOutcome::digest`] depends on neither W nor host speed. No
//! transport sits between a machine and the store, so every run is
//! lossless and [`Backpressure`] has no effect.

use std::path::PathBuf;

use kleb::{KlebTuning, Monitor, MonitorOutcome, Sample, RECORD_BYTES};
use ksim::{CoreId, Duration, Instant, MachineConfig, Pid, ProcessInfo, ProcessState, Workload};
use ktrace::{stream_file_name, RecoveredStream, StreamMeta};
use pmu::{EventCounts, HwEvent};

use crate::governor::{GovernorPolicy, GovernorReport};
use crate::ingest::{Backpressure, ChannelStats};
use crate::metrics::FleetMetrics;
use crate::store::FleetStore;
use crate::supervisor::{
    supervise_machine, HealthReport, MachineFailure, MachineTask, SupervisedRun, SupervisorPolicy,
};

/// Per-shard point capacity of the store.
const SHARD_CAPACITY: usize = 64 * 1024;

/// Builds a workload on the worker that runs the machine, from the
/// spec's seed.
///
/// `Fn`, not `FnOnce`: the supervisor rebuilds the workload on every
/// restart attempt, so the factory must be re-invokable.
pub type WorkloadFactory = Box<dyn Fn(u64) -> Box<dyn Workload> + Send>;

/// One machine of the fleet.
pub struct MachineSpec {
    /// Display name (also the monitored process's name).
    pub label: String,
    /// Seed for the machine's RNG and its workload.
    pub seed: u64,
    /// Workload constructor, invoked on the worker that runs the machine.
    pub workload: WorkloadFactory,
    /// Relative overhead weight for the fleet budget allocator: a
    /// weight-2 stream costs the budget twice what a weight-1 stream
    /// does at the same period, so it is slowed first. Ignored unless a
    /// [`GovernorPolicy`] with a budget is configured. Default 1.0.
    pub weight: f64,
}

impl MachineSpec {
    /// A spec running `workload(seed)` on a machine seeded with `seed`.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        workload: impl Fn(u64) -> Box<dyn Workload> + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            seed,
            workload: Box::new(workload),
            weight: 1.0,
        }
    }

    /// Sets the budget-allocator weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

impl std::fmt::Debug for MachineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineSpec")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// Fleet-wide configuration shared by every machine.
///
/// Construct through [`FleetConfig::builder`] — the one coherent way to
/// assemble a fleet:
///
/// ```ignore
/// let config = FleetConfig::builder(&events, period)
///     .persist("/tmp/traces")
///     .govern(GovernorPolicy::new().budget(50_000))
///     .build();
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable everywhere,
/// but new knobs can be added without breaking downstream construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Events programmed on each machine's programmable counters.
    pub events: Vec<HwEvent>,
    /// Sampling period.
    pub period: Duration,
    /// Module cost tuning.
    pub tuning: KlebTuning,
    /// Has no effect on a run: no ring sits between a machine and the
    /// store, so every run is lossless. Kept for callers that set it.
    pub backpressure: Backpressure,
    /// Machine hardware model, built from the spec's seed.
    pub machine_config: fn(u64) -> MachineConfig,
    /// Fault plan injected into every machine (overriding whatever
    /// `machine_config` chose). `None` leaves the machines fault-free —
    /// the default, keeping clean runs bit-identical to a fleet that
    /// never heard of faults.
    pub faults: Option<ksim::FaultPlan>,
    /// When set, every machine tees its live sample stream into a
    /// ktrace segment file under this directory (one file per stream,
    /// named by [`ktrace::stream_file_name`]), sealed with the module's
    /// drop ledger and the controller's recovery stats. `None` records
    /// nothing.
    pub persist_dir: Option<PathBuf>,
    /// Restart budget and circuit-breaker tuning for the per-machine
    /// supervisor. The default allows 3 restarts; see
    /// [`crate::supervisor`] for the determinism contract (a clean run
    /// never touches any of it).
    pub supervision: SupervisorPolicy,
    /// Closed-loop rate governance. `None` (the default) runs every
    /// machine at the fixed configured period, exactly as fleets always
    /// did; `Some` derives a per-machine [`kleb::RatePolicy`] from the
    /// policy (after the budget allocator assigns base periods) and
    /// lets each controller retune its module live.
    pub governor: Option<GovernorPolicy>,
    /// Controller wake/drain/status-poll interval for every machine.
    /// `None` uses kleb's period-derived default (64 periods, clamped to
    /// 1–50 ms). The governor only acts at status polls, so governed
    /// fleets often want this tighter than the default.
    pub drain_interval: Option<Duration>,
}

impl FleetConfig {
    /// The default config: `events` sampled every `period` on
    /// i7-920-class machines, no faults, no governor. Use
    /// [`FleetConfig::builder`] to override anything.
    pub fn new(events: &[HwEvent], period: Duration) -> Self {
        Self {
            events: events.to_vec(),
            period,
            tuning: KlebTuning::default(),
            backpressure: Backpressure::Block,
            machine_config: MachineConfig::i7_920,
            faults: None,
            persist_dir: None,
            supervision: SupervisorPolicy::default(),
            governor: None,
            drain_interval: None,
        }
    }

    /// Starts a builder from the defaults of [`FleetConfig::new`].
    pub fn builder(events: &[HwEvent], period: Duration) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::new(events, period),
        }
    }
}

/// Chainable constructor for [`FleetConfig`] — the single supported way
/// to customise a fleet. Obtained from [`FleetConfig::builder`]; every
/// setter consumes and returns the builder, and [`build`] yields the
/// finished config.
///
/// [`build`]: FleetConfigBuilder::build
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Overrides the module cost tuning.
    pub fn tuning(mut self, tuning: KlebTuning) -> Self {
        self.config.tuning = tuning;
        self
    }

    /// Sets [`FleetConfig::backpressure`], which has no effect on a run:
    /// every run is lossless.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Overrides the machine hardware model.
    pub fn machine(mut self, factory: fn(u64) -> MachineConfig) -> Self {
        self.config.machine_config = factory;
        self
    }

    /// Injects a fault plan into every machine of the fleet.
    pub fn faults(mut self, plan: ksim::FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Records every machine's sample stream to ktrace segments under
    /// `dir` (created if missing at run time).
    pub fn persist(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.persist_dir = Some(dir.into());
        self
    }

    /// Overrides the supervision policy (restart budget, circuit
    /// breaker).
    pub fn supervise(mut self, policy: SupervisorPolicy) -> Self {
        self.config.supervision = policy;
        self
    }

    /// Attaches closed-loop rate governance: the budget allocator
    /// assigns per-machine base periods up front and every machine's
    /// controller retunes its module live under the derived
    /// [`kleb::RatePolicy`].
    pub fn govern(mut self, policy: GovernorPolicy) -> Self {
        self.config.governor = Some(policy);
        self
    }

    /// Overrides the controller wake/drain/status-poll interval. The
    /// governor observes pressure once per poll, so this bounds its
    /// reaction time.
    pub fn drain_interval(mut self, interval: Duration) -> Self {
        self.config.drain_interval = Some(interval);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FleetConfig {
        self.config
    }
}

/// Why a fleet run failed.
///
/// A single machine failure is no longer fatal: the supervisor records
/// it in the machine's [`HealthReport`] and the run succeeds partially.
/// `Machines` is returned only when *every* machine failed — and then it
/// aggregates every recorded failure, not just the first one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Pre-flight setup failed before any machine ran (e.g. the persist
    /// directory could not be created).
    Setup {
        /// What went wrong.
        error: String,
    },
    /// No machine survived. Every failure across the fleet, in spec
    /// order then attempt order.
    Machines {
        /// The full failure list, causes preserved.
        failures: Vec<MachineFailure>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Setup { error } => write!(f, "fleet setup failed: {error}"),
            FleetError::Machines { failures } => {
                write!(f, "all machines failed ({} failures)", failures.len())?;
                for failure in failures {
                    write!(f, "\n  {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One machine's completed run.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// The spec's label.
    pub label: String,
    /// The spec's seed.
    pub seed: u64,
    /// The monitor's full outcome (samples, timing, module status).
    pub outcome: MonitorOutcome,
}

/// Everything a completed fleet run produced.
///
/// `#[non_exhaustive]`: only [`FleetRunner`] assembles one; new result
/// surfaces can be added without breaking downstream readers.
#[derive(Debug)]
#[non_exhaustive]
pub struct FleetOutcome {
    /// The populated sample store.
    pub store: FleetStore,
    /// Per-machine reports, spec order. Failed machines get an outline
    /// report over the samples their attempts forwarded, so this is
    /// always the same length as the spec list.
    pub machines: Vec<MachineReport>,
    /// Per-machine supervision health, parallel to `machines`.
    pub health: Vec<HealthReport>,
    /// Per-machine sample accounting: `sent` and `delivered` are each
    /// machine's sample count and nothing is dropped, since no transport
    /// sits between a machine and the store. `depth_high_water` and
    /// `block_waits` read 0.
    pub channel: ChannelStats,
    /// The pipeline's self-metrics, summed from the reports above once
    /// every machine has joined.
    pub metrics: FleetMetrics,
    /// Per-machine rate-governance rows, parallel to `machines`:
    /// configured and allocated base periods plus the live governor's
    /// counters (all idle when the fleet ran ungoverned).
    pub governors: Vec<GovernorReport>,
    /// Host wall time from before the first machine starts to after the
    /// last one's samples are in the store, for rate reporting. Never
    /// digested.
    pub elapsed: std::time::Duration,
}

impl FleetOutcome {
    /// Renders the self-metrics table.
    pub fn metrics_table(&self) -> String {
        self.metrics.render(self.elapsed)
    }

    /// True when every machine finished clean: no restarts, no
    /// failures, no tripped breakers.
    pub fn all_healthy(&self) -> bool {
        self.health.iter().all(HealthReport::is_healthy)
    }

    /// Machines that were lost for good (restart budget exhausted or a
    /// non-retryable error), spec order.
    pub fn failed_machines(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.failed)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the per-machine health table: status, restarts,
    /// failures, breaker history.
    pub fn health_table(&self) -> String {
        let mut t = analysis::TextTable::new(&[
            "machine",
            "status",
            "restarts",
            "failures",
            "breaker trips",
            "samples",
        ]);
        for (report, health) in self.machines.iter().zip(&self.health) {
            t.row_owned(vec![
                report.label.clone(),
                health.summary(),
                health.restarts.to_string(),
                health.failure_count.to_string(),
                health.breaker_trips.to_string(),
                report.outcome.samples.len().to_string(),
            ]);
        }
        t.render()
    }

    /// Renders the per-machine governance table: allocated vs final
    /// period and the AIMD counters.
    pub fn governor_table(&self) -> String {
        let mut t = analysis::TextTable::new(&[
            "machine",
            "allocated µs",
            "final µs",
            "retunes",
            "acked",
            "clamps",
            "oscillations",
        ]);
        for row in &self.governors {
            t.row_owned(vec![
                row.label.clone(),
                format!("{:.1}", row.allocated_period_ns as f64 / 1_000.0),
                format!("{:.1}", row.final_period_ns() as f64 / 1_000.0),
                row.stats.retunes.to_string(),
                row.stats.acked.to_string(),
                row.stats.clamps.to_string(),
                row.stats.oscillations.to_string(),
            ]);
        }
        t.render()
    }

    /// A byte digest of everything a run produced that is *deterministic
    /// by contract*: per-machine sample streams (wire encoding), module
    /// status, recovery stats, programmed events, the store's ingested
    /// points and per-machine channel accounting. Host time (`elapsed`)
    /// is excluded, as are the channel's `depth_high_water` and
    /// `block_waits`.
    ///
    /// Replaying a recorded run must reproduce this byte-for-byte —
    /// that equality is the regression-testing contract.
    pub fn digest(&self) -> Vec<u8> {
        let mut len = 0;
        self.write_digest(&mut len);
        let mut out = Vec::with_capacity(len);
        self.write_digest(&mut out);
        debug_assert_eq!(out.len(), len, "the sizing pass disagrees");
        out
    }

    fn write_digest(&self, out: &mut impl DigestOut) {
        let mut record = Vec::with_capacity(RECORD_BYTES);
        out.u64s(&[self.machines.len() as u64]);
        for (index, report) in self.machines.iter().enumerate() {
            out.bytes(report.label.as_bytes());
            out.bytes(&[0]);
            out.u64s(&[report.seed, report.outcome.samples.len() as u64]);
            for s in &report.outcome.samples {
                record.clear();
                s.encode_into(&mut record);
                out.bytes(&record);
            }
            for &e in &report.outcome.events {
                out.bytes(&[e as u8]);
            }
            let st = &report.outcome.status;
            out.u64s(&[
                st.target_alive as u64,
                st.buffered,
                st.samples_taken,
                st.samples_dropped,
                st.pauses,
                st.paused as u64,
                st.period_ns,
            ]);
            let rec = &report.outcome.recovery;
            out.u64s(&[
                rec.drain_retries,
                rec.drains_abandoned,
                rec.kicks,
                rec.kicks_honoured,
                rec.period_doublings as u64,
                rec.degraded as u64,
            ]);
            // The governor's ledger. All-zero both for ungoverned runs
            // and for governed runs that never saw pressure — which is
            // what keeps those two byte-identical here.
            let gov = &report.outcome.governor;
            out.u64s(&[
                u64::from(gov.retunes),
                u64::from(gov.acked),
                u64::from(gov.clamps),
                u64::from(gov.oscillations),
                gov.last_period_ns,
                gov.max_period_ns,
            ]);
            // Supervision health: the counts and final breaker state are
            // persisted in the ledger and must survive record → replay.
            // Failure *messages* are deliberately excluded — they are not
            // reconstructible from a trace.
            if let Some(h) = self.health.get(index) {
                out.u64s(&[
                    u64::from(h.restarts),
                    u64::from(h.failure_count),
                    u64::from(h.breaker_trips),
                    u64::from(h.breaker_state.tag()),
                    u64::from(h.failed),
                ]);
            }
        }
        for machine in 0..self.machines.len() {
            for lane in self.store.all_lanes() {
                out.u64s(&[self.store.lane_len(machine, lane) as u64]);
                for p in self.store.points(machine, lane) {
                    out.u64s(&[p.timestamp_ns, p.delta]);
                }
            }
        }
        out.u64s(&self.channel.sent);
        out.u64s(&self.channel.dropped);
        out.u64s(&self.channel.delivered);
        // Two zero words per machine where a host-clock stall watchdog
        // once wrote its stall and resume counts: they keep the byte
        // layout that recorded digest references pin.
        for _ in 0..2 * self.machines.len() {
            out.u64s(&[0]);
        }
    }
}

/// Where [`FleetOutcome::digest`] writes: the digest's bytes, or a byte
/// count that sizes them first, so the digest allocates once.
trait DigestOut {
    fn bytes(&mut self, bytes: &[u8]);

    fn u64s(&mut self, vals: &[u64]) {
        for v in vals {
            self.bytes(&v.to_le_bytes());
        }
    }
}

impl DigestOut for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl DigestOut for usize {
    fn bytes(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// Runs fleets described by a [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// A runner for `config`.
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// Runs every spec to completion on the worker pool.
    ///
    /// Blocks until every machine has finished and its samples are in
    /// the store. Every machine runs under the configured
    /// [`SupervisorPolicy`]: panics are contained, restarts consume the
    /// budget, and a terminal failure degrades the outcome instead of
    /// discarding it — see [`crate::supervisor`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Setup`] if pre-flight setup fails;
    /// [`FleetError::Machines`] only when **no** machine survived (the
    /// aggregated failure list covers every machine and attempt). Any
    /// surviving stream yields `Ok` with per-machine [`HealthReport`]s.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn run(&self, specs: Vec<MachineSpec>) -> Result<FleetOutcome, FleetError> {
        self.run_on(specs, workers())
    }

    /// [`FleetRunner::run`] on `width` workers.
    fn run_on(&self, specs: Vec<MachineSpec>, width: usize) -> Result<FleetOutcome, FleetError> {
        assert!(!specs.is_empty(), "fleet needs at least one machine");
        let n = specs.len();
        if let Some(dir) = &self.config.persist_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return Err(FleetError::Setup {
                    error: format!("cannot create trace directory {}: {e}", dir.display()),
                });
            }
        }
        // The budget allocator assigns each machine its base period
        // before anything runs; without a governor (or without a budget)
        // every machine gets the configured period unchanged.
        let weights: Vec<f64> = specs.iter().map(|s| s.weight).collect();
        let allocated: Vec<u64> = match &self.config.governor {
            Some(policy) => policy.allocate(self.config.period.as_nanos(), &weights),
            None => vec![self.config.period.as_nanos(); n],
        };
        // klint: allow(D1): host wall time for `elapsed`, never digested
        let started = std::time::Instant::now();
        let tasks: Vec<MachineTask> = specs
            .into_iter()
            .enumerate()
            .map(|(index, spec)| {
                let period = Duration::from_nanos(allocated[index]);
                let mut monitor =
                    Monitor::new(&self.config.events, period).tuning(self.config.tuning);
                if let Some(interval) = self.config.drain_interval {
                    monitor = monitor.drain_interval(interval);
                }
                if let Some(policy) = &self.config.governor {
                    monitor = monitor.govern(policy.rate_policy(allocated[index]));
                }
                let trace_path = self
                    .config
                    .persist_dir
                    .as_ref()
                    .map(|dir| dir.join(stream_file_name(index, &spec.label)));
                MachineTask {
                    meta: StreamMeta {
                        label: spec.label.clone(),
                        seed: spec.seed,
                        period_ns: allocated[index],
                        events: self.config.events.clone(),
                    },
                    label: spec.label,
                    seed: spec.seed,
                    monitor,
                    machine_config: self.config.machine_config,
                    faults: self.config.faults,
                    workload: spec.workload,
                    policy: self.config.supervision,
                    trace_path,
                }
            })
            .collect();
        let runs = pool(tasks, width, supervise_machine);
        self.join(runs, allocated, started)
    }

    /// Rebuilds the outcome of a recorded run, a drop-in machine source:
    /// on the same worker pool as [`FleetRunner::run`], each stream's
    /// recorded samples become its machine's report and, at join, its
    /// store shard, so store contents, channel accounting and anomaly
    /// scans all see exactly what the live run produced, and the
    /// resulting [`FleetOutcome::digest`] is byte-identical to the
    /// recorded run's.
    ///
    /// Stream order is machine order (a [`ktrace::TraceReplayer`]
    /// already restores it). The synthesized machine reports carry the
    /// recorded status and recovery ledgers; the monitored-process
    /// ground truth (`target`) is reconstructed only in outline and is
    /// deliberately excluded from the digest.
    ///
    /// # Errors
    ///
    /// [`FleetError::Machines`] if every recorded machine had failed.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    pub fn replay(&self, streams: Vec<RecoveredStream>) -> Result<FleetOutcome, FleetError> {
        self.replay_on(streams, workers())
    }

    /// [`FleetRunner::replay`] on `width` workers.
    fn replay_on(
        &self,
        streams: Vec<RecoveredStream>,
        width: usize,
    ) -> Result<FleetOutcome, FleetError> {
        assert!(!streams.is_empty(), "replay needs at least one stream");
        // The recorded stream metadata carries each machine's allocated
        // base period, so replayed governance rows match the live run's.
        let allocated: Vec<u64> = streams.iter().map(|s| s.meta.period_ns).collect();
        // klint: allow(D1): host wall time for `elapsed`, never digested
        let started = std::time::Instant::now();
        let runs = pool(streams, width, |stream| {
            // Health comes back from the persisted ledger (counts and
            // breaker state; messages are not recorded), so the replayed
            // digest covers exactly what the live one did.
            let health = HealthReport::from_stream_health(
                stream.ledger.as_ref().map(|l| l.health).unwrap_or_default(),
            );
            SupervisedRun {
                report: replayed_report(stream),
                health,
                sealed_samples: None,
            }
        });
        self.join(runs, allocated, started)
    }

    /// The shared back half of [`FleetRunner::run`] and
    /// [`FleetRunner::replay`]: with every machine finished, ingest each
    /// one's samples into its store shard and assemble the outcome, all in
    /// spec order. `allocated` holds each machine's allocator-assigned
    /// base period; `started` is the host instant taken before the first
    /// machine started.
    fn join(
        &self,
        runs: Vec<SupervisedRun>,
        allocated: Vec<u64>,
        started: std::time::Instant,
    ) -> Result<FleetOutcome, FleetError> {
        let n = runs.len();
        let mut store = FleetStore::new(n, self.config.events.clone(), SHARD_CAPACITY);
        let mut machines = Vec::with_capacity(n);
        let mut health = Vec::with_capacity(n);
        let mut delivered = Vec::with_capacity(n);
        for (index, run) in runs.into_iter().enumerate() {
            let samples = &run.report.outcome.samples;
            let count = samples.len() as u64;
            // Conservation: every sample the machine forwarded reaches its
            // shard (accepted or rejected) and, when recorded, its sealed
            // trace.
            let (accepted, rejected) = store.ingest(index, samples);
            debug_assert_eq!(
                accepted + rejected,
                count,
                "{}: the store lost samples",
                run.report.label
            );
            if let Some(sealed) = run.sealed_samples {
                debug_assert_eq!(
                    sealed, count,
                    "{}: the sealed trace disagrees with the report",
                    run.report.label
                );
            }
            delivered.push(count);
            machines.push(run.report);
            health.push(run.health);
        }
        let elapsed = started.elapsed();
        if health.iter().all(|h| h.failed) {
            return Err(FleetError::Machines {
                failures: health.into_iter().flat_map(|h| h.failures).collect(),
            });
        }

        // Governance rows, one per machine (idle rows when the fleet ran
        // ungoverned).
        let base_period_ns = self.config.period.as_nanos();
        let mut governors = Vec::with_capacity(n);
        for (report, &allocated_period_ns) in machines.iter().zip(&allocated) {
            governors.push(GovernorReport {
                label: report.label.clone(),
                base_period_ns,
                allocated_period_ns,
                stats: report.outcome.governor,
            });
        }

        let channel = ChannelStats {
            sent: delivered.clone(),
            dropped: vec![0; n],
            delivered,
            depth_high_water: 0,
            block_waits: 0,
        };
        let metrics = FleetMetrics::from_reports(store.stats(), &health, &governors);
        Ok(FleetOutcome {
            store,
            machines,
            health,
            channel,
            metrics,
            governors,
            elapsed,
        })
    }
}

/// Workers a run uses: one per core the host offers.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work` over `tasks` on `width` workers, at most one per task, and
/// returns the results in task order. Each worker runs a contiguous slice
/// of the tasks to completion. The calling thread works the first slice,
/// so `width` workers spawn `width - 1` threads.
fn pool<T: Send, R: Send>(tasks: Vec<T>, width: usize, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = tasks.len();
    let width = width.clamp(1, n.max(1));
    let mut tasks = tasks.into_iter();
    // Slice w holds tasks n·w/width up to n·(w+1)/width.
    let mut slices: Vec<Vec<T>> = (0..width)
        .map(|w| {
            tasks
                .by_ref()
                .take(n * (w + 1) / width - n * w / width)
                .collect()
        })
        .collect();
    let first = slices.remove(0);
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = slices
            .into_iter()
            .map(|slice| scope.spawn(move || slice.into_iter().map(work).collect::<Vec<R>>()))
            .collect();
        let mut results: Vec<R> = first.into_iter().map(work).collect();
        for worker in spawned {
            match worker.join() {
                Ok(slice) => results.extend(slice),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    })
}

/// Synthesizes the machine report for a replayed stream: samples from
/// the trace, status and recovery from the ledger (zeroed if the ledger
/// was destroyed), and an outline `target` — the simulator's
/// ground-truth process state is not recorded, so only its identity is
/// reconstructed.
fn replayed_report(stream: RecoveredStream) -> MachineReport {
    let ledger = stream.ledger.unwrap_or_default();
    let target = outline_target(&stream.meta.label, &stream.samples);
    // The decoded stream is complete: drop the slack its doubling growth
    // left, as the live path does, before the outcome keeps it.
    let mut samples = stream.samples;
    samples.shrink_to_fit();
    MachineReport {
        label: stream.meta.label.clone(),
        seed: stream.meta.seed,
        outcome: MonitorOutcome {
            samples,
            target,
            status: ledger.status,
            events: stream.meta.events,
            recovery: ledger.recovery,
            governor: ledger.governor,
        },
    }
}

/// An outline of the monitored process reconstructed from its samples
/// alone — identity and lifetime, no ground-truth counters. Used for
/// replayed streams and for machines that failed under supervision
/// (where the final incarnation's `MonitorOutcome` never existed).
fn outline_target(label: &str, samples: &[Sample]) -> ProcessInfo {
    let last_ts = samples.last().map_or(0, |s| s.timestamp_ns);
    let pid = samples.first().map_or(0, |s| s.pid);
    ProcessInfo {
        pid: Pid(pid),
        ppid: None,
        name: label.to_string(),
        state: ProcessState::Exited,
        core: CoreId(0),
        spawned_at: Instant::ZERO,
        exited_at: Some(Instant::from_nanos(last_ts)),
        cpu_user: Duration::ZERO,
        cpu_kernel: Duration::ZERO,
        true_user_events: EventCounts::new(),
        true_kernel_events: EventCounts::new(),
    }
}

/// The [`MachineReport`] of a machine that never completed a monitor
/// run: defaulted status and recovery ledgers (matching what the sealed
/// trace records for it) over the samples its attempts forwarded.
pub(crate) fn outline_report(
    label: &str,
    seed: u64,
    events: Vec<HwEvent>,
    samples: Vec<Sample>,
) -> MachineReport {
    let target = outline_target(label, &samples);
    MachineReport {
        label: label.to_string(),
        seed,
        outcome: MonitorOutcome {
            samples,
            target,
            status: Default::default(),
            events,
            recovery: Default::default(),
            governor: Default::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::store::Lane;
    use crate::store::Window;
    use kleb::SampleSink;
    use ksim::{FixedBlocks, Machine, WorkBlock};
    use pmu::EventCounts;

    /// A builder, not a finished config: tests chain further overrides
    /// and `.build()` at the use site.
    fn quick_config() -> FleetConfigBuilder {
        FleetConfig::builder(
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(500),
        )
        .tuning(KlebTuning::microarchitectural())
        .machine(MachineConfig::test_tiny)
    }

    fn spec(i: u64) -> MachineSpec {
        MachineSpec::new(format!("m{i}"), 40 + i, |seed| {
            Box::new(FixedBlocks::new(
                2_000 + (seed % 7) * 100,
                WorkBlock::compute(1_000, 2_670)
                    .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
            ))
        })
    }

    #[test]
    fn fleet_run_collects_every_machines_samples() {
        let outcome = FleetRunner::new(quick_config().build())
            .run((0..4).map(spec).collect())
            .unwrap();
        assert_eq!(outcome.machines.len(), 4);
        assert_eq!(outcome.channel.total_dropped(), 0, "Block is lossless");
        for (m, report) in outcome.machines.iter().enumerate() {
            // Store contents == the monitor's own sample series: nothing
            // was lost or reordered on the way into the store.
            let stored: Vec<u64> = outcome
                .store
                .points(m, Lane::INSTRUCTIONS)
                .map(|p| p.delta)
                .collect();
            let direct: Vec<u64> = report.outcome.samples.iter().map(|s| s.fixed[0]).collect();
            assert_eq!(stored, direct, "machine {m}");
            assert!(!stored.is_empty(), "machine {m} produced samples");
        }
        assert!(outcome.metrics.samples_ingested > 0);
        assert_eq!(
            outcome.metrics.samples_ingested,
            outcome.channel.total_sent()
        );
        assert!(outcome.store.fleet_window_sum(Lane::Pmc(1), Window::all()) > 0);
    }

    #[test]
    fn all_machines_failing_surfaces_every_failure() {
        let mut specs: Vec<MachineSpec> = (0..2).map(spec).collect();
        // Five events on four counters: the controller's config ioctl fails
        // on every machine — a deterministic, non-retryable error, so the
        // whole fleet is lost and every failure must be aggregated (not
        // just the first, as the old single-error path did).
        let bad = FleetConfig::builder(
            &[
                HwEvent::Load,
                HwEvent::Store,
                HwEvent::BranchRetired,
                HwEvent::BranchMiss,
                HwEvent::LlcMiss,
            ],
            Duration::from_millis(1),
        )
        .machine(MachineConfig::test_tiny)
        .build();
        specs.truncate(2);
        let err = FleetRunner::new(bad).run(specs).unwrap_err();
        let FleetError::Machines { failures } = err else {
            panic!("expected the aggregate variant, got: {err}");
        };
        assert_eq!(failures.len(), 2, "one failure per machine: {failures:?}");
        for (i, failure) in failures.iter().enumerate() {
            assert_eq!(failure.label, format!("m{i}"));
            assert_eq!(failure.kind, crate::supervisor::FailureKind::Monitor);
            assert_eq!(failure.attempt, 0, "monitor errors are never retried");
            assert!(failure.message.contains("controller"), "{failure}");
        }
    }

    #[test]
    fn metrics_table_renders_after_a_run() {
        let outcome = FleetRunner::new(quick_config().build())
            .run(vec![spec(0)])
            .unwrap();
        let table = outcome.metrics_table();
        assert!(table.contains("samples ingested"));
        assert!(table.contains("machine restarts"));
        assert!(!table.contains("stream stalls"));
    }

    #[test]
    fn injected_fault_plan_reaches_every_machine() {
        let outcome = FleetRunner::new(
            quick_config()
                .faults(ksim::FaultPlan::ring_pressure(0.5))
                .build(),
        )
        .run((0..3).map(spec).collect())
        .unwrap();
        for report in &outcome.machines {
            let status = &report.outcome.status;
            assert!(
                status.samples_dropped > 0,
                "machine {} saw no ring pressure",
                report.label
            );
            // The module's ledger stays exact under injected pressure.
            assert_eq!(
                report.outcome.samples.len() as u64 + status.samples_dropped,
                status.samples_taken,
                "machine {}",
                report.label
            );
        }
    }

    /// Records every drained batch, in drain order.
    #[derive(Debug, Clone, Default)]
    struct CaptureSink(Arc<std::sync::Mutex<Vec<Vec<Sample>>>>);

    impl SampleSink for CaptureSink {
        fn on_batch(&mut self, samples: &[Sample]) {
            self.0.lock().unwrap().push(samples.to_vec());
        }
    }

    /// Pool widths the width-independence tests run at.
    const WIDTHS: [usize; 3] = [1, 2, 4];

    /// Runs `config` over four specs as a reference with no pool and no
    /// supervisor — each spec's monitor on this thread with the same
    /// machine config, fault plan and seed, its captured batches ingested
    /// in drain order into a fresh store — and as a fleet at every pool
    /// width in [`WIDTHS`], and requires them all to agree. Returns the
    /// fleet outcome at W = 1.
    fn assert_matches_sequential_reference(config: FleetConfig) -> FleetOutcome {
        let specs: Vec<MachineSpec> = (0..4).map(spec).collect();
        let mut store = FleetStore::new(specs.len(), config.events.clone(), SHARD_CAPACITY);
        let mut outcomes = Vec::new();
        let mut sent = Vec::new();
        for (index, spec) in specs.iter().enumerate() {
            let mut machine_config = (config.machine_config)(spec.seed);
            if let Some(plan) = config.faults {
                machine_config.faults = plan;
            }
            let sink = CaptureSink::default();
            let outcome = Monitor::new(&config.events, config.period)
                .tuning(config.tuning)
                .run_with_sink(
                    &mut Machine::new(machine_config),
                    &spec.label,
                    (spec.workload)(spec.seed),
                    Box::new(sink.clone()),
                )
                .unwrap();
            let batches = std::mem::take(&mut *sink.0.lock().unwrap());
            for batch in &batches {
                store.ingest(index, batch);
            }
            sent.push(batches.iter().map(|b| b.len() as u64).sum::<u64>());
            outcomes.push((outcome, batches.concat()));
        }

        let fleets = WIDTHS.map(|width| {
            let fleet = FleetRunner::new(config.clone())
                .run_on((0..4).map(spec).collect(), width)
                .unwrap();
            for (m, (report, (reference, samples))) in
                fleet.machines.iter().zip(&outcomes).enumerate()
            {
                assert_eq!(&report.outcome.samples, samples, "W = {width}, machine {m}");
                assert_eq!(
                    report.outcome.status, reference.status,
                    "W = {width}, machine {m}"
                );
                assert_eq!(
                    report.outcome.recovery, reference.recovery,
                    "W = {width}, machine {m}"
                );
                assert_eq!(
                    fleet.store.machine_snapshot(m),
                    store.machine_snapshot(m),
                    "W = {width}, machine {m}"
                );
            }
            assert_eq!(fleet.channel.sent, sent, "W = {width}");
            fleet
        });
        let digest = fleets[0].digest();
        for (fleet, width) in fleets.iter().zip(WIDTHS) {
            assert!(fleet.digest() == digest, "the digest moved at W = {width}");
        }
        let [at_one, ..] = fleets;
        at_one
    }

    #[test]
    fn clean_fleet_matches_its_sequential_reference() {
        let fleet = assert_matches_sequential_reference(quick_config().build());
        assert_eq!(fleet.channel.total_dropped(), 0);
    }

    #[test]
    fn chaotic_fleet_matches_its_sequential_reference() {
        // Ring pressure exercises drops, retries, and the recovery
        // ledger inside each machine; the pool must not leak into any of
        // it.
        let fleet = assert_matches_sequential_reference(
            quick_config()
                .faults(ksim::FaultPlan::ring_pressure(0.4))
                .build(),
        );
        assert!(fleet
            .machines
            .iter()
            .any(|m| m.outcome.status.samples_dropped > 0));
    }

    #[test]
    fn elapsed_spans_every_machine_from_spawn_to_join() {
        // Enough machines that every worker builds several workloads.
        const MACHINES: u32 = 16;
        const STEP: std::time::Duration = std::time::Duration::from_millis(5);
        // Each machine's set-up holds the lock for one step, so the
        // set-ups run one after another, however the workers interleave:
        // every step lies between the first machine's start and the last
        // one's join.
        let setup = Arc::new(std::sync::Mutex::new(()));
        let specs = (0..MACHINES)
            .map(|i| {
                let setup = Arc::clone(&setup);
                MachineSpec::new(format!("m{i}"), 40 + u64::from(i), move |_seed| {
                    let _turn = setup.lock().unwrap();
                    std::thread::sleep(STEP);
                    Box::new(FixedBlocks::new(500, WorkBlock::compute(1_000, 2_670))) as _
                })
            })
            .collect();
        let outcome = FleetRunner::new(quick_config().build()).run(specs).unwrap();
        assert!(
            outcome.elapsed >= STEP * MACHINES,
            "elapsed {:?} misses some of the {MACHINES} serial set-up steps",
            outcome.elapsed
        );
    }

    #[test]
    fn record_then_replay_reproduces_the_digest() {
        let dir = std::env::temp_dir().join(format!("fleet-replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Ring pressure makes the run chaotic: dropped samples, retries,
        // a nontrivial recovery ledger — all of it must survive the disk
        // round trip.
        let config = quick_config()
            .faults(ksim::FaultPlan::ring_pressure(0.4))
            .persist(&dir);
        let live = FleetRunner::new(config.clone().build())
            .run((0..3).map(spec).collect())
            .unwrap();
        assert!(live
            .machines
            .iter()
            .any(|m| m.outcome.status.samples_dropped > 0));

        let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
        assert_eq!(replayer.streams.len(), 3);
        assert!(replayer.all_clean(), "clean recording recovers cleanly");
        let replayed = FleetRunner::new(config.build())
            .replay(replayer.streams)
            .unwrap();

        assert_eq!(
            live.digest(),
            replayed.digest(),
            "replay must be byte-identical to the live run"
        );
        // The anomaly scanner agrees too — same store, same verdicts.
        let cfg = crate::detect::AnomalyConfig::default();
        assert_eq!(
            crate::detect::scan_fleet(&live.store, &cfg),
            crate::detect::scan_fleet(&replayed.store, &cfg)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `spec(0)` panics on a fifth of its timer fires and recovers on a
    /// restart; `spec(2)` panics on every fire and is lost.
    fn panicky_tiny(seed: u64) -> MachineConfig {
        let mut config = MachineConfig::test_tiny(seed);
        config.faults = match seed {
            40 => ksim::FaultPlan::thread_panic(0.2),
            42 => ksim::FaultPlan::thread_panic(1.0),
            _ => ksim::FaultPlan::NONE,
        };
        config
    }

    /// What shows that a run exercised its case.
    type Exercised = fn(&FleetOutcome) -> bool;

    /// The clean, chaotic, supervised and governed runs over `spec(0..4)`.
    fn four_runs() -> [(&'static str, FleetConfigBuilder, Exercised); 4] {
        [
            ("clean", quick_config(), FleetOutcome::all_healthy),
            (
                "chaotic",
                quick_config().faults(ksim::FaultPlan::chaos(0.2)),
                |o| {
                    o.machines
                        .iter()
                        .any(|m| m.outcome.status.samples_dropped > 0)
                },
            ),
            ("supervised", quick_config().machine(panicky_tiny), |o| {
                o.health[0].restarts > 0 && !o.health[0].failed && o.health[2].failed
            }),
            (
                "governed",
                quick_config()
                    .faults(ksim::FaultPlan::ring_pressure(0.5))
                    .drain_interval(Duration::from_millis(1))
                    .govern(GovernorPolicy::new()),
                |o| o.governors.iter().any(|g| g.stats.retunes > 0),
            ),
        ]
    }

    /// A fresh directory for one test's recordings.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleet-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persisted_ledger_matches_the_live_outcome() {
        // Conservation at join: every sample a machine forwarded is in
        // its store shard, in its channel accounting and in its sealed
        // trace, whatever befell the machine.
        for (name, config, exercised) in four_runs() {
            let dir = scratch_dir(&format!("persist-{name}"));
            let live = FleetRunner::new(config.persist(&dir).build())
                .run((0..4).map(spec).collect())
                .unwrap();
            assert!(exercised(&live), "the {name} run missed its case");
            let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
            assert_eq!(replayer.streams.len(), live.machines.len(), "{name}");
            let stats = live.store.stats();
            let total: usize = live.machines.iter().map(|m| m.outcome.samples.len()).sum();
            assert_eq!(stats.appended + stats.rejected, total as u64, "{name}");
            for (m, (stream, report)) in replayer.streams.iter().zip(&live.machines).enumerate() {
                let count = report.outcome.samples.len() as u64;
                let at = format!("{name}, machine {m}");
                assert_eq!(stream.meta.label, report.label, "{at}");
                assert_eq!(stream.meta.seed, report.seed, "{at}");
                assert_eq!(stream.samples, report.outcome.samples, "{at}");
                let ledger = stream.ledger.as_ref().unwrap();
                assert_eq!(ledger.samples_written, count, "{at}");
                assert_eq!(ledger.status, report.outcome.status, "{at}");
                assert_eq!(ledger.recovery, report.outcome.recovery, "{at}");
                // Timestamps never regress, so nothing is rejected: every
                // sample is retained or was evicted.
                let retained = live.store.lane_len(m, Lane::INSTRUCTIONS) as u64;
                assert_eq!(
                    retained + live.store.evicted(m, Lane::INSTRUCTIONS),
                    count,
                    "{at}"
                );
                let ch = &live.channel;
                assert_eq!(
                    (ch.sent[m], ch.delivered[m], ch.dropped[m]),
                    (count, count, 0),
                    "{at}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn report_samples_keep_no_spare_capacity() {
        for (name, config, exercised) in four_runs() {
            let dir = scratch_dir(&format!("capacity-{name}"));
            let live = FleetRunner::new(config.clone().persist(&dir).build())
                .run((0..4).map(spec).collect())
                .unwrap();
            assert!(exercised(&live), "the {name} run missed its case");
            let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
            let replayed = FleetRunner::new(config.build())
                .replay(replayer.streams)
                .unwrap();
            for (path, outcome) in [("live", &live), ("replayed", &replayed)] {
                for (m, report) in outcome.machines.iter().enumerate() {
                    let samples = &report.outcome.samples;
                    let at = format!("{name}, {path} machine {m}");
                    assert_eq!(samples.capacity(), samples.len(), "{at}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_outcome_does_not_depend_on_the_pool_width() {
        for (name, config, exercised) in four_runs() {
            let dir = scratch_dir(&format!("width-{name}"));
            let live = WIDTHS.map(|width| {
                let recording = dir.join(width.to_string());
                let config = config.clone().persist(recording).build();
                FleetRunner::new(config)
                    .run_on((0..4).map(spec).collect(), width)
                    .unwrap()
            });
            assert!(exercised(&live[0]), "the {name} run missed its case");
            let digest = live[0].digest();
            for (outcome, width) in live.iter().zip(WIDTHS) {
                assert!(outcome.digest() == digest, "{name}: live at W = {width}");
            }
            // The W = 1 recording replays to the same digest at every
            // width.
            for width in WIDTHS {
                let replayer = ktrace::TraceReplayer::load_dir(&dir.join("1")).unwrap();
                let replayed = FleetRunner::new(config.clone().build())
                    .replay_on(replayer.streams, width)
                    .unwrap();
                assert!(replayed.digest() == digest, "{name}: replay at W = {width}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_panicking_factory_fails_only_its_own_machine() {
        // Both factories run outside the monitor attempts' containment.
        fn config_breaks_at_seed_42(seed: u64) -> MachineConfig {
            assert_ne!(seed, 42, "machine config broke");
            MachineConfig::test_tiny(seed)
        }
        // Machine 0's workload factory and machine 2's machine-config
        // factory panic. At W = 1 all four machines share the calling
        // worker; at W = 2 each panicking machine leads its worker's
        // slice, with a healthy machine after it.
        for width in [1, 2] {
            let mut specs: Vec<MachineSpec> = (0..4).map(spec).collect();
            specs[0] = MachineSpec::new("m0", 40, |_seed| panic!("workload factory broke"));
            let outcome =
                FleetRunner::new(quick_config().machine(config_breaks_at_seed_42).build())
                    .run_on(specs, width)
                    .unwrap();
            assert_eq!(outcome.machines.len(), 4);
            for (m, message) in [(0, "workload factory broke"), (2, "machine config broke")] {
                let health = &outcome.health[m];
                assert!(health.failed, "W = {width}, machine {m}: {health:?}");
                assert_eq!(health.failures.len(), 1, "W = {width}, machine {m}");
                let failure = &health.failures[0];
                assert_eq!(failure.kind, crate::supervisor::FailureKind::Panic);
                assert_eq!(failure.label, format!("m{m}"));
                assert!(failure.message.contains(message), "{failure}");
                assert!(outcome.machines[m].outcome.samples.is_empty());
            }
            for m in [1, 3] {
                assert!(outcome.health[m].is_healthy(), "W = {width}, machine {m}");
                assert!(!outcome.machines[m].outcome.samples.is_empty());
            }
            assert_eq!(outcome.metrics.machines_lost, 2);
        }
    }

    #[test]
    fn the_pool_keeps_task_order_and_works_one_slice_on_the_caller() {
        let caller = std::thread::current().id();
        for width in [1, 2, 4, 16] {
            let results = pool((0..10u32).collect(), width, |task| {
                (task, std::thread::current().id())
            });
            let order: Vec<u32> = results.iter().map(|&(task, _)| task).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "W = {width}");
            let mut workers: Vec<_> = results.iter().map(|&(_, id)| id).collect();
            workers.dedup();
            assert_eq!(workers.len(), width.min(10), "W = {width}: one slice each");
            assert_eq!(workers[0], caller, "W = {width}: the caller works");
        }
    }

    #[test]
    fn digest_allocates_exactly_its_precomputed_length() {
        for (name, config, exercised) in four_runs() {
            let outcome = FleetRunner::new(config.build())
                .run((0..4).map(spec).collect())
                .unwrap();
            assert!(exercised(&outcome), "the {name} run missed its case");
            let mut len = 0;
            outcome.write_digest(&mut len);
            let digest = outcome.digest();
            assert_eq!(digest.len(), len, "{name}");
            assert_eq!(digest.capacity(), digest.len(), "{name}: one allocation");
        }
    }
}
