//! The K-LEB kernel module.
//!
//! This is the paper's contribution (§III, Figs. 1-3): a loadable kernel
//! module that
//!
//! 1. receives its configuration (target PID, events, timer period) from a
//!    user-space controller via `ioctl`,
//! 2. attaches to the scheduler's context-switch path and enables the PMU
//!    counters *only while a tracked process is on the core*, isolating its
//!    counts from other processes,
//! 3. runs a high-resolution kernel timer that samples the counters every
//!    period into a ring buffer in kernel memory (no file I/O in the
//!    kernel), resetting them so each record is a per-period delta,
//! 4. follows forks so children of the target are tracked too,
//! 5. pauses collection when the buffer fills before the controller drains
//!    it — the starvation safety mechanism — and resumes automatically after
//!    a drain,
//! 6. takes a final partial sample when a tracked process exits, so no
//!    events are lost.

use std::collections::{BTreeSet, VecDeque};

use pmu::{msr, EventSel, HwEvent, NUM_FIXED, NUM_PROGRAMMABLE};

use ksim::{wire, CoreId, Device, Errno, FaultClass, KernelCtx, Pid, TimerId};

use crate::config::{
    ModuleStatus, MonitorConfig, IOCTL_CONFIG, IOCTL_KICK, IOCTL_SET_PERIOD, IOCTL_START,
    IOCTL_STATUS, IOCTL_STOP,
};
use crate::sample::Sample;

/// Tunable per-sample costs of the module's kernel work.
///
/// The default profile is calibrated so the end-to-end overhead of
/// K-LEB at a 10 ms sampling rate lands near the paper's Table II (see
/// EXPERIMENTS.md for the derivation); `microarchitectural()` carries
/// instruction-count-level estimates instead, used by the calibration
/// ablation to show the tool *ordering* is mechanism-driven rather than a
/// constant choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KlebTuning {
    /// Cycles of handler bookkeeping per sample (beyond MSR access costs,
    /// which are charged separately per rdmsr/wrmsr).
    pub handler_cycles: u64,
    /// Kernel cache lines the handler touches per sample (pollution).
    pub pollution_lines: u64,
    /// Cycles of tracked-set bookkeeping on every context switch.
    pub switch_cycles: u64,
    /// Cycles to set up / tear down monitoring (ioctl paths).
    pub config_cycles: u64,
}

impl Default for KlebTuning {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl KlebTuning {
    /// Effective per-sample cost derived from the paper's Tables II/III.
    pub fn paper_calibrated() -> Self {
        Self {
            handler_cycles: 165_000,
            pollution_lines: 400,
            switch_cycles: 400,
            config_cycles: 120_000,
        }
    }

    /// First-principles microcost estimates (an IRQ handler reading seven
    /// MSRs and appending one record).
    pub fn microarchitectural() -> Self {
        Self {
            handler_cycles: 12_000,
            pollution_lines: 200,
            switch_cycles: 300,
            config_cycles: 30_000,
        }
    }
}

#[derive(Debug)]
struct Armed {
    cfg: MonitorConfig,
    target_core: CoreId,
    timer: TimerId,
    /// Every pid ever tracked (target + descendants).
    tracked: BTreeSet<u32>,
    /// Tracked pids that have not exited.
    live: BTreeSet<u32>,
    /// START issued and STOP not yet issued.
    running: bool,
    /// Counters currently enabled (a tracked process is on the core).
    active: bool,
    /// Collection paused by the buffer-full safety mechanism.
    paused: bool,
    buffer: VecDeque<Sample>,
    samples_taken: u64,
    /// Samples taken but lost before buffering (ring pressure). Every loss
    /// is accounted here and visible as a `seq` hole + gap marker.
    samples_dropped: u64,
    /// Sequence number for the next sample taken.
    next_seq: u64,
    /// The next buffered sample must carry the gap marker (a drop happened
    /// since the last buffered record).
    pending_gap: bool,
    /// The next buffered sample must carry the retune marker (an acked
    /// `SET_PERIOD` landed since the last buffered record), so the sample
    /// stream records exactly where the new cadence began.
    pending_retune: bool,
    /// Usable ring capacity: the configured capacity minus whatever the
    /// fault plan's `ring_shrink` withholds. Equal to
    /// `cfg.buffer_capacity` on a healthy machine.
    effective_capacity: usize,
    pauses: u64,
    enable_mask: u64,
    /// Absolute deadline of the next expiry (`hrtimer_forward` semantics:
    /// the period is advanced from the previous deadline, not from the end
    /// of the handler, so sampling does not drift by the handler's cost).
    next_deadline: Option<ksim::Instant>,
}

/// The kernel module (a [`Device`] in the simulated kernel).
#[derive(Debug)]
pub struct KlebModule {
    tuning: KlebTuning,
    armed: Option<Armed>,
}

impl Default for KlebModule {
    fn default() -> Self {
        Self::new()
    }
}

impl KlebModule {
    /// A freshly loaded module with the default (paper-calibrated) tuning.
    pub fn new() -> Self {
        Self::with_tuning(KlebTuning::default())
    }

    /// A module with explicit cost tuning.
    pub(crate) fn with_tuning(tuning: KlebTuning) -> Self {
        Self {
            tuning,
            armed: None,
        }
    }

    fn status(&self) -> ModuleStatus {
        match &self.armed {
            None => ModuleStatus::default(),
            Some(a) => ModuleStatus {
                target_alive: !a.live.is_empty(),
                buffered: a.buffer.len() as u64,
                samples_taken: a.samples_taken,
                samples_dropped: a.samples_dropped,
                pauses: a.pauses,
                paused: a.paused,
                period_ns: a.cfg.period_ns,
            },
        }
    }

    fn configure(&mut self, ctx: &mut KernelCtx<'_>, payload: &[u8]) -> Result<i64, Errno> {
        if self.armed.as_ref().is_some_and(|a| a.running) {
            return Err(Errno::Perm); // stop before reconfiguring
        }
        let cfg = MonitorConfig::from_payload(payload).ok_or(Errno::Inval)?;
        cfg.validate().map_err(|_| Errno::Inval)?;
        let events: Vec<HwEvent> = cfg
            .events
            .iter()
            .map(|&code| HwEvent::from_code(code))
            .collect::<Option<_>>()
            .ok_or(Errno::Inval)?;
        let target = Pid(cfg.target);
        let target_info = ctx.process_info(target).ok_or(Errno::Srch)?;
        let target_core = target_info.core;

        ctx.charge_kernel_cycles(self.tuning.config_cycles);

        // Program the event-select registers on the target's core.
        let mut enable_mask = 0u64;
        for i in 0..NUM_PROGRAMMABLE {
            let bits = match events.get(i) {
                Some(&event) => {
                    enable_mask |= msr::global_ctrl_pmc_bit(i);
                    EventSel::for_event(event)
                        .usr(true)
                        .os(cfg.count_kernel)
                        .enabled(true)
                        .bits()
                }
                None => 0,
            };
            ctx.wrmsr_on(target_core, msr::perfevtsel(i), bits)
                .map_err(|_| Errno::Inval)?;
            ctx.wrmsr_on(target_core, msr::pmc(i), 0)
                .map_err(|_| Errno::Inval)?;
        }
        // Fixed counters: user bit always, OS bit per config.
        let field = 0b10 | u64::from(cfg.count_kernel);
        let fixed_ctrl = field | (field << 4) | (field << 8);
        ctx.wrmsr_on(target_core, msr::IA32_FIXED_CTR_CTRL, fixed_ctrl)
            .map_err(|_| Errno::Inval)?;
        for i in 0..NUM_FIXED {
            ctx.wrmsr_on(target_core, msr::fixed_ctr(i), 0)
                .map_err(|_| Errno::Inval)?;
            enable_mask |= msr::global_ctrl_fixed_bit(i);
        }
        // Counters stay globally disabled until a tracked process runs.
        ctx.wrmsr_on(target_core, msr::IA32_PERF_GLOBAL_CTRL, 0)
            .map_err(|_| Errno::Inval)?;

        let timer = ctx.timer_create(target_core);
        let mut tracked = BTreeSet::new();
        tracked.insert(cfg.target);
        // Pre-existing children of the target are tracked from the start.
        if cfg.track_children {
            for child in ctx.children_of(target) {
                tracked.insert(child.0);
            }
        }
        // Ring pressure can withhold part of the nominal capacity: the
        // safety stop then trips earlier, modelling a ring squeezed by
        // other kernel consumers.
        let shrink = ctx.fault_plan().ring_shrink.clamp(0.0, 1.0);
        let effective_capacity = ((cfg.buffer_capacity as f64 * (1.0 - shrink)) as usize).max(1);
        self.armed = Some(Armed {
            live: tracked.clone(),
            tracked,
            cfg,
            target_core,
            timer,
            running: false,
            active: false,
            paused: false,
            buffer: VecDeque::new(),
            samples_taken: 0,
            samples_dropped: 0,
            next_seq: 0,
            pending_gap: false,
            pending_retune: false,
            effective_capacity,
            pauses: 0,
            enable_mask,
            next_deadline: None,
        });
        Ok(0)
    }

    fn start(&mut self, ctx: &mut KernelCtx<'_>) -> Result<i64, Errno> {
        let Some(a) = self.armed.as_mut() else {
            return Err(Errno::Perm);
        };
        if a.running {
            return Err(Errno::Perm);
        }
        a.running = true;
        // If a tracked process is already on the target core, begin now.
        let on_core = ctx
            .current_on(a.target_core)
            .is_some_and(|p| a.tracked.contains(&p.0));
        if on_core {
            Self::enable(ctx, a);
        }
        Ok(0)
    }

    fn stop(&mut self, ctx: &mut KernelCtx<'_>) -> Result<i64, Errno> {
        let Some(a) = self.armed.as_mut() else {
            return Err(Errno::Perm);
        };
        ctx.charge_kernel_cycles(self.tuning.config_cycles);
        if a.active {
            let _ = ctx.wrmsr_on(a.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
        }
        ctx.timer_cancel(a.timer);
        a.running = false;
        a.active = false;
        Ok(a.buffer.len() as i64)
    }

    /// Enables counting and arms the period timer (tracked process now on
    /// the core).
    fn enable(ctx: &mut KernelCtx<'_>, a: &mut Armed) {
        let _ = ctx.wrmsr_on(a.target_core, msr::IA32_PERF_GLOBAL_CTRL, a.enable_mask);
        let deadline = ctx.now() + a.cfg.period();
        a.next_deadline = Some(deadline);
        ctx.timer_arm(a.timer, deadline);
        a.active = true;
    }

    /// Advances the periodic deadline past `now` (`hrtimer_forward`) and
    /// re-arms, so handler latency never accumulates into the period.
    fn rearm_periodic(ctx: &mut KernelCtx<'_>, a: &mut Armed) {
        let period = a.cfg.period();
        let now = ctx.now();
        let mut next = a.next_deadline.unwrap_or(now) + period;
        while next <= now {
            next += period; // overrun: skip missed expiries, like hrtimer
        }
        a.next_deadline = Some(next);
        ctx.timer_arm(a.timer, next);
    }

    /// Disables counting and stops the timer (tracked process left the
    /// core). Counter values persist, so partial periods resume seamlessly.
    fn disable(ctx: &mut KernelCtx<'_>, a: &mut Armed) {
        let _ = ctx.wrmsr_on(a.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
        ctx.timer_cancel(a.timer);
        a.active = false;
    }

    /// Reads and resets all seven counters, appending one record.
    fn take_sample(&mut self, ctx: &mut KernelCtx<'_>, final_sample: bool) {
        let tuning = self.tuning;
        let Some(a) = self.armed.as_mut() else {
            return;
        };
        ctx.charge_kernel_cycles(tuning.handler_cycles);
        ctx.touch_kernel_lines(tuning.pollution_lines);
        let mut sample = Sample {
            timestamp_ns: ctx.now().as_nanos(),
            pid: ctx.current_pid().map_or(0, |p| p.0),
            final_sample,
            ..Sample::default()
        };
        for i in 0..NUM_FIXED {
            sample.fixed[i] = ctx.rdmsr(msr::fixed_ctr(i)).unwrap_or(0);
            let _ = ctx.wrmsr(msr::fixed_ctr(i), 0);
        }
        // Only the configured counters: the remaining PMCs were never
        // enabled, and reading them would be an MSR-protocol violation
        // (their value is meaningless by contract).
        for i in 0..a.cfg.events.len().min(NUM_PROGRAMMABLE) {
            sample.pmc[i] = ctx.rdmsr(msr::pmc(i)).unwrap_or(0);
            let _ = ctx.wrmsr(msr::pmc(i), 0);
        }
        let record_cost = ctx.cost().buffer_record;
        ctx.charge_kernel_cycles(record_cost);
        sample.seq = a.next_seq;
        a.next_seq += 1;
        a.samples_taken += 1;
        if ctx.fault_fires(FaultClass::RingSlot) {
            // Ring pressure lost the slot: the counters were already read
            // and reset, so this period's deltas are gone — account the
            // loss and mark the next surviving record as after-a-gap.
            a.samples_dropped += 1;
            a.pending_gap = true;
        } else {
            sample.gap = a.pending_gap;
            a.pending_gap = false;
            sample.retune = a.pending_retune;
            a.pending_retune = false;
            a.buffer.push_back(sample);
        }

        // Starvation safety: pause collection until the controller drains.
        if a.buffer.len() >= a.effective_capacity {
            a.paused = true;
            a.pauses += 1;
            Self::disable(ctx, a);
        }
    }

    /// Re-arms a stalled sampling timer ([`IOCTL_KICK`]).
    ///
    /// A lost hrtimer expiry leaves the module believing it is sampling
    /// while no fire will ever arrive: running, active, timer armed — and
    /// the periodic deadline drifting ever further into the past. The
    /// controller detects the symptom (samples_taken frozen between status
    /// polls) and kicks; the module confirms the stall by its own deadline
    /// bookkeeping before re-arming, so spurious kicks are harmless no-ops.
    fn kick(&mut self, ctx: &mut KernelCtx<'_>) -> Result<i64, Errno> {
        let Some(a) = self.armed.as_mut() else {
            return Err(Errno::Perm);
        };
        if !a.running || !a.active || a.paused {
            return Ok(0); // not supposed to be sampling: nothing to repair
        }
        let stalled = a
            .next_deadline
            .is_some_and(|d| ctx.now() > d + a.cfg.period());
        if !stalled {
            return Ok(0);
        }
        Self::rearm_periodic(ctx, a);
        Ok(1)
    }

    /// Changes the sampling period of a configured monitor
    /// ([`IOCTL_SET_PERIOD`]).
    ///
    /// Two payload forms are accepted:
    ///
    /// * 8 bytes — a little-endian `u64` period in nanoseconds (the
    ///   original form, used by degraded-mode doubling); retval 0.
    /// * 16 bytes — period followed by a little-endian `u64` retune
    ///   sequence number. The module acks by returning the sequence
    ///   number, and marks the next buffered sample with the retune flag
    ///   so the stream records the deterministic batch boundary where the
    ///   new cadence began (the governor's record/replay contract).
    fn set_period(&mut self, ctx: &mut KernelCtx<'_>, payload: &[u8]) -> Result<i64, Errno> {
        let Some(a) = self.armed.as_mut() else {
            return Err(Errno::Perm);
        };
        let (period_ns, ack_seq) = wire::decode(payload, |r| Some((r.u64()?, None)))
            .or_else(|| wire::decode(payload, |r| Some((r.u64()?, Some(r.u64()?)))))
            .ok_or(Errno::Inval)?;
        if period_ns == 0 {
            return Err(Errno::Inval);
        }
        a.cfg.period_ns = period_ns;
        if ack_seq.is_some() {
            a.pending_retune = true;
        }
        // If the timer is live, re-arm on the new cadence immediately:
        // the retune must take effect now, not at the next stale expiry.
        if a.running && a.active && !a.paused {
            Self::rearm_periodic(ctx, a);
        }
        Ok(ack_seq.map_or(0, |seq| seq as i64))
    }
}

impl Device for KlebModule {
    fn ioctl(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        _caller: Pid,
        request: u64,
        payload: &[u8],
    ) -> Result<(i64, Vec<u8>), Errno> {
        match request {
            IOCTL_CONFIG => self.configure(ctx, payload).map(|r| (r, Vec::new())),
            IOCTL_START => self.start(ctx).map(|r| (r, Vec::new())),
            IOCTL_STOP => self.stop(ctx).map(|r| (r, Vec::new())),
            IOCTL_STATUS => Ok((0, self.status().to_payload())),
            IOCTL_KICK => self.kick(ctx).map(|r| (r, Vec::new())),
            IOCTL_SET_PERIOD => self.set_period(ctx, payload).map(|r| (r, Vec::new())),
            _ => Err(Errno::Inval),
        }
    }

    fn read(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        _caller: Pid,
        max_bytes: usize,
    ) -> Result<Vec<u8>, Errno> {
        let Some(a) = self.armed.as_mut() else {
            return Err(Errno::Perm);
        };
        let n = (max_bytes / crate::sample::RECORD_BYTES).min(a.buffer.len());
        let mut out = Vec::with_capacity(n * crate::sample::RECORD_BYTES);
        for _ in 0..n {
            let Some(s) = a.buffer.pop_front() else {
                break; // n is bounded by buffer length, but never panic
            };
            s.encode_into(&mut out);
        }
        let copy_cost = n as u64 * ctx.cost().copy_to_user_record;
        ctx.charge_kernel_cycles(copy_cost);

        // Resume after the safety stop once half the (usable) buffer is
        // free.
        if a.paused && a.buffer.len() <= a.effective_capacity / 2 {
            a.paused = false;
            if a.running {
                let on_core = ctx
                    .current_on(a.target_core)
                    .is_some_and(|p| a.tracked.contains(&p.0));
                if on_core {
                    Self::enable(ctx, a);
                }
            }
        }
        Ok(out)
    }

    fn on_context_switch(&mut self, ctx: &mut KernelCtx<'_>, prev: Option<Pid>, next: Option<Pid>) {
        let tuning = self.tuning;
        let Some(a) = self.armed.as_mut() else {
            return;
        };
        if !a.running || ctx.core() != a.target_core {
            return;
        }
        ctx.charge_kernel_cycles(tuning.switch_cycles);
        let prev_tracked = prev.is_some_and(|p| a.tracked.contains(&p.0));
        let next_tracked = next.is_some_and(|p| a.tracked.contains(&p.0));
        if a.paused {
            return; // safety stop: stay off until a drain resumes us
        }
        match (a.active, prev_tracked, next_tracked) {
            (false, _, true) => Self::enable(ctx, a),
            (true, true, false) => Self::disable(ctx, a),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut KernelCtx<'_>, _timer: TimerId) {
        let active = self.armed.as_ref().is_some_and(|a| a.running && a.active);
        if !active {
            return; // stale expiry racing a deschedule
        }
        self.take_sample(ctx, false);
        if let Some(a) = self.armed.as_mut() {
            if a.active && !a.paused {
                Self::rearm_periodic(ctx, a);
            }
        }
    }

    fn on_spawn(&mut self, _ctx: &mut KernelCtx<'_>, parent: Option<Pid>, child: Pid) {
        let Some(a) = self.armed.as_mut() else {
            return;
        };
        if !a.cfg.track_children {
            return;
        }
        if parent.is_some_and(|p| a.tracked.contains(&p.0)) {
            a.tracked.insert(child.0);
            a.live.insert(child.0);
        }
    }

    fn on_exit(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) {
        let is_tracked = self
            .armed
            .as_ref()
            .is_some_and(|a| a.tracked.contains(&pid.0));
        if !is_tracked {
            return;
        }
        // Capture the final partial period while the counters still hold it.
        let take_final = self
            .armed
            .as_ref()
            .is_some_and(|a| a.running && a.active && !a.paused && ctx.core() == a.target_core);
        if take_final {
            self.take_sample(ctx, true);
        }
        if let Some(a) = self.armed.as_mut() {
            a.live.remove(&pid.0);
            if a.live.is_empty() && a.active {
                Self::disable(ctx, a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Module-level tests drive the device through a real [`ksim::Machine`]
    //! with scripted controller workloads; richer end-to-end scenarios live
    //! in `api.rs` and the crate's integration tests.

    use super::*;
    use crate::config::MonitorConfig;
    use ksim::{
        Duration, FixedBlocks, ItemResult, Machine, MachineConfig, Syscall, WorkBlock, WorkItem,
        Workload,
    };
    use std::sync::{Arc, Mutex};

    /// Scripted controller: configure, start, resume target, sleep, drain
    /// everything, stop; samples land in the shared sink.
    #[derive(Debug)]
    struct ScriptController {
        device: ksim::DeviceId,
        cfg: MonitorConfig,
        target: Pid,
        sink: Arc<Mutex<Vec<Sample>>>,
        statuses: Arc<Mutex<Vec<ModuleStatus>>>,
        phase: u32,
        sleep: Duration,
        rounds: u32,
    }

    impl Workload for ScriptController {
        fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
            // Collect any drained payload.
            if let ItemResult::Syscall { payload, .. } = prev {
                if !payload.is_empty() {
                    if let Some(status) = ModuleStatus::from_payload(payload) {
                        self.statuses.lock().unwrap().push(status);
                    } else {
                        self.sink
                            .lock()
                            .unwrap()
                            .extend(Sample::decode_all(payload));
                    }
                }
            }
            let phase = self.phase;
            self.phase += 1;
            match phase {
                0 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.device,
                    request: IOCTL_CONFIG,
                    payload: self.cfg.to_payload(),
                })),
                1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.device,
                    request: IOCTL_START,
                    payload: vec![],
                })),
                2 => Some(WorkItem::Syscall(Syscall::Resume(self.target))),
                p if p < 3 + self.rounds * 2 => {
                    if (p - 3) % 2 == 0 {
                        Some(WorkItem::Sleep(self.sleep))
                    } else {
                        Some(WorkItem::Syscall(Syscall::Read {
                            device: self.device,
                            max_bytes: 1 << 20,
                        }))
                    }
                }
                p if p == 3 + self.rounds * 2 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.device,
                    request: IOCTL_STOP,
                    payload: vec![],
                })),
                p if p == 4 + self.rounds * 2 => Some(WorkItem::Syscall(Syscall::Read {
                    device: self.device,
                    max_bytes: 1 << 20,
                })),
                p if p == 5 + self.rounds * 2 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.device,
                    request: IOCTL_STATUS,
                    payload: vec![],
                })),
                _ => None,
            }
        }
    }

    struct Harness {
        machine: Machine,
        target: Pid,
        controller: Pid,
        sink: Arc<Mutex<Vec<Sample>>>,
        statuses: Arc<Mutex<Vec<ModuleStatus>>>,
    }

    fn harness(workload: Box<dyn Workload>, period: Duration, capacity: usize) -> Harness {
        harness_on(MachineConfig::test_tiny(5), workload, period, capacity)
    }

    fn harness_on(
        machine_cfg: MachineConfig,
        workload: Box<dyn Workload>,
        period: Duration,
        capacity: usize,
    ) -> Harness {
        let mut machine = Machine::new(machine_cfg);
        let device = machine.register_device(Box::new(KlebModule::with_tuning(
            KlebTuning::microarchitectural(),
        )));
        let target = machine.spawn_suspended("target", ksim::CoreId(0), workload);
        let mut cfg = MonitorConfig::new(
            target,
            &[HwEvent::Load, HwEvent::Store, HwEvent::LlcMiss],
            period,
        );
        cfg.buffer_capacity = capacity;
        let sink = Arc::new(Mutex::new(Vec::new()));
        let statuses = Arc::new(Mutex::new(Vec::new()));
        let controller = machine.spawn(
            "controller",
            ksim::CoreId(1),
            Box::new(ScriptController {
                device,
                cfg,
                target,
                sink: sink.clone(),
                statuses: statuses.clone(),
                phase: 0,
                sleep: Duration::from_millis(2),
                rounds: 30,
            }),
        );
        Harness {
            machine,
            target,
            controller,
            sink,
            statuses,
        }
    }

    /// ~10ms of compute in ~1µs blocks.
    fn compute_workload() -> Box<dyn Workload> {
        Box::new(FixedBlocks::new(10_000, WorkBlock::compute(1_000, 2_670)))
    }

    #[test]
    fn periodic_samples_cover_the_run() {
        let mut h = harness(compute_workload(), Duration::from_micros(500), 8192);
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let samples = h.sink.lock().unwrap();
        // ~10ms of work at 500µs → about 20 samples (+1 final).
        assert!(
            samples.len() >= 15 && samples.len() <= 30,
            "got {} samples",
            samples.len()
        );
        assert!(samples.last().unwrap().final_sample);
        // Timestamps strictly increase.
        for w in samples.windows(2) {
            assert!(w[1].timestamp_ns > w[0].timestamp_ns);
        }
    }

    #[test]
    fn sample_deltas_sum_to_true_counts() {
        let mut h = harness(compute_workload(), Duration::from_micros(500), 8192);
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let samples = h.sink.lock().unwrap();
        let total_instructions: u64 = samples.iter().map(|s| s.instructions()).sum();
        let truth = h
            .machine
            .process(h.target)
            .true_user_events
            .get(HwEvent::InstructionsRetired);
        assert_eq!(
            total_instructions, truth,
            "per-period deltas must sum exactly to the process's true count"
        );
    }

    #[test]
    fn counts_isolated_from_other_processes() {
        let mut h = harness(compute_workload(), Duration::from_micros(500), 8192);
        // A noisy neighbour on the same core, never tracked.
        h.machine.spawn(
            "noise",
            ksim::CoreId(0),
            Box::new(FixedBlocks::new(20_000, WorkBlock::compute(1_000, 2_670))),
        );
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let samples = h.sink.lock().unwrap();
        let total: u64 = samples.iter().map(|s| s.instructions()).sum();
        let truth = h
            .machine
            .process(h.target)
            .true_user_events
            .get(HwEvent::InstructionsRetired);
        assert_eq!(total, truth, "neighbour's instructions must not leak in");
    }

    #[test]
    fn safety_stop_pauses_and_resumes() {
        // Tiny buffer (8 records) with fast sampling and slow drains forces
        // the starvation safety mechanism to trip.
        let mut h = harness(compute_workload(), Duration::from_micros(100), 8);
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let statuses = h.statuses.lock().unwrap();
        let final_status = statuses.last().expect("controller queried status");
        assert!(final_status.pauses > 0, "safety stop should have tripped");
        // And collection resumed after drains: more samples than capacity.
        assert!(final_status.samples_taken > 8);
        // Nothing was dropped: every taken sample was either drained or
        // still buffered at stop time (we drained after stop).
        assert_eq!(final_status.samples_dropped, 0);
        let drained = h.sink.lock().unwrap().len() as u64;
        assert_eq!(
            drained + final_status.samples_dropped,
            final_status.samples_taken
        );
        // Sequence numbers are gap-free on a healthy machine.
        let samples = h.sink.lock().unwrap();
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert!(!s.gap);
        }
    }

    #[test]
    fn ring_pressure_drops_are_accounted_with_gap_markers() {
        let mut cfg = MachineConfig::test_tiny(5);
        cfg.faults = ksim::FaultPlan::ring_pressure(0.2);
        let mut h = harness_on(cfg, compute_workload(), Duration::from_micros(100), 8192);
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let status = *h.statuses.lock().unwrap().last().expect("status polled");
        assert!(status.samples_dropped > 0, "20% pressure must drop some");
        let samples = h.sink.lock().unwrap();
        // The ledger balances: everything taken was drained or accounted
        // as dropped (the controller drains to empty after stop).
        assert_eq!(
            samples.len() as u64 + status.samples_dropped,
            status.samples_taken
        );
        // Sequence numbers strictly increase, and every hole is flagged on
        // the next surviving record.
        let mut holes = 0u64;
        for w in samples.windows(2) {
            assert!(w[1].seq > w[0].seq);
            if w[1].seq > w[0].seq + 1 {
                holes += w[1].seq - w[0].seq - 1;
                assert!(w[1].gap, "a seq hole must carry the gap marker");
            }
        }
        assert!(holes > 0, "drops must be visible as seq holes");
    }

    #[test]
    fn missed_timer_fires_stall_until_kicked() {
        // Timer expiries are always lost: without IOCTL_KICK the module
        // would sample at most once per enable edge.
        let mut cfg = MachineConfig::test_tiny(5);
        cfg.faults = ksim::FaultPlan {
            timer_miss_rate: 1.0,
            ..ksim::FaultPlan::NONE
        };
        let mut machine = Machine::new(cfg);
        let device = machine.register_device(Box::new(KlebModule::with_tuning(
            KlebTuning::microarchitectural(),
        )));
        let target = machine.spawn_suspended("target", ksim::CoreId(0), compute_workload());
        let mon = MonitorConfig::new(target, &[HwEvent::Load], Duration::from_micros(200));

        /// Configure, start, resume, then alternate sleep + KICK forever.
        #[derive(Debug)]
        struct Kicker {
            device: ksim::DeviceId,
            cfg: MonitorConfig,
            target: Pid,
            phase: u32,
            kicks_honoured: Arc<Mutex<u64>>,
        }
        impl Workload for Kicker {
            fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
                if self.phase > 3 {
                    if let Some(1) = prev.retval() {
                        *self.kicks_honoured.lock().unwrap() += 1;
                    }
                }
                let phase = self.phase;
                self.phase += 1;
                match phase {
                    0 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_CONFIG,
                        payload: self.cfg.to_payload(),
                    })),
                    1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_START,
                        payload: vec![],
                    })),
                    2 => Some(WorkItem::Syscall(Syscall::Resume(self.target))),
                    p if p < 60 => {
                        if p % 2 == 1 {
                            Some(WorkItem::Sleep(Duration::from_micros(500)))
                        } else {
                            Some(WorkItem::Syscall(Syscall::Ioctl {
                                device: self.device,
                                request: IOCTL_KICK,
                                payload: vec![],
                            }))
                        }
                    }
                    _ => None,
                }
            }
        }
        let kicks_honoured = Arc::new(Mutex::new(0));
        let controller = machine.spawn(
            "controller",
            ksim::CoreId(1),
            Box::new(Kicker {
                device,
                cfg: mon,
                target,
                phase: 0,
                kicks_honoured: kicks_honoured.clone(),
            }),
        );
        machine.run_until_exit(target).unwrap();
        machine.run_until_exit(controller).unwrap();
        assert!(
            *kicks_honoured.lock().unwrap() > 0,
            "kicks must repair stalled timers (every fire is lost here)"
        );
    }

    #[test]
    fn set_period_changes_cadence_and_status_reports_it() {
        let mut machine = Machine::new(MachineConfig::test_tiny(5));
        let device = machine.register_device(Box::new(KlebModule::with_tuning(
            KlebTuning::microarchitectural(),
        )));
        let target = machine.spawn_suspended("target", ksim::CoreId(0), compute_workload());
        let mon = MonitorConfig::new(target, &[HwEvent::Load], Duration::from_micros(100));

        #[derive(Debug)]
        struct PeriodChanger {
            device: ksim::DeviceId,
            cfg: MonitorConfig,
            target: Pid,
            phase: u32,
            statuses: Arc<Mutex<Vec<ModuleStatus>>>,
            retvals: Arc<Mutex<Vec<i64>>>,
        }
        impl Workload for PeriodChanger {
            fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
                if let ItemResult::Syscall { retval, payload } = prev {
                    if let Some(s) = ModuleStatus::from_payload(payload) {
                        self.statuses.lock().unwrap().push(s);
                    }
                    self.retvals.lock().unwrap().push(*retval);
                }
                let phase = self.phase;
                self.phase += 1;
                match phase {
                    0 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_CONFIG,
                        payload: self.cfg.to_payload(),
                    })),
                    1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_START,
                        payload: vec![],
                    })),
                    2 => Some(WorkItem::Syscall(Syscall::Resume(self.target))),
                    3 => Some(WorkItem::Sleep(Duration::from_millis(1))),
                    // Double the period mid-run, then malformed + zero.
                    4 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_SET_PERIOD,
                        payload: 200_000u64.to_le_bytes().to_vec(),
                    })),
                    5 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_SET_PERIOD,
                        payload: vec![1, 2, 3],
                    })),
                    6 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_SET_PERIOD,
                        payload: 0u64.to_le_bytes().to_vec(),
                    })),
                    7 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_STATUS,
                        payload: vec![],
                    })),
                    _ => None,
                }
            }
        }
        let statuses = Arc::new(Mutex::new(Vec::new()));
        let retvals = Arc::new(Mutex::new(Vec::new()));
        let controller = machine.spawn(
            "controller",
            ksim::CoreId(1),
            Box::new(PeriodChanger {
                device,
                cfg: mon,
                target,
                phase: 0,
                statuses: statuses.clone(),
                retvals: retvals.clone(),
            }),
        );
        machine.run_until_exit(controller).unwrap();
        let status = *statuses.lock().unwrap().last().expect("status polled");
        assert_eq!(status.period_ns, 200_000, "doubled period is in effect");
        let r = retvals.lock().unwrap();
        // set_period: ok, then EINVAL for short payload and zero period.
        assert!(r.windows(3).any(|w| w == [0, -22, -22]), "retvals: {r:?}");
    }

    #[test]
    fn set_period_with_seq_acks_and_marks_the_next_sample() {
        let mut machine = Machine::new(MachineConfig::test_tiny(5));
        let device = machine.register_device(Box::new(KlebModule::with_tuning(
            KlebTuning::microarchitectural(),
        )));
        let target = machine.spawn_suspended("target", ksim::CoreId(0), compute_workload());
        let mon = MonitorConfig::new(target, &[HwEvent::Load], Duration::from_micros(100));

        #[derive(Debug)]
        struct Retuner {
            device: ksim::DeviceId,
            cfg: MonitorConfig,
            target: Pid,
            phase: u32,
            sink: Arc<Mutex<Vec<Sample>>>,
            retvals: Arc<Mutex<Vec<i64>>>,
        }
        impl Workload for Retuner {
            fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
                if let ItemResult::Syscall { retval, payload } = prev {
                    self.retvals.lock().unwrap().push(*retval);
                    if !payload.is_empty() {
                        self.sink
                            .lock()
                            .unwrap()
                            .extend(Sample::decode_all(payload));
                    }
                }
                let phase = self.phase;
                self.phase += 1;
                match phase {
                    0 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_CONFIG,
                        payload: self.cfg.to_payload(),
                    })),
                    1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_START,
                        payload: vec![],
                    })),
                    2 => Some(WorkItem::Syscall(Syscall::Resume(self.target))),
                    3 => Some(WorkItem::Sleep(Duration::from_millis(1))),
                    4 => {
                        // Governed form: period + retune sequence number.
                        let mut payload = 400_000u64.to_le_bytes().to_vec();
                        payload.extend_from_slice(&42u64.to_le_bytes());
                        Some(WorkItem::Syscall(Syscall::Ioctl {
                            device: self.device,
                            request: IOCTL_SET_PERIOD,
                            payload,
                        }))
                    }
                    5 => Some(WorkItem::Sleep(Duration::from_millis(2))),
                    6 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_STOP,
                        payload: vec![],
                    })),
                    7 => Some(WorkItem::Syscall(Syscall::Read {
                        device: self.device,
                        max_bytes: 1 << 20,
                    })),
                    _ => None,
                }
            }
        }
        let sink = Arc::new(Mutex::new(Vec::new()));
        let retvals = Arc::new(Mutex::new(Vec::new()));
        let controller = machine.spawn(
            "controller",
            ksim::CoreId(1),
            Box::new(Retuner {
                device,
                cfg: mon,
                target,
                phase: 0,
                sink: sink.clone(),
                retvals: retvals.clone(),
            }),
        );
        machine.run_until_exit(controller).unwrap();
        let r = retvals.lock().unwrap();
        assert!(r.contains(&42), "the module must ack the retune seq: {r:?}");
        let samples = sink.lock().unwrap();
        let marked: Vec<usize> = samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.retune)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(marked.len(), 1, "exactly one retune boundary: {marked:?}");
        let at = marked[0];
        assert!(at > 0, "samples were taken before the retune landed");
        // Cadence after the marked sample follows the retuned period.
        if at + 1 < samples.len() {
            let dt = samples[at + 1].timestamp_ns - samples[at].timestamp_ns;
            assert!(dt >= 350_000, "post-retune cadence ~400µs, got {dt}ns");
        }
    }

    #[test]
    fn children_are_tracked() {
        #[derive(Debug)]
        struct Forker {
            phase: u32,
        }
        impl Workload for Forker {
            fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
                self.phase += 1;
                match self.phase {
                    1 => Some(WorkItem::Spawn {
                        name: "worker".into(),
                        core: None,
                        suspended: false,
                        child: Box::new(FixedBlocks::new(3_000, WorkBlock::compute(1_000, 2_670))),
                    }),
                    2 => Some(WorkItem::Block(WorkBlock::compute(1_000, 2_670))),
                    _ => None,
                }
            }
        }
        let mut h = harness(
            Box::new(Forker { phase: 0 }),
            Duration::from_micros(500),
            8192,
        );
        h.machine.run_until_exit(h.target).unwrap();
        h.machine.run_until_exit(h.controller).unwrap();
        let samples = h.sink.lock().unwrap();
        let total: u64 = samples.iter().map(|s| s.instructions()).sum();
        // Child pid is target+... find the worker process (name match).
        let worker_truth: u64 = (1..=3)
            .map(Pid)
            .filter(|p| h.machine.process(*p).name == "worker")
            .map(|p| {
                h.machine
                    .process(p)
                    .true_user_events
                    .get(HwEvent::InstructionsRetired)
            })
            .sum();
        let target_truth = h
            .machine
            .process(h.target)
            .true_user_events
            .get(HwEvent::InstructionsRetired);
        assert!(worker_truth > 0, "worker ran");
        assert_eq!(
            total,
            worker_truth + target_truth,
            "samples cover parent and child"
        );
    }

    #[test]
    fn stop_before_configure_is_rejected() {
        let mut machine = Machine::new(MachineConfig::test_tiny(5));
        let device = machine.register_device(Box::new(KlebModule::new()));
        #[derive(Debug)]
        struct BadCaller {
            device: ksim::DeviceId,
            retvals: Arc<Mutex<Vec<i64>>>,
            phase: u32,
        }
        impl Workload for BadCaller {
            fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
                if let Some(r) = prev.retval() {
                    self.retvals.lock().unwrap().push(r);
                }
                self.phase += 1;
                match self.phase {
                    1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_STOP,
                        payload: vec![],
                    })),
                    2 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_START,
                        payload: vec![],
                    })),
                    3 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: IOCTL_CONFIG,
                        payload: b"garbage".to_vec(),
                    })),
                    4 => Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: 0xDEAD,
                        payload: vec![],
                    })),
                    _ => None,
                }
            }
        }
        let retvals = Arc::new(Mutex::new(Vec::new()));
        let pid = machine.spawn(
            "bad",
            ksim::CoreId(0),
            Box::new(BadCaller {
                device,
                retvals: retvals.clone(),
                phase: 0,
            }),
        );
        machine.run_until_exit(pid).unwrap();
        let r = retvals.lock().unwrap();
        assert_eq!(r.as_slice(), &[-1, -1, -22, -22]);
    }

    #[test]
    fn config_for_missing_process_is_esrch() {
        let mut machine = Machine::new(MachineConfig::test_tiny(5));
        let device = machine.register_device(Box::new(KlebModule::new()));
        #[derive(Debug)]
        struct Caller {
            device: ksim::DeviceId,
            retval: Arc<Mutex<i64>>,
            done: bool,
        }
        impl Workload for Caller {
            fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
                if let Some(r) = prev.retval() {
                    *self.retval.lock().unwrap() = r;
                }
                if self.done {
                    return None;
                }
                self.done = true;
                let cfg = MonitorConfig::new(Pid(999), &[HwEvent::Load], Duration::from_millis(1));
                Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.device,
                    request: IOCTL_CONFIG,
                    payload: cfg.to_payload(),
                }))
            }
        }
        let retval = Arc::new(Mutex::new(0));
        let pid = machine.spawn(
            "c",
            ksim::CoreId(0),
            Box::new(Caller {
                device,
                retval: retval.clone(),
                done: false,
            }),
        );
        machine.run_until_exit(pid).unwrap();
        assert_eq!(*retval.lock().unwrap(), Errno::Srch.as_retval());
    }
}
