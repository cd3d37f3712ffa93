//! LiMiT-style monitoring (Demme & Sethumadhavan, ISCA'11; paper §II-B, §V).
//!
//! LiMiT is a *kernel patch* that lets user code read the performance
//! counters directly with `rdpmc` — no system call per read, which is why
//! its per-read cost beats PAPI's. The trade-offs the paper calls out:
//!
//! - it patches the kernel (cannot be used on a running system — the paper
//!   had to keep a separate Ubuntu 12.04 / 2.6.32 machine for it, and could
//!   not run it at all for Table III's modern-MKL setup);
//! - the patch virtualizes counters at context switches (save/restore so
//!   each process sees only its own counts), a per-switch tax;
//! - like PAPI it requires source instrumentation, and the instrumentation
//!   itself executes inside the monitored program.

use std::sync::{Arc, Mutex};

use pmu::{msr, EventCode, EventSel, HwEvent, NUM_FIXED};

use ksim::{
    wire, CoreId, Device, DeviceId, Duration, Errno, ItemResult, KernelCtx, Machine, Pid, Syscall,
    WorkBlock, WorkItem, Workload,
};

use crate::common::{known_events, put_event_codes, read_event_codes, ToolRun, ToolSample};
use crate::ToolError;

/// `ioctl`: enable the LiMiT patch for the calling process. The payload is
/// the events as a [`ksim::wire`] list of `(event, umask)` byte pairs.
pub(crate) const LIMIT_OPEN: u64 = 0x5201;

/// LiMiT cost profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitCosts {
    /// Patch session setup.
    pub open_cycles: u64,
    /// Per-context-switch counter save/restore + 64-bit virtualization.
    pub switch_cycles: u64,
    /// User cycles per read point (the double-read overflow protocol,
    /// delta computation, log append) beyond the raw `rdpmc`s.
    pub read_user_cycles: u64,
}

impl Default for LimitCosts {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl LimitCosts {
    /// Effective costs derived from the paper's Table II (LiMiT 4.08 %).
    pub fn paper_calibrated() -> Self {
        Self {
            open_cycles: 4_000_000,
            switch_cycles: 8_000,
            read_user_cycles: 1_040_000,
        }
    }

    /// First-principles microcost estimates.
    pub fn microarchitectural() -> Self {
        Self {
            open_cycles: 300_000,
            switch_cycles: 3_000,
            read_user_cycles: 3_000,
        }
    }
}

/// Session configuration crossing the [`LIMIT_OPEN`] boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LimitOpenConfig {
    /// Events for the programmable counters.
    pub events: Vec<EventCode>,
}

impl LimitOpenConfig {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_event_codes(&mut out, &self.events);
        out
    }

    pub(crate) fn decode(payload: &[u8]) -> Option<Self> {
        wire::decode(payload, |r| {
            Some(Self {
                events: read_event_codes(r)?,
            })
        })
    }
}

#[derive(Debug)]
struct Session {
    target_core: CoreId,
    tracked: std::collections::BTreeSet<u32>,
    active: bool,
    enable_mask: u64,
}

/// The LiMiT kernel patch.
#[derive(Debug)]
pub(crate) struct LimitKernel {
    costs: LimitCosts,
    session: Option<Session>,
}

impl LimitKernel {
    /// A fresh (patched-in) instance.
    pub(crate) fn new(costs: LimitCosts) -> Self {
        Self {
            costs,
            session: None,
        }
    }
}

impl Device for LimitKernel {
    fn ioctl(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        caller: Pid,
        request: u64,
        payload: &[u8],
    ) -> Result<(i64, Vec<u8>), Errno> {
        if request != LIMIT_OPEN {
            return Err(Errno::Inval);
        }
        if self.session.is_some() {
            return Err(Errno::Perm);
        }
        let cfg = LimitOpenConfig::decode(payload).ok_or(Errno::Inval)?;
        if cfg.events.len() > pmu::NUM_PROGRAMMABLE {
            return Err(Errno::Inval);
        }
        let events = known_events(&cfg.events)?;
        ctx.charge_kernel_cycles(self.costs.open_cycles);
        let info = ctx.process_info(caller).ok_or(Errno::Srch)?;
        let target_core = info.core;
        let mut mask = 0u64;
        for i in 0..pmu::NUM_PROGRAMMABLE {
            let bits = match events.get(i) {
                Some(&event) => {
                    mask |= msr::global_ctrl_pmc_bit(i);
                    // LiMiT counts user-mode only: its reads happen in user
                    // code and isolate the process's own work.
                    EventSel::for_event(event).usr(true).enabled(true).bits()
                }
                None => 0,
            };
            let _ = ctx.wrmsr_on(target_core, msr::perfevtsel(i), bits);
            let _ = ctx.wrmsr_on(target_core, msr::pmc(i), 0);
        }
        let _ = ctx.wrmsr_on(
            target_core,
            msr::IA32_FIXED_CTR_CTRL,
            0b010 | (0b010 << 4) | (0b010 << 8),
        );
        for i in 0..NUM_FIXED {
            let _ = ctx.wrmsr_on(target_core, msr::fixed_ctr(i), 0);
            mask |= msr::global_ctrl_fixed_bit(i);
        }
        let mut tracked = std::collections::BTreeSet::new();
        tracked.insert(caller.0);
        let mut s = Session {
            target_core,
            tracked,
            active: false,
            enable_mask: mask,
        };
        // Caller is running right now (it made the syscall): enable.
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, mask);
        s.active = true;
        self.session = Some(s);
        Ok((0, Vec::new()))
    }

    fn on_context_switch(&mut self, ctx: &mut KernelCtx<'_>, prev: Option<Pid>, next: Option<Pid>) {
        let costs = self.costs;
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if ctx.core() != s.target_core {
            return;
        }
        let prev_tracked = prev.is_some_and(|p| s.tracked.contains(&p.0));
        let next_tracked = next.is_some_and(|p| s.tracked.contains(&p.0));
        match (s.active, prev_tracked, next_tracked) {
            (false, _, true) => {
                // Restore the process's counter state.
                ctx.charge_kernel_cycles(costs.switch_cycles);
                let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, s.enable_mask);
                s.active = true;
            }
            (true, true, false) => {
                // Save and stop counting for other processes.
                ctx.charge_kernel_cycles(costs.switch_cycles);
                let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
                s.active = false;
            }
            _ => {}
        }
    }

    fn on_spawn(&mut self, _ctx: &mut KernelCtx<'_>, parent: Option<Pid>, child: Pid) {
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if parent.is_some_and(|p| s.tracked.contains(&p.0)) {
            s.tracked.insert(child.0);
        }
    }

    fn on_exit(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) {
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if s.tracked.contains(&pid.0) && s.active && ctx.core() == s.target_core {
            let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
            s.active = false;
        }
    }
}

#[derive(Debug, Default)]
struct LimitShared {
    samples: Vec<ToolSample>,
    totals: Option<Vec<u64>>,
    fixed_totals: [u64; 3],
    error: Option<String>,
}

/// `rdpmc` index encoding for fixed counter `n` (bit 30 set).
const RDPMC_FIXED: u32 = 0x4000_0000;

/// A workload instrumented with LiMiT user-space counter reads.
#[derive(Debug)]
struct LimitInstrumented {
    inner: Box<dyn Workload>,
    device: DeviceId,
    events: Vec<HwEvent>,
    read_every: u64,
    costs: LimitCosts,
    shared: Arc<Mutex<LimitShared>>,
    blocks_seen: u64,
    opened: bool,
    finished: bool,
    pending: Pending,
    stashed_inner: Option<ItemResult>,
    first: Option<Vec<u64>>,
    last: Option<Vec<u64>>,
    queue: std::collections::VecDeque<WorkItem>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    OpenResult,
    BaselineRead,
    Read { is_final: bool },
}

impl LimitInstrumented {
    fn new(
        inner: Box<dyn Workload>,
        device: DeviceId,
        events: Vec<HwEvent>,
        read_every: u64,
        costs: LimitCosts,
        shared: Arc<Mutex<LimitShared>>,
    ) -> Self {
        assert!(read_every > 0);
        Self {
            inner,
            device,
            events,
            read_every,
            costs,
            shared,
            blocks_seen: 0,
            opened: false,
            finished: false,
            pending: Pending::None,
            stashed_inner: None,
            first: None,
            last: None,
            queue: std::collections::VecDeque::new(),
        }
    }

    fn open_item(&self) -> WorkItem {
        let cfg = LimitOpenConfig {
            events: self.events.iter().map(|e| e.code()).collect(),
        };
        WorkItem::Syscall(Syscall::Ioctl {
            device: self.device,
            request: LIMIT_OPEN,
            payload: cfg.encode(),
        })
    }

    /// The counters one instrumentation read covers: only the programmed
    /// PMCs (reading an unprogrammed counter violates the MSR protocol —
    /// its value is meaningless by contract) plus the three fixed counters.
    fn rdpmc_indices(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.events.len() as u32).collect();
        idx.extend((0..NUM_FIXED as u32).map(|n| RDPMC_FIXED | n));
        idx
    }

    fn record_read(&mut self, values: &[u64], is_final: bool) {
        // Layout matches rdpmc_indices: events.len() PMCs, then 3 fixed.
        let n = self.events.len();
        let mut shared = self.shared.lock().unwrap();
        if let Some(last) = &self.last {
            let delta: Vec<u64> = values
                .iter()
                .zip(last)
                .take(n)
                .map(|(now, then)| now.wrapping_sub(*then))
                .collect();
            let instr_delta = values[n].wrapping_sub(last[n]);
            shared.samples.push(ToolSample {
                timestamp_ns: 0,
                values: delta,
                instructions: instr_delta,
            });
        }
        if is_final {
            if let Some(first) = &self.first {
                shared.totals = Some(
                    values
                        .iter()
                        .zip(first)
                        .take(n)
                        .map(|(now, then)| now.wrapping_sub(*then))
                        .collect(),
                );
                shared.fixed_totals = [
                    values[n].wrapping_sub(first[n]),
                    values[n + 1].wrapping_sub(first[n + 1]),
                    values[n + 2].wrapping_sub(first[n + 2]),
                ];
            }
        }
        drop(shared);
        self.last = Some(values.to_vec());
    }
}

impl Workload for LimitInstrumented {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        match self.pending {
            Pending::OpenResult => {
                self.pending = Pending::BaselineRead;
                if let Some(r) = prev.retval() {
                    if r != 0 {
                        self.shared.lock().unwrap().error =
                            Some(format!("LiMiT setup failed: {r}"));
                        return None;
                    }
                }
                return Some(WorkItem::Rdpmc(self.rdpmc_indices()));
            }
            Pending::BaselineRead => {
                self.pending = Pending::None;
                if let ItemResult::Pmc(values) = prev {
                    self.first = Some(values.clone());
                    self.last = Some(values.clone());
                }
            }
            Pending::Read { is_final } => {
                self.pending = Pending::None;
                if let ItemResult::Pmc(values) = prev {
                    let values = values.clone();
                    self.record_read(&values, is_final);
                }
                if is_final {
                    return None;
                }
            }
            Pending::None => {
                if self.opened {
                    self.stashed_inner = Some(prev.clone());
                }
            }
        }
        if let Some(item) = self.queue.pop_front() {
            return Some(item);
        }
        if !self.opened {
            self.opened = true;
            self.pending = Pending::OpenResult;
            return Some(self.open_item());
        }
        if self.blocks_seen >= self.read_every {
            self.blocks_seen = 0;
            self.pending = Pending::Read { is_final: false };
            // The user-side log append happens after the reads. Most of
            // the cost is cache-miss stalls on the log buffer, so the
            // retired-instruction footprint is small.
            self.queue.push_back(WorkItem::Block(WorkBlock::compute(
                self.costs.read_user_cycles / 20,
                self.costs.read_user_cycles,
            )));
            return Some(WorkItem::Rdpmc(self.rdpmc_indices()));
        }
        let inner_prev = self.stashed_inner.take().unwrap_or_default();
        match self.inner.next(&inner_prev) {
            Some(item) => {
                if matches!(item, WorkItem::Block(_)) {
                    self.blocks_seen += 1;
                }
                Some(item)
            }
            None => {
                if self.finished {
                    return None;
                }
                self.finished = true;
                self.pending = Pending::Read { is_final: true };
                Some(WorkItem::Rdpmc(self.rdpmc_indices()))
            }
        }
    }
}

/// Runs `workload` under LiMiT instrumentation, reading every `read_every`
/// work blocks.
///
/// # Errors
///
/// [`ToolError`] if the simulation stalls or setup fails.
pub(crate) fn run_limit(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    read_every: u64,
    nominal_period: Duration,
    costs: LimitCosts,
) -> Result<ToolRun, ToolError> {
    let device = machine.register_device(Box::new(LimitKernel::new(costs)));
    let shared = Arc::new(Mutex::new(LimitShared::default()));
    let instrumented = LimitInstrumented::new(
        workload,
        device,
        events.to_vec(),
        read_every,
        costs,
        shared.clone(),
    );
    let target = machine.spawn(name, CoreId(0), Box::new(instrumented));
    machine.run_until_exit(target).map_err(ToolError::Sim)?;
    let guard = shared.lock().unwrap();
    if let Some(err) = &guard.error {
        return Err(ToolError::Tool(err.clone()));
    }
    let totals = guard
        .totals
        .clone()
        .ok_or_else(|| ToolError::Tool("LiMiT final read missing".into()))?;
    Ok(ToolRun {
        tool: "LiMiT",
        target: machine.process(target).clone(),
        event_totals: events.iter().copied().zip(totals).collect(),
        fixed_totals: guard.fixed_totals,
        samples: guard.samples.clone(),
        requested_period: nominal_period,
        effective_period: nominal_period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    fn run(read_every: u64) -> ToolRun {
        let mut machine = Machine::new(MachineConfig::test_tiny(12));
        run_limit(
            &mut machine,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
            &[HwEvent::Load, HwEvent::BranchRetired],
            read_every,
            Duration::from_millis(10),
            LimitCosts::microarchitectural(),
        )
        .unwrap()
    }

    #[test]
    fn open_config_round_trips() {
        for events in [
            vec![],
            pmu::ALL_EVENTS[3..7].iter().map(|e| e.code()).collect(),
        ] {
            let cfg = LimitOpenConfig { events };
            assert_eq!(LimitOpenConfig::decode(&cfg.encode()), Some(cfg));
        }
    }

    #[test]
    fn user_space_reads_track_truth() {
        let r = run(100);
        let err = r
            .relative_error(HwEvent::BranchRetired, false)
            .expect("branches counted");
        assert!(err < 0.01, "LiMiT error {err}");
    }

    #[test]
    fn instruction_totals_include_instrumentation() {
        let r = run(50);
        let truth = r.target.true_user_events.get(HwEvent::InstructionsRetired);
        // The rdpmc reads themselves retire instructions inside the
        // monitored process; the count covers them (minus the pre-open
        // prologue), so it is close to but never far above truth.
        let diff = (r.fixed_totals[0] as f64 - truth as f64).abs() / truth as f64;
        assert!(diff < 0.02, "diff {diff}");
    }

    #[test]
    fn produces_delta_series() {
        let r = run(100);
        assert!(r.samples.len() >= 9);
        assert!(r.samples.iter().all(|s| s.values.len() == 2));
    }

    #[test]
    fn no_syscalls_per_read_beats_papi_per_sample() {
        // Structural check: LiMiT's per-read syscall count is zero, so with
        // identical microcosts its wall time beats PAPI's at equal density.
        let mut m1 = Machine::new(MachineConfig::test_tiny(12));
        let limit = run_limit(
            &mut m1,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
            &[HwEvent::Load],
            20,
            Duration::from_millis(10),
            LimitCosts::microarchitectural(),
        )
        .unwrap();
        let mut m2 = Machine::new(MachineConfig::test_tiny(12));
        let papi = crate::papi::run_papi(
            &mut m2,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
            &[HwEvent::Load],
            20,
            Duration::from_millis(10),
            crate::papi::PapiCosts::microarchitectural(),
        )
        .unwrap();
        assert!(limit.wall_time() < papi.wall_time());
    }
}
