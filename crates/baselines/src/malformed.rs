//! Every device that decodes an ioctl payload rejects malformed bytes with
//! `-EINVAL` and keeps no state from them, and every user-side decoder of an
//! out-payload returns `None` for the same bytes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use kleb::config::{IOCTL_CONFIG, IOCTL_SET_PERIOD, IOCTL_START, IOCTL_STATUS};
use kleb::{KlebModule, ModuleStatus, MonitorConfig};
use ksim::{
    CoreId, Device, DeviceId, Duration, Errno, FixedBlocks, ItemResult, Machine, MachineConfig,
    Pid, Syscall, WorkBlock, WorkItem, Workload,
};
use pmu::HwEvent;

use crate::limit::{LimitCosts, LimitKernel, LimitOpenConfig, LIMIT_OPEN};
use crate::perf_kernel::{PerfCounts, PerfKernelCosts, PerfOpenConfig, PERF_OPEN, PERF_READ};
use crate::perf_record::{
    PerfRecordCosts, PerfRecordModule, RecordDrain, RecordOpenConfig, WireSample, RECORD_DRAIN,
    RECORD_OPEN,
};
use crate::PerfEventKernel;

/// An ioctl request and its payload.
type Call = (u64, Vec<u8>);
/// An ioctl's return value and out-payload.
type Reply = (i64, Vec<u8>);

const EINVAL: i64 = Errno::Inval.as_retval();
const EPERM: i64 = Errno::Perm.as_retval();

/// Where the reader's rules bite in one valid payload.
#[derive(Clone, Copy)]
struct Layout {
    /// Offset of a bool byte.
    bool_at: Option<usize>,
    /// Offset of a list's `u32` count and the width of one of its items.
    count_at: Option<(usize, usize)>,
}

/// Every strict prefix of `valid`, `valid` plus one byte, a bool byte of 2,
/// and list counts the remaining bytes cannot hold (up to `u32::MAX`).
fn malformed(valid: &[u8], layout: Layout) -> Vec<Vec<u8>> {
    let mut bad: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
    bad.push([valid, &[0]].concat());
    if let Some(at) = layout.bool_at {
        let mut b = valid.to_vec();
        b[at] = 2;
        bad.push(b);
    }
    if let Some((at, item_bytes)) = layout.count_at {
        let fits = (valid.len() - at - 4) / item_bytes;
        for count in [fits as u32 + 1, u32::MAX] {
            let mut b = valid.to_vec();
            b[at..at + 4].copy_from_slice(&count.to_le_bytes());
            bad.push(b);
        }
    }
    bad
}

/// `valid` with the event code after the list count at `count_at` replaced
/// by one the PMU does not model.
fn unknown_event(valid: &[u8], count_at: usize) -> Vec<u8> {
    let mut b = valid.to_vec();
    b[count_at + 4..count_at + 6].copy_from_slice(&[0xFF, 0xFF]);
    b
}

/// A process that issues scripted ioctls on one device and records each
/// call's return value and out-payload.
#[derive(Debug)]
struct Script {
    device: DeviceId,
    calls: VecDeque<Call>,
    results: Arc<Mutex<Vec<Reply>>>,
}

impl Workload for Script {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        if let ItemResult::Syscall { retval, payload } = prev {
            self.results
                .lock()
                .unwrap()
                .push((*retval, payload.clone()));
        }
        let (request, payload) = self.calls.pop_front()?;
        Some(WorkItem::Syscall(Syscall::Ioctl {
            device: self.device,
            request,
            payload,
        }))
    }
}

/// Runs `calls` against `device` beside a suspended target process (pid
/// `TARGET`) and returns one result per call.
fn run(device: Box<dyn Device>, calls: Vec<Call>) -> Vec<Reply> {
    let mut machine = Machine::new(MachineConfig::test_tiny(5));
    let device = machine.register_device(device);
    let target = machine.spawn_suspended(
        "target",
        CoreId(0),
        Box::new(FixedBlocks::new(1, WorkBlock::compute(1_000, 1_000))),
    );
    assert_eq!(target, TARGET);
    let results = Arc::new(Mutex::new(Vec::new()));
    let n = calls.len();
    let script = machine.spawn(
        "script",
        CoreId(0),
        Box::new(Script {
            device,
            calls: calls.into(),
            results: results.clone(),
        }),
    );
    machine.run_until_exit(script).unwrap();
    let results = std::mem::take(&mut *results.lock().unwrap());
    assert_eq!(results.len(), n);
    results
}

const TARGET: Pid = Pid(1);

/// Each bad payload for `open` is rejected with `-EINVAL` and leaves no
/// session behind (`probe` answers `-EPERM` right after it); then `valid`
/// still opens.
fn open_rejects(device: Box<dyn Device>, open: u64, valid: &[u8], bad: &[Vec<u8>], probe: u64) {
    let mut calls = Vec::new();
    for b in bad {
        calls.push((open, b.clone()));
        calls.push((probe, Vec::new()));
    }
    calls.push((open, valid.to_vec()));
    let results = run(device, calls);
    for (i, b) in bad.iter().enumerate() {
        assert_eq!(results[2 * i].0, EINVAL, "open with {b:?}");
        assert_eq!(results[2 * i + 1].0, EPERM, "state left by {b:?}");
    }
    assert_eq!(results.last().unwrap().0, 0, "valid open after rejections");
}

fn events() -> Vec<pmu::EventCode> {
    vec![HwEvent::Load.code(), HwEvent::LlcMiss.code()]
}

#[test]
fn kleb_config_rejects_malformed_payloads() {
    let cfg = MonitorConfig::new(
        TARGET,
        &[HwEvent::Load, HwEvent::LlcMiss],
        Duration::from_millis(1),
    );
    let valid = cfg.to_payload();
    let layout = Layout {
        bool_at: Some(valid.len() - 1),
        count_at: Some((4, 2)),
    };
    let mut bad = malformed(&valid, layout);
    bad.push(unknown_event(&valid, 4));
    open_rejects(
        Box::new(KlebModule::new()),
        IOCTL_CONFIG,
        &valid,
        &bad,
        IOCTL_START,
    );
}

#[test]
fn kleb_set_period_rejects_malformed_payloads() {
    let cfg = MonitorConfig::new(TARGET, &[HwEvent::Load], Duration::from_millis(1));
    let short = 5_000u64.to_le_bytes().to_vec();
    let long = [short.as_slice(), &9u64.to_le_bytes()].concat();
    // Both lengths are valid, so the 16-byte form's 8-byte prefix is too;
    // its 9-byte prefix is the 8-byte form plus one byte.
    let layout = Layout {
        bool_at: None,
        count_at: None,
    };
    let mut bad = malformed(&long, layout);
    bad.retain(|b| b.len() != short.len());
    let mut calls = vec![(IOCTL_CONFIG, cfg.to_payload())];
    for b in &bad {
        calls.push((IOCTL_SET_PERIOD, b.clone()));
        calls.push((IOCTL_STATUS, Vec::new()));
    }
    calls.push((IOCTL_SET_PERIOD, short));
    calls.push((IOCTL_SET_PERIOD, long));
    calls.push((IOCTL_STATUS, Vec::new()));
    let results = run(Box::new(KlebModule::new()), calls);
    assert_eq!(results[0].0, 0);
    for (i, b) in bad.iter().enumerate() {
        assert_eq!(results[1 + 2 * i].0, EINVAL, "set period with {b:?}");
        let status = ModuleStatus::from_payload(&results[2 + 2 * i].1).unwrap();
        assert_eq!(status.period_ns, 1_000_000, "period moved by {b:?}");
    }
    let tail = &results[1 + 2 * bad.len()..];
    assert_eq!(
        (tail[0].0, tail[1].0),
        (0, 9),
        "8-byte form, then 16-byte form acked"
    );
    assert_eq!(
        ModuleStatus::from_payload(&tail[2].1).unwrap().period_ns,
        5_000
    );
}

#[test]
fn perf_open_rejects_malformed_payloads() {
    let valid = PerfOpenConfig {
        target: 0,
        events: events(),
        count_kernel: false,
        track_children: true,
    }
    .encode();
    let layout = Layout {
        bool_at: Some(valid.len() - 1),
        count_at: Some((4, 2)),
    };
    let mut bad = malformed(&valid, layout);
    bad.push(unknown_event(&valid, 4));
    let kernel = PerfEventKernel::new(PerfKernelCosts::default());
    open_rejects(Box::new(kernel), PERF_OPEN, &valid, &bad, PERF_READ);
}

#[test]
fn record_open_rejects_malformed_payloads() {
    let valid = RecordOpenConfig {
        target: 0,
        events: events(),
        period_cycles: 100_000,
        count_kernel: false,
    }
    .encode();
    let layout = Layout {
        bool_at: Some(valid.len() - 1),
        count_at: Some((4, 2)),
    };
    let mut bad = malformed(&valid, layout);
    bad.push(unknown_event(&valid, 4));
    let module = PerfRecordModule::new(PerfRecordCosts::default());
    open_rejects(Box::new(module), RECORD_OPEN, &valid, &bad, RECORD_DRAIN);
}

#[test]
fn limit_open_rejects_malformed_payloads() {
    let valid = LimitOpenConfig { events: events() }.encode();
    let layout = Layout {
        bool_at: None,
        count_at: Some((0, 2)),
    };
    let mut bad = malformed(&valid, layout);
    bad.push(unknown_event(&valid, 0));
    // LiMiT has no request that needs a session, so a second open is the
    // probe: it answers `-EPERM` only when a session exists.
    let mut calls: Vec<Call> = bad.iter().map(|b| (LIMIT_OPEN, b.clone())).collect();
    calls.push((LIMIT_OPEN, valid.clone()));
    calls.push((LIMIT_OPEN, valid));
    let results = run(Box::new(LimitKernel::new(LimitCosts::default())), calls);
    for (r, b) in results.iter().zip(&bad) {
        assert_eq!(r.0, EINVAL, "open with {b:?}");
    }
    let tail: Vec<i64> = results[bad.len()..].iter().map(|r| r.0).collect();
    assert_eq!(
        tail,
        [0, EPERM],
        "valid open after rejections, then its session"
    );
}

#[test]
fn user_side_decoders_reject_malformed_payloads() {
    let status = ModuleStatus {
        target_alive: true,
        buffered: 1,
        samples_taken: 2,
        samples_dropped: 3,
        pauses: 4,
        paused: true,
        period_ns: 5,
    }
    .to_payload();
    let layout = Layout {
        bool_at: Some(0),
        count_at: None,
    };
    for b in malformed(&status, layout) {
        assert_eq!(ModuleStatus::from_payload(&b), None, "{b:?}");
    }

    let counts = PerfCounts {
        fixed: [1, 2, 3],
        events: vec![4, 5],
        target_alive: true,
        multiplexed: false,
    }
    .encode();
    let layout = Layout {
        bool_at: Some(counts.len() - 2),
        count_at: Some((24, 8)),
    };
    for b in malformed(&counts, layout) {
        assert_eq!(PerfCounts::decode(&b), None, "{b:?}");
    }

    let sample = |t| WireSample {
        t,
        v: vec![t + 1, t + 2],
        i: t + 3,
    };
    let drain = RecordDrain {
        samples: vec![sample(10), sample(20)],
        target_alive: false,
    }
    .encode();
    let outer = Layout {
        bool_at: Some(drain.len() - 1),
        count_at: Some((0, 20)),
    };
    // The first sample's own list of event deltas starts after its
    // timestamp.
    let inner = Layout {
        bool_at: None,
        count_at: Some((4 + 8, 8)),
    };
    for b in malformed(&drain, outer)
        .into_iter()
        .chain(malformed(&drain, inner))
    {
        assert_eq!(RecordDrain::decode(&b), None, "{b:?}");
    }
}
