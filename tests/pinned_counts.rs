//! Exact ground-truth counts of simulated processes, pinned.
//!
//! The experiment goldens print MPKI to two decimals, so a small change in
//! a Load, Store, L1d-miss or LLC-miss count, or in a stall cycle, can slip
//! past them. These tests pin every user-mode event count and the user CPU
//! time in nanoseconds of processes that go through each way `ksim` turns
//! cache traffic into events: compute blocks, the K-LEB handler's
//! kernel-line touches (which evict the service's lines), and timed
//! Flush+Reload probes. The two K-LEB runs that count kernel mode also pin
//! what the kernel charges produce: the target's kernel CPU time and
//! kernel events, and core 0's kernel-mode PMU ledger. A two-core run pins
//! what services on different cores do to each other through the shared
//! LLC.

use kleb::Monitor;
use ksim::{
    CoreId, Duration, FixedBlocks, ItemResult, Machine, MachineConfig, Pid, ProcessInfo, WorkBlock,
    WorkItem,
};
use memsim::{AccessKind, AccessPattern};
use pmu::{EventCounts, HwEvent, Privilege};
use workloads::{DockerImage, Synthetic};

/// One line per process: name, user ns, then every non-zero user event.
fn pinned(info: &ProcessInfo) -> String {
    let events: Vec<String> = info
        .true_user_events
        .iter()
        .map(|(e, n)| format!("{e:?}={n}"))
        .collect();
    format!(
        "{} {} {}",
        info.name,
        info.cpu_user.as_nanos(),
        events.join(" ")
    )
}

fn nonzero(events: &EventCounts) -> String {
    let events: Vec<String> = events.iter().map(|(e, n)| format!("{e:?}={n}")).collect();
    events.join(" ")
}

/// The kernel side of a run: the target's kernel ns and every non-zero
/// kernel event charged to it, then core 0's kernel-mode ledger, which
/// also holds the charges made while no process was current.
fn pinned_kernel(info: &ProcessInfo, m: &Machine) -> String {
    format!(
        "{} {} | ledger {}",
        info.cpu_kernel.as_nanos(),
        nonzero(&info.true_kernel_events),
        nonzero(m.pmu(CoreId(0)).ledger(Privilege::Kernel))
    )
}

/// The Fig. 5 setup at 200 service blocks and seed 42: each container
/// monitored by K-LEB at 10 ms with fork following, on its own i7-920.
#[test]
fn fig5_service_processes_have_pinned_counts() {
    let actual: Vec<String> = DockerImage::ALL
        .iter()
        .map(|&image| {
            let mut m = Machine::new(MachineConfig::i7_920(42 + image as u64));
            let container = Monitor::new(&[HwEvent::LlcMiss], Duration::from_millis(10))
                .run(&mut m, image.name(), Box::new(image.container(200, 42)))
                .expect("monitored container")
                .target
                .pid;
            // Pids count up from 1; the container's only child is its service.
            let service = (1..)
                .map(|n| m.process(Pid(n)))
                .find(|p| p.ppid == Some(container))
                .expect("the container forked its service");
            pinned(service)
        })
        .collect();
    let expected = [
        "golang-svc 5544696 InstructionsRetired=9600000 CoreCycles=14804339 RefCycles=14804339 Load=2500000 Store=960000 BranchRetired=1600000 BranchMiss=60000 LlcReference=87677 LlcMiss=31188 L1dMiss=98397 L2Miss=87677",
        "ruby-svc 5720671 InstructionsRetired=8800000 CoreCycles=15274196 RefCycles=15274196 Load=2330000 Store=880000 BranchRetired=1466600 BranchMiss=55000 LlcReference=119352 LlcMiss=45649 L1dMiss=128644 L2Miss=119352",
        "python-svc 5939868 InstructionsRetired=8000000 CoreCycles=15859437 RefCycles=15859437 Load=2160000 Store=800000 BranchRetired=1333200 BranchMiss=50000 LlcReference=150143 LlcMiss=59779 L1dMiss=158748 L2Miss=150143",
        "traefik-svc 5264661 InstructionsRetired=8400000 CoreCycles=14056644 RefCycles=14056644 Load=2152000 Store=840000 BranchRetired=1400000 BranchMiss=52400 LlcReference=51336 LlcMiss=48058 L1dMiss=51918 L2Miss=51336",
        "mysql-svc 5545978 InstructionsRetired=7600000 CoreCycles=14807750 RefCycles=14807750 Load=1970000 Store=760000 BranchRetired=1266600 BranchMiss=47400 LlcReference=69401 LlcMiss=65419 L1dMiss=69920 L2Miss=69401",
        "ghost-svc 5900557 InstructionsRetired=7200000 CoreCycles=15754503 RefCycles=15754503 Load=1884000 Store=720000 BranchRetired=1200000 BranchMiss=45000 LlcReference=83425 LlcMiss=78802 L1dMiss=83920 L2Miss=83425",
        "nginx-svc 7920950 InstructionsRetired=6800000 CoreCycles=21149012 RefCycles=21149012 Load=1830000 Store=680000 BranchRetired=1133200 BranchMiss=42400 LlcReference=130000 LlcMiss=130000 L1dMiss=130000 L2Miss=130000",
        "apache-svc 9662049 InstructionsRetired=6400000 CoreCycles=25797540 RefCycles=25797540 Load=1770000 Store=640000 BranchRetired=1066600 BranchMiss=40000 LlcReference=170000 LlcMiss=170000 L1dMiss=170000 L2Miss=170000",
        "tomcat-svc 12078711 InstructionsRetired=6000000 CoreCycles=32250137 RefCycles=32250137 Load=1720000 Store=600000 BranchRetired=1000000 BranchMiss=37400 LlcReference=220000 LlcMiss=220000 L1dMiss=220000 L2Miss=220000",
    ];
    assert_eq!(actual, expected);
}

/// Flush+Reload rounds: warm 256 probe lines (one written, so a dirty line
/// is flushed), then per round flush them all, touch one, and time a
/// reload of all 256.
#[derive(Debug, Default)]
struct FlushReload {
    step: u64,
}

const PROBE_BASE: u64 = 0x4000_0000;
const PROBE_STRIDE: u64 = 4096;
const ROUNDS: u64 = 8;

fn probe_addrs() -> Vec<u64> {
    (0..256).map(|i| PROBE_BASE + i * PROBE_STRIDE).collect()
}

impl ksim::Workload for FlushReload {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        self.step += 1;
        let round = self.step.saturating_sub(2) / 2;
        match self.step {
            1 => Some(WorkItem::Block(
                WorkBlock::compute(1_000, 1_200)
                    .with_pattern(AccessPattern::Sequential {
                        base: PROBE_BASE,
                        stride: PROBE_STRIDE,
                        count: 256,
                        kind: AccessKind::Read,
                    })
                    .with_pattern(AccessPattern::Single {
                        addr: PROBE_BASE + 3 * PROBE_STRIDE,
                        kind: AccessKind::Write,
                    }),
            )),
            _ if round >= ROUNDS => None,
            s if s % 2 == 0 => Some(WorkItem::Block(WorkBlock {
                flushes: probe_addrs(),
                ..WorkBlock::compute(2_400, 3_000).with_pattern(AccessPattern::Single {
                    addr: PROBE_BASE + (round * 31 % 256) * PROBE_STRIDE,
                    kind: AccessKind::Read,
                })
            })),
            _ => Some(WorkItem::TimedAccess(probe_addrs())),
        }
    }
}

/// The probe under K-LEB at 100 us counting kernel mode too, so the
/// samples also carry the memory events of the handler's kernel-line
/// touches.
#[test]
fn flush_reload_probe_has_pinned_counts() {
    let events = [
        HwEvent::Load,
        HwEvent::L1dMiss,
        HwEvent::LlcReference,
        HwEvent::LlcMiss,
    ];
    let mut m = Machine::new(MachineConfig::i7_920(42));
    let outcome = Monitor::new(&events, Duration::from_micros(100))
        .count_kernel(true)
        .run(&mut m, "probe", Box::new(FlushReload::default()))
        .expect("monitored probe");
    let sums: Vec<u64> = (0..events.len())
        .map(|i| outcome.samples.iter().map(|s| s.pmc[i]).sum())
        .collect();
    let actual = format!(
        "{} | {} samples, pmc sums {sums:?}",
        pinned(&outcome.target),
        outcome.samples.len()
    );
    assert_eq!(
        actual,
        "probe 248803 InstructionsRetired=30440 CoreCycles=664302 RefCycles=664302 Load=2312 Store=1 LlcReference=2310 LlcMiss=2304 L1dMiss=2312 L2Miss=2310 | 5 samples, pmc sums [188387, 2740, 2738, 2704]"
    );
    assert_eq!(
        pinned_kernel(&outcome.target, &m),
        "308775 InstructionsRetired=741955 CoreCycles=824431 RefCycles=824431 Load=185460 Store=92722 BranchRetired=148365 | ledger InstructionsRetired=746313 CoreCycles=829275 RefCycles=829275 Load=188548 Store=93265 BranchRetired=149236 LlcReference=428 LlcMiss=400 L1dMiss=428 L2Miss=428"
    );
}

/// A compute-only program under K-LEB at 100 us counting kernel mode: 400
/// blocks of 25 us with no memory traffic of their own, so between two
/// samples nothing but the handler's kernel-line touches reaches the
/// caches, and every sample after the first touches lines the one before
/// left resident in L1d.
#[test]
fn compute_only_program_under_kleb_has_pinned_counts() {
    let events = [
        HwEvent::Load,
        HwEvent::L1dMiss,
        HwEvent::LlcReference,
        HwEvent::LlcMiss,
    ];
    let mut m = Machine::new(MachineConfig::i7_920(42));
    let program = FixedBlocks::new(400, WorkBlock::compute(100_000, 66_700));
    let outcome = Monitor::new(&events, Duration::from_micros(100))
        .count_kernel(true)
        .run(&mut m, "compute", Box::new(program))
        .expect("monitored program");
    let sums: Vec<u64> = (0..events.len())
        .map(|i| outcome.samples.iter().map(|s| s.pmc[i]).sum())
        .collect();
    let (l1d, l2, llc) = m.mem(CoreId(0)).level_stats();
    let actual = format!(
        "{} samples, pmc sums {sums:?} | l1d {l1d:?} | l2 {l2:?} | llc {llc:?}",
        outcome.samples.len()
    );
    assert_eq!(
        actual,
        "259 samples, pmc sums [9675558, 400, 400, 400] | l1d CacheStats { accesses: 103600, hits: 103200, misses: 400, evictions: 0, writebacks: 0, flushes: 0 } | l2 CacheStats { accesses: 400, hits: 0, misses: 400, evictions: 0, writebacks: 0, flushes: 0 } | llc CacheStats { accesses: 400, hits: 0, misses: 400, evictions: 0, writebacks: 0, flushes: 0 }"
    );
    assert_eq!(
        pinned_kernel(&outcome.target, &m),
        "15951445 InstructionsRetired=38329859 CoreCycles=42590575 RefCycles=42590575 Load=9580963 Store=4790080 BranchRetired=7664625 | ledger InstructionsRetired=38334217 CoreCycles=42595419 RefCycles=42595419 Load=9685651 Store=4790623 BranchRetired=7665496 LlcReference=400 LlcMiss=400 L1dMiss=400 L2Miss=400"
    );
}

/// The co-location case study's four services at 300 blocks each, in its
/// class-blind layout: on each of cores 0 and 1 a streamer and a
/// cache-resident service, the two streamers with equal seeds. They meet
/// only in the shared LLC (and DRAM), and their user lines stay apart.
#[test]
fn two_core_colocation_has_pinned_counts() {
    let mut m = Machine::new(MachineConfig::i7_920(42 + 99));
    let mut pids = Vec::new();
    for core in 0..2 {
        let streamer = Synthetic::new(300, 40_000, 50_000).memory_traffic(800, 64 << 20, 42);
        let resident = Synthetic::new(300, 45_000, 50_000).memory_traffic(120, 2 << 20, 43);
        pids.push(m.spawn("mem", CoreId(core), Box::new(streamer)));
        pids.push(m.spawn("cpu", CoreId(core), Box::new(resident)));
    }
    m.run_to_quiescence();
    let mut actual: Vec<String> = pids.iter().map(|&p| pinned(m.process(p))).collect();
    for core in 0..2 {
        let (l1d, l2, llc) = m.mem(CoreId(core)).level_stats();
        actual.push(format!(
            "core {core} | l1d {l1d:?} | l2 {l2:?} | llc {llc:?}"
        ));
    }
    let expected = [
        "mem 16528918 InstructionsRetired=12000000 CoreCycles=44132198 RefCycles=44132198 Load=240000 LlcReference=239112 LlcMiss=228724 L1dMiss=239876 L2Miss=239112",
        "cpu 6565642 InstructionsRetired=13500000 CoreCycles=17530254 RefCycles=17530254 Load=36000 LlcReference=33456 LlcMiss=24335 L1dMiss=35445 L2Miss=33456",
        "mem 17185054 InstructionsRetired=12000000 CoreCycles=45884092 RefCycles=45884092 Load=240000 LlcReference=239098 LlcMiss=228257 L1dMiss=239873 L2Miss=239098",
        "cpu 6338672 InstructionsRetired=13500000 CoreCycles=16924264 RefCycles=16924264 Load=36000 LlcReference=33384 LlcMiss=24002 L1dMiss=35442 L2Miss=33384",
        "core 0 | l1d CacheStats { accesses: 276000, hits: 679, misses: 275321, evictions: 274809, writebacks: 0, flushes: 0 } | l2 CacheStats { accesses: 275321, hits: 2753, misses: 272568, evictions: 268472, writebacks: 0, flushes: 0 } | llc CacheStats { accesses: 272568, hits: 19509, misses: 253059, evictions: 180912, writebacks: 0, flushes: 0 }",
        "core 1 | l1d CacheStats { accesses: 276000, hits: 685, misses: 275315, evictions: 274803, writebacks: 0, flushes: 0 } | l2 CacheStats { accesses: 275315, hits: 2833, misses: 272482, evictions: 268386, writebacks: 0, flushes: 0 } | llc CacheStats { accesses: 272482, hits: 20223, misses: 252259, evictions: 193334, writebacks: 0, flushes: 0 }",
    ];
    assert_eq!(actual, expected);
}
