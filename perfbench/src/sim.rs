//! Shared drivers for the side-passes: a bare machine run stepped one
//! event at a time, and the memsim replay of captured access patterns.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ksim::{CoreId, Machine, MachineConfig, Workload};
use memsim::{AccessPattern, Hierarchy, MemStats};

use crate::probe::{self, Adapter, Feed, FeedHandle, Tracer};

/// The paper's i7-920 machine, as every experiment builds it. Each
/// machine starts with empty caches.
pub fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::i7_920(seed))
}

/// Adds the cache statistics of every core of `m` (exact) to `total`.
pub fn add_mem_stats(total: &mut MemStats, m: &Machine) {
    for core in 0..m.config().cores {
        let s = m.mem(CoreId(core)).stats();
        total.accesses += s.accesses;
        total.l1d_misses += s.l1d_misses;
        total.llc_misses += s.llc_misses;
    }
}

/// The per-layer metrics every workload derives the same way: generator
/// work from the adapters' `feed`, cache statistics `mem` of the pass's
/// machines, and the side-pass results.
pub fn common_metrics(
    feed: &Feed,
    mem: &MemStats,
    ns_per_access: f64,
    events: u64,
    ksim_s: f64,
    kleb_s: f64,
    samples: u64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("workloads.next_s", feed.next_ns as f64 * 1e-9),
        ("workloads.blocks", feed.blocks as f64),
        ("workloads.instructions", feed.instructions as f64),
        ("memsim.accesses", mem.accesses as f64),
        (
            "memsim.l1d_miss_ratio",
            mem.l1d_misses as f64 / mem.accesses.max(1) as f64,
        ),
        ("memsim.llc_misses", mem.llc_misses as f64),
        ("memsim.ns_per_access", ns_per_access),
        ("ksim.events", events as f64),
        ("ksim.machine_s", ksim_s),
        ("kleb.monitor_s", kleb_s),
        ("kleb.samples", samples as f64),
    ]
}

/// One bare (unmonitored) machine run of a workload, driven by
/// `Machine::step` until the event queue is empty.
#[derive(Debug)]
pub struct BareRun {
    /// Host seconds of the run.
    pub host_s: f64,
    /// `Machine::step` calls that processed an event.
    pub events: u64,
    /// Host seconds inside the workload generator.
    pub next_s: f64,
    /// Cache statistics of the run.
    pub mem: MemStats,
    /// The access patterns the program issued, for the memsim replay.
    pub patterns: Vec<AccessPattern>,
}

/// Runs `workload` bare on `m` through a counting adapter, stepping
/// until no event is left (the program and every child it spawned have
/// exited).
pub fn bare_run(
    tracer: &mut Tracer,
    label: &str,
    mut m: Machine,
    workload: Box<dyn Workload>,
) -> Result<BareRun, String> {
    let feed: FeedHandle = Arc::new(Mutex::new(Feed {
        keep_patterns: true,
        ..Feed::default()
    }));
    let adapted = Adapter::wrap(workload, Some((Arc::clone(&feed), 0)), None);
    let pid = m.spawn(label, CoreId(0), adapted);
    tracer.open("ksim", format!("bare {label}"));
    let t0 = Instant::now();
    let mut events = 0u64;
    while m.step() {
        events += 1;
    }
    let host_s = t0.elapsed().as_secs_f64();
    tracer.close();
    if !m.process(pid).is_exited() {
        return Err(format!("bare run of {label} stalled"));
    }
    let mut f = probe::lock(&feed);
    let mut mem = MemStats::default();
    add_mem_stats(&mut mem, &m);
    Ok(BareRun {
        host_s,
        events,
        next_s: f.next_ns as f64 * 1e-9,
        mem,
        patterns: f.patterns.pop().unwrap_or_default(),
    })
}

/// Replays captured access patterns through fresh i7-920 hierarchies (one
/// per machine run, so caches start empty as they did in the machine).
/// Returns (accesses replayed, host seconds): the faster of two replays,
/// since the work is deterministic and host noise only adds time.
pub fn replay_patterns(tracer: &mut Tracer, runs: &[&[AccessPattern]]) -> (u64, f64) {
    let config = MachineConfig::i7_920(0).mem;
    let mut accesses = 0;
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        tracer.open("memsim", "replay");
        accesses = 0;
        for run in runs {
            let mut h = Hierarchy::new(config);
            for pattern in run.iter() {
                for (addr, kind) in pattern.cursor() {
                    std::hint::black_box(h.access(addr, kind));
                }
            }
            accesses += h.stats().accesses;
        }
        best = best.min(tracer.close());
    }
    (accesses, best)
}
