//! The fleet determinism contract: identical config + seeds produce
//! bit-identical per-machine stores, regardless of how the OS interleaves
//! the pool's workers or how fast the host runs them.

use fleet::{FleetConfig, FleetConfigBuilder, FleetOutcome, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use ksim::{Duration, FixedBlocks, MachineConfig, WorkBlock, Workload};
use ktrace::TraceReplayer;
use pmu::{EventCounts, HwEvent};

fn builder() -> FleetConfigBuilder {
    FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(500),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(MachineConfig::test_tiny)
}

fn config() -> FleetConfig {
    builder().build()
}

fn workload(seed: u64) -> Box<dyn Workload> {
    Box::new(FixedBlocks::new(
        1_500 + (seed % 5) * 200,
        WorkBlock::compute(1_000, 2_670)
            .with_events(EventCounts::new().with(HwEvent::LlcMiss, (seed % 7) + 1)),
    ))
}

fn specs() -> Vec<MachineSpec> {
    (0..6u64)
        .map(|i| MachineSpec::new(format!("node-{i}"), 90 + i, workload))
        .collect()
}

fn run() -> FleetOutcome {
    FleetRunner::new(config()).run(specs()).expect("fleet run")
}

#[test]
fn identical_seeds_reproduce_stores_bit_for_bit() {
    let first = run();
    let second = run();
    assert_eq!(first.machines.len(), second.machines.len());
    for m in 0..first.machines.len() {
        assert_eq!(
            first.store.machine_snapshot(m),
            second.store.machine_snapshot(m),
            "machine {m} diverged between identically-seeded runs"
        );
        assert_eq!(
            first.machines[m].outcome.samples, second.machines[m].outcome.samples,
            "machine {m} monitor output diverged"
        );
    }
    assert_eq!(first.channel.total_dropped(), 0, "Block is lossless");
    assert_eq!(second.channel.total_dropped(), 0);
    assert_eq!(first.channel.sent, second.channel.sent);
}

#[test]
fn different_seeds_actually_diverge() {
    let first = run();
    let mut other_specs = specs();
    other_specs[0] = MachineSpec::new("node-0", 4242, move |seed| {
        Box::new(FixedBlocks::new(
            3_000,
            WorkBlock::compute(1_000, 2_670)
                .with_events(EventCounts::new().with(HwEvent::LlcMiss, (seed % 7) + 1)),
        ))
    });
    let second = FleetRunner::new(config())
        .run(other_specs)
        .expect("fleet run");
    assert_ne!(
        first.store.machine_snapshot(0),
        second.store.machine_snapshot(0),
        "a reseeded machine must not reproduce the original stream"
    );
    // Untouched machines still match: determinism is per-machine.
    assert_eq!(
        first.store.machine_snapshot(1),
        second.store.machine_snapshot(1)
    );
}

#[test]
fn a_slow_host_thread_does_not_change_the_digest() {
    let dir = std::env::temp_dir().join(format!("fleet-host-delay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Machine 0's worker spends 3 s of host time before its workload
    // starts: longer than any host-side timeout a runner could keep.
    // Its simulated run, and everything recorded about it, is the same.
    let mut delayed = specs();
    delayed[0] = MachineSpec::new("node-0", 90, |seed| {
        std::thread::sleep(std::time::Duration::from_secs(3));
        workload(seed)
    });
    let recorded = FleetRunner::new(builder().persist(&dir).build())
        .run(delayed)
        .expect("delayed fleet run");
    let replayer = TraceReplayer::load_dir(&dir).expect("recording loads");
    let replayed = FleetRunner::new(config())
        .replay(replayer.streams)
        .expect("replay");
    assert_eq!(
        recorded.digest(),
        run().digest(),
        "a slow host thread changed the digest"
    );
    assert_eq!(
        recorded.digest(),
        replayed.digest(),
        "the replay of a slow run does not reproduce its digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
