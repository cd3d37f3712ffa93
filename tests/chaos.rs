//! Chaos integration tests: the full monitoring stack under deterministic
//! fault injection, from single-machine runs up through the fleet.
//!
//! Everything here rides on the seeded fault RNG in [`ksim::faults`]: the
//! same seed and plan replay the same faults, so these are regression
//! tests, not roulette.

use fleet::{FleetConfig, FleetOutcome, FleetRunner, MachineSpec};
use kleb::{KlebTuning, Monitor, MonitorOutcome};
use ksim::{Duration, FaultPlan, FixedBlocks, Machine, MachineConfig, WorkBlock};
use pmu::{EventCounts, HwEvent};

fn monitored_run(seed: u64, faults: FaultPlan, period: Duration) -> MonitorOutcome {
    let mut config = MachineConfig::i7_920(seed);
    config.faults = faults;
    let mut machine = Machine::new(config);
    Monitor::new(&[HwEvent::LlcMiss, HwEvent::Load], period)
        .run(
            &mut machine,
            "victim",
            Box::new(FixedBlocks::new(
                3_000,
                WorkBlock::compute(1_000, 2_670)
                    .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
            )),
        )
        .expect("chaotic run still completes")
}

#[test]
fn ten_percent_ring_pressure_drops_are_accounted_never_silent() {
    let outcome = monitored_run(
        11,
        FaultPlan::ring_pressure(0.1),
        Duration::from_micros(100),
    );
    let s = &outcome.status;
    assert!(
        s.samples_dropped > 0,
        "10% ring pressure must inject some drops: {s:?}"
    );
    assert_eq!(
        outcome.samples.len() as u64 + s.samples_dropped,
        s.samples_taken,
        "after the final drain, drained + dropped == taken exactly"
    );
    assert_eq!(s.buffered, 0, "the final drain leaves nothing behind");
    // Every drop left a visible scar: seq holes matched by gap markers.
    let holes: u64 = outcome
        .samples
        .windows(2)
        .map(|w| w[1].seq - w[0].seq - 1)
        .sum();
    let leading = outcome.samples.first().map_or(0, |s| s.seq);
    let trailing = s
        .samples_taken
        .saturating_sub(outcome.samples.last().map_or(0, |s| s.seq + 1));
    assert_eq!(
        holes + leading + trailing,
        s.samples_dropped,
        "sequence holes account for every drop"
    );
    for w in outcome.samples.windows(2) {
        assert_eq!(
            w[1].seq > w[0].seq + 1,
            w[1].gap,
            "gap flags mark exactly the holes"
        );
    }
}

#[test]
fn sustained_pressure_pushes_controller_into_degraded_mode() {
    // Heavy ring pressure at a fast period: the controller must notice the
    // drop deltas, enter degraded mode, and double the period (bounded).
    let outcome = monitored_run(
        13,
        FaultPlan::ring_pressure(0.6),
        Duration::from_micros(100),
    );
    assert!(
        outcome.recovery.degraded,
        "sustained drops must trip degraded mode: {:?}",
        outcome.recovery
    );
    assert!(outcome.recovery.period_doublings >= 1);
    assert!(
        outcome.status.period_ns > 100_000,
        "the module runs at the degraded period: {}",
        outcome.status.period_ns
    );
    // Degradation is bounded: at most 8x the configured period.
    assert!(outcome.status.period_ns <= 800_000);
}

#[test]
fn chaos_run_is_byte_identical_across_replays() {
    let encode = |outcome: &MonitorOutcome| {
        let mut bytes = Vec::new();
        for s in &outcome.samples {
            s.encode_into(&mut bytes);
        }
        bytes
    };
    let a = monitored_run(17, FaultPlan::chaos(0.2), Duration::from_micros(200));
    let b = monitored_run(17, FaultPlan::chaos(0.2), Duration::from_micros(200));
    assert_eq!(
        encode(&a),
        encode(&b),
        "same seed + same plan => byte-identical drained series"
    );
    assert_eq!(a.status, b.status);
    assert_eq!(a.recovery, b.recovery);
    // And a different seed takes a different trajectory (the faults are
    // seeded, not hardwired).
    let c = monitored_run(18, FaultPlan::chaos(0.2), Duration::from_micros(200));
    assert_ne!(encode(&a), encode(&c));
}

/// FNV-1a, 64 bits, as perfbench fingerprints a fleet digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four machines under `FaultPlan::chaos(0.1)`.
fn chaotic_fleet() -> FleetOutcome {
    let config = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(500),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(MachineConfig::test_tiny)
    .faults(FaultPlan::chaos(0.1))
    .build();
    let specs = (0..4)
        .map(|i| {
            MachineSpec::new(format!("m{i}"), 60 + i, |seed| {
                Box::new(FixedBlocks::new(
                    2_000 + (seed % 5) * 200,
                    WorkBlock::compute(1_000, 2_670)
                        .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
                )) as _
            })
        })
        .collect();
    FleetRunner::new(config)
        .run(specs)
        .expect("chaotic fleet completes")
}

#[test]
fn fleet_survives_chaos_with_exact_accounting_and_no_stuck_workers() {
    let outcome = chaotic_fleet();
    assert_eq!(outcome.machines.len(), 4, "every worker came home");
    assert!(
        outcome.all_healthy(),
        "no machine failed: {:?}",
        outcome.health
    );
    assert_eq!(outcome.channel.total_dropped(), 0, "Block stays lossless");
    let mut any_faulted = false;
    for report in &outcome.machines {
        let s = &report.outcome.status;
        assert_eq!(
            report.outcome.samples.len() as u64 + s.samples_dropped,
            s.samples_taken,
            "machine {} ledger balances",
            report.label
        );
        any_faulted |= s.samples_dropped > 0 || report.outcome.recovery != Default::default();
    }
    assert!(any_faulted, "chaos at 10% must actually touch the fleet");
}

#[test]
fn chaotic_fleet_digest_is_pinned() {
    // Length and FNV-1a of the digest, as perfbench fingerprints one: the
    // chaos path's results must not move.
    let digest = chaotic_fleet().digest();
    assert_eq!(
        (digest.len(), fnv1a(&digest)),
        (4_220, 0xd8ab_3615_1646_3457),
        "chaos(0.1) fleet digest moved"
    );
}
