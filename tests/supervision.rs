//! Supervision chaos tests: panic containment, deterministic restart,
//! circuit breakers, and partial-outcome semantics under injected
//! `FaultClass::ThreadPanic`.
//!
//! Everything rides on the attempt-salted fault RNG in [`ksim::faults`]:
//! the same seed, plan, and attempt number replay the same panics, so a
//! machine that dies on attempt 0 and survives attempt 2 does so on
//! every run — these are regression tests, not roulette. A panicked
//! machine restarts at once and nothing here reads a clock: the recorded
//! health — restart counts, failure counts, breaker trips, final breaker
//! state — is a pure function of the failure sequence, which is why the
//! digests below are pinned to exact bytes.

use fleet::{FailureKind, FleetConfig, FleetConfigBuilder, FleetOutcome, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use ksim::{Duration, FaultPlan, FixedBlocks, MachineConfig, WorkBlock};
use ktrace::TraceReplayer;
use pmu::{EventCounts, HwEvent};

const FLEET: u64 = 8;
/// Base seed for the recover-mix fleet; chosen (with `PANIC_RATE`) so
/// the two faulty machines panic on an early attempt and recover within
/// the restart budget. Deterministic: see the module docs.
const RECOVER_SEED: u64 = 60;
const PANIC_RATE: f64 = 0.02;
/// Seed that `doomed_tiny` singles out for a certain-death fault plan.
const DOOMED_SEED: u64 = 1_000;

/// FNV-1a, 64 bits, as perfbench fingerprints a fleet digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-machine fault injection: seeds divisible by 4 carry a
/// `ThreadPanic` plan, the rest run clean. `FleetConfig::faults` is
/// fleet-wide and would put the plan on every machine; routing it
/// through the machine-config factory is how a test (or a deployment)
/// scopes chaos to a subset of the fleet.
fn panicky_tiny(seed: u64) -> MachineConfig {
    let mut c = MachineConfig::test_tiny(seed);
    if seed.is_multiple_of(4) {
        c.faults = FaultPlan::thread_panic(PANIC_RATE);
    }
    c
}

/// One machine is beyond saving: a panic on every timer fire, every
/// attempt. The rest of the fleet is clean.
fn doomed_tiny(seed: u64) -> MachineConfig {
    let mut c = MachineConfig::test_tiny(seed);
    if seed == DOOMED_SEED {
        c.faults = FaultPlan::thread_panic(1.0);
    }
    c
}

fn specs(base_seed: u64) -> Vec<MachineSpec> {
    (0..FLEET)
        .map(|i| {
            MachineSpec::new(format!("m{i}"), base_seed + i, |seed| {
                Box::new(FixedBlocks::new(
                    3_000 + (seed % 5) * 200,
                    WorkBlock::compute(1_000, 2_670)
                        .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
                )) as _
            })
        })
        .collect()
}

fn config() -> FleetConfigBuilder {
    FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(panicky_tiny)
}

fn run_recover_mix() -> FleetOutcome {
    FleetRunner::new(config().build())
        .run(specs(RECOVER_SEED))
        .expect("fleet with recovering machines completes")
}

/// A clean fleet around `m3`, which panics on every timer fire of every
/// attempt.
fn run_budget_exhaustion() -> FleetOutcome {
    let mut machine_specs = specs(200);
    machine_specs[3] = MachineSpec::new("m3".to_string(), DOOMED_SEED, |_seed| {
        Box::new(FixedBlocks::new(3_000, WorkBlock::compute(1_000, 2_670))) as _
    });
    FleetRunner::new(config().machine(doomed_tiny).build())
        .run(machine_specs)
        .expect("one dead machine must not fail the fleet")
}

/// Probe used to tune `RECOVER_SEED` / `PANIC_RATE`; kept for re-tuning
/// when the simulator's timing model changes. Run with
/// `cargo test --test supervision -- --ignored --nocapture probe`.
#[test]
#[ignore = "tuning probe, not a regression test"]
fn probe_restart_behaviour_across_seeds() {
    for base in (0..200u64).step_by(4) {
        let outcome = match FleetRunner::new(config().build()).run(specs(base)) {
            Ok(o) => o,
            Err(e) => {
                println!("base {base}: ERR {e}");
                continue;
            }
        };
        let restarted: Vec<_> = outcome
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.restarts > 0)
            .map(|(i, h)| (i, h.restarts, h.failed))
            .collect();
        if !restarted.is_empty() {
            println!(
                "base {base}: restarted {restarted:?} all_healthy={}",
                outcome.all_healthy()
            );
        }
    }
}

#[test]
fn panicked_machines_restart_and_the_fleet_recovers() {
    let outcome = run_recover_mix();
    assert_eq!(outcome.machines.len() as u64, FLEET, "every seat reported");
    let restarted: Vec<usize> = outcome
        .health
        .iter()
        .enumerate()
        .filter(|(_, h)| h.restarts > 0)
        .map(|(i, _)| i)
        .collect();
    assert!(
        !restarted.is_empty(),
        "the tuned mix must actually panic and restart: {:?}",
        outcome.health
    );
    // Every restarted machine recovered within budget and carries the
    // failure forensics for each dead attempt.
    for &i in &restarted {
        let h = &outcome.health[i];
        assert!(!h.failed, "machine {i} recovered: {h:?}");
        assert_eq!(h.failure_count as u32, h.restarts, "one failure per retry");
        for f in &h.failures {
            assert_eq!(f.kind, FailureKind::Panic);
            assert!(
                f.message.contains("injected fault: thread panic"),
                "panic payload preserved verbatim: {f}"
            );
        }
        // The spliced sample series stays strictly ordered across the
        // restart joins, and every join is an honest gap.
        let samples = &outcome.machines[i].outcome.samples;
        assert!(!samples.is_empty(), "recovered machine delivered samples");
        for w in samples.windows(2) {
            assert!(w[1].seq > w[0].seq, "seq strictly increases");
            assert!(w[1].timestamp_ns >= w[0].timestamp_ns, "time never rewinds");
        }
    }
    // Clean machines are untouched by their neighbours' chaos.
    for (i, h) in outcome.health.iter().enumerate() {
        if !restarted.contains(&i) {
            assert!(h.is_healthy(), "machine {i} stayed healthy: {h:?}");
        }
    }
    assert_eq!(
        outcome.metrics.machine_restarts,
        outcome
            .health
            .iter()
            .map(|h| u64::from(h.restarts))
            .sum::<u64>(),
        "metrics mirror the per-machine restart counts"
    );
    assert_eq!(outcome.metrics.machines_lost, 0);
}

#[test]
fn restart_digest_is_identical_across_reruns_at_the_same_seed() {
    let a = run_recover_mix();
    let b = run_recover_mix();
    assert!(
        a.health.iter().any(|h| h.restarts > 0),
        "run must exercise the restart path to prove anything"
    );
    assert_eq!(
        a.digest(),
        b.digest(),
        "same seed + same plan => byte-identical outcome, restarts and all"
    );
}

#[test]
fn supervised_digests_are_pinned() {
    // Length and FNV-1a of each digest, as perfbench fingerprints one:
    // when and how fast restarts happen must not move a byte.
    let recovered = run_recover_mix().digest();
    assert_eq!(
        (recovered.len(), fnv1a(&recovered)),
        (48_112, 0xfbf7_d76a_64a2_a4d9),
        "recover-mix fleet digest moved"
    );
    let exhausted = run_budget_exhaustion().digest();
    assert_eq!(
        (exhausted.len(), fnv1a(&exhausted)),
        (41_872, 0x9ec6_71f5_27d9_a415),
        "budget-exhaustion fleet digest moved"
    );
}

#[test]
fn budget_exhaustion_trips_the_breaker_and_yields_a_partial_outcome() {
    let outcome = run_budget_exhaustion();
    assert_eq!(
        outcome.machines.len() as u64,
        FLEET,
        "the dead seat still reports"
    );
    let h = &outcome.health[3];
    assert!(h.failed, "restart budget exhausted => failed: {h:?}");
    assert_eq!(h.restarts, 3, "the full default budget was spent");
    assert_eq!(h.failure_count, 4, "initial attempt + three retries");
    assert!(
        h.breaker_trips >= 1,
        "repeated panics trip the breaker: {h:?}"
    );
    assert_ne!(
        h.breaker_state,
        fleet::BreakerState::Closed,
        "a machine that never recovered cannot end with a closed breaker"
    );
    assert!(
        h.failures
            .iter()
            .all(|f| f.kind == FailureKind::Panic
                && f.message.contains("injected fault: thread panic")),
        "forensics name every fatal attempt: {:?}",
        h.failures
    );
    assert!(!outcome.all_healthy());
    assert_eq!(outcome.failed_machines(), vec![3]);
    // Survivors are healthy, complete, and their ledgers balance.
    for (i, report) in outcome.machines.iter().enumerate() {
        if i == 3 {
            continue;
        }
        assert!(outcome.health[i].is_healthy(), "machine {i} unharmed");
        let s = &report.outcome.status;
        assert_eq!(
            report.outcome.samples.len() as u64 + s.samples_dropped,
            s.samples_taken,
            "machine {} ledger balances",
            report.label
        );
        assert!(!report.outcome.samples.is_empty());
    }
    // The dead machine died without ever closing its stream: none of
    // the samples it forwarded is a final one, while every survivor
    // forwarded one.
    let unclosed: Vec<usize> = outcome
        .machines
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.outcome.samples.iter().any(|s| s.final_sample))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(unclosed, vec![3]);
    // Fleet metrics carry the casualty accounting.
    assert_eq!(outcome.metrics.machines_lost, 1);
    assert!(outcome.metrics.machine_restarts >= 3);
    assert!(outcome.metrics.breaker_trips >= 1);
    assert_eq!(outcome.metrics.machine_failures, 4);
}

#[test]
fn zero_intensity_fault_plans_change_nothing() {
    let base = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(MachineConfig::test_tiny);
    let clean = FleetRunner::new(base.clone().build())
        .run(specs(90))
        .expect("clean fleet");
    let zeroed = FleetRunner::new(base.faults(FaultPlan::thread_panic(0.0)).build())
        .run(specs(90))
        .expect("zero-intensity fleet");
    assert_eq!(
        clean.digest(),
        zeroed.digest(),
        "a zero-rate panic plan must be byte-identical to no plan at all"
    );
    assert!(clean.all_healthy() && zeroed.all_healthy());
    assert_eq!(clean.metrics.machine_restarts, 0);
}

#[test]
fn record_replay_is_bit_exact_under_panic_restarts() {
    let dir = std::env::temp_dir().join(format!(
        "supervision-replay-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut machine_specs = specs(RECOVER_SEED);
    // A mixed fleet: recovering panickers, clean machines, and one seat
    // that exhausts its budget — the hardest shape to replay.
    machine_specs[5] = MachineSpec::new("m5".to_string(), DOOMED_SEED, |_seed| {
        Box::new(FixedBlocks::new(3_000, WorkBlock::compute(1_000, 2_670))) as _
    });
    let recording = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(|seed| {
        let mut c = panicky_tiny(seed);
        if seed == DOOMED_SEED {
            c.faults = FaultPlan::thread_panic(1.0);
        }
        c
    })
    .persist(&dir)
    .build();
    let live = FleetRunner::new(recording.clone())
        .run(machine_specs)
        .expect("recorded fleet completes");
    assert!(
        live.health.iter().any(|h| h.restarts > 0 && !h.failed),
        "mix must include a genuine recovery"
    );
    assert!(live.health.iter().any(|h| h.failed), "and a casualty");

    let replayer = TraceReplayer::load_dir(&dir).expect("recording loads");
    assert!(replayer.all_clean(), "sealed segments read back clean");
    let replayed = FleetRunner::new(recording)
        .replay(replayer.streams)
        .expect("replay completes");
    assert_eq!(
        live.digest(),
        replayed.digest(),
        "replay reconstructs the supervised run bit-for-bit"
    );
    // The persisted health ledger round-trips: counts survive the trip
    // through the segment trailer even though the failure forensics
    // (messages) are live-only.
    for (l, r) in live.health.iter().zip(replayed.health.iter()) {
        assert_eq!(l.restarts, r.restarts);
        assert_eq!(l.failure_count, r.failure_count);
        assert_eq!(l.breaker_trips, r.breaker_trips);
        assert_eq!(l.breaker_state, r.breaker_state);
        assert_eq!(l.failed, r.failed);
        assert!(r.failures.is_empty(), "messages are not persisted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
