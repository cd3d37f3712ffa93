//! Fleet supervision under injected thread panics: containment,
//! deterministic restart, circuit breakers, and partial outcomes.
//!
//! Eight simulated machines run under K-LEB monitors. Two carry a
//! low-rate `ThreadPanic` fault plan — their monitor threads die
//! mid-run and the supervisor restarts them at once, resuming the
//! sample stream where the dead incarnation left off. One more machine
//! is beyond saving (a panic on every timer fire): it exhausts its
//! restart budget, trips its circuit breaker, and the fleet completes
//! *around* it — a partial outcome with the casualty's forensics in its
//! health report, not a top-level error.
//!
//! Because the fault RNG is attempt-salted and the recorded health is a
//! pure function of the failure sequence (supervision reads no clock),
//! the whole supervised run — restarts, breaker trips, spliced sample
//! streams — is reproducible: the same seed yields a byte-identical
//! outcome digest, which the example proves by running the fleet twice.
//!
//! Run with: `cargo run --release --example supervision [--quick] [--seed N]`

use fleet::{FleetConfig, FleetOutcome, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use kleb_bench::Scale;
use ksim::{Duration, FaultPlan, FixedBlocks, MachineConfig, WorkBlock};
use pmu::{EventCounts, HwEvent};

const FLEET_SIZE: u64 = 8;
/// Sentinel seed `machine_config` singles out for certain death.
const DOOMED_SEED: u64 = u64::MAX - 7;
/// Sentinel seeds for the recoverable pair: both panic on an early
/// attempt and recover within the restart budget under the fixed
/// 3000-block workload below. Their trajectory is a pure function of
/// (seed, attempt), so the showcase — die, restart, recover — plays out
/// identically on every run and at every `--seed` / scale.
const PANICKY_SEEDS: [u64; 2] = [60, 140];

/// Per-machine chaos, routed through the machine-config factory (the
/// fleet-wide `FleetConfig::faults` would put the plan on everyone):
/// the two sentinel seeds get a low-rate panic plan they can outlast,
/// the doomed sentinel gets one it cannot, everyone else runs clean.
fn machine_config(seed: u64) -> MachineConfig {
    let mut c = MachineConfig::test_tiny(seed);
    if seed == DOOMED_SEED {
        c.faults = FaultPlan::thread_panic(1.0);
    } else if PANICKY_SEEDS.contains(&seed) {
        c.faults = FaultPlan::thread_panic(0.02);
    }
    c
}

fn specs(base_seed: u64, blocks: u64) -> Vec<MachineSpec> {
    (0..FLEET_SIZE)
        .map(|i| {
            let seed = match i {
                0 => PANICKY_SEEDS[0],
                4 => PANICKY_SEEDS[1],
                5 => DOOMED_SEED,
                _ => base_seed + i,
            };
            MachineSpec::new(format!("node-{i:02}"), seed, move |seed| {
                // The fault-carrying machines run a fixed-length workload
                // so their panic/recovery trajectory is identical under
                // --quick and the default scale; the clean fleet scales
                // normally.
                let blocks = if PANICKY_SEEDS.contains(&seed) || seed == DOOMED_SEED {
                    3_000
                } else {
                    blocks + (seed % 5) * 200
                };
                Box::new(FixedBlocks::new(
                    blocks,
                    WorkBlock::compute(1_000, 2_670)
                        .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
                )) as _
            })
        })
        .collect()
}

fn run_fleet(scale: &Scale) -> FleetOutcome {
    let config = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(machine_config)
    .build();
    // Offset keeps the --seed-derived clean seeds clear of the sentinels.
    FleetRunner::new(config)
        .run(specs(10_000 + scale.seed * FLEET_SIZE, scale.docker_blocks))
        .expect("a partial fleet is still an Ok fleet")
}

/// The injected panics are the *point* of this example, but the default
/// panic hook would spray a backtrace per dead incarnation. Compress
/// those to one line each; anything else still gets the full treatment.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()));
        match message {
            Some(m) if m.contains("injected fault: thread panic") => {
                println!("  [panic contained] {m}");
            }
            _ => default_hook(info),
        }
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    println!("== fleet supervision under injected thread panics ==");
    println!("{}", scale.seed_line());
    quiet_injected_panics();

    println!("\nrunning {FLEET_SIZE} machines: 2 with recoverable panic plans, 1 doomed ...");
    let outcome = run_fleet(&scale);

    println!("\nper-machine health:");
    println!("{}", outcome.health_table());
    println!("fleet metrics:");
    println!("{}", outcome.metrics_table());

    let failed = outcome.failed_machines();
    assert_eq!(
        outcome.machines.len() as u64,
        FLEET_SIZE,
        "every seat reports, dead or alive"
    );
    assert_eq!(failed.len(), 1, "exactly the doomed machine is lost");
    let casualty = &outcome.health[failed[0]];
    println!(
        "casualty: {} — {} failures over {} restarts, breaker {:?} after {} trip(s)",
        outcome.machines[failed[0]].label,
        casualty.failure_count,
        casualty.restarts,
        casualty.breaker_state,
        casualty.breaker_trips,
    );
    for f in &casualty.failures {
        println!("  {f}");
    }
    let restarted_and_recovered: Vec<&str> = outcome
        .health
        .iter()
        .enumerate()
        .filter(|(_, h)| h.restarts > 0 && !h.failed)
        .map(|(i, _)| outcome.machines[i].label.as_str())
        .collect();
    assert_eq!(
        restarted_and_recovered,
        ["node-00", "node-04"],
        "the sentinel pair dies and recovers on every run"
    );
    println!(
        "recovered after restart: {}",
        restarted_and_recovered.join(", ")
    );
    for report in &outcome.machines {
        let samples = &report.outcome.samples;
        for w in samples.windows(2) {
            assert!(w[1].seq > w[0].seq, "spliced streams stay ordered");
        }
    }

    println!("\nre-running the identical fleet to prove determinism ...");
    let rerun = run_fleet(&scale);
    let (a, b) = (outcome.digest(), rerun.digest());
    assert_eq!(
        a, b,
        "supervised runs at the same seed must be byte-identical"
    );
    println!(
        "digest match: {} bytes, restarts and breaker trips included",
        a.len()
    );
    println!(
        "\nOK: panics contained, restarts deterministic, the fleet completes around its casualty."
    );
}
