//! Fleet-scale Meltdown detection: the paper's §IV-C case study, scaled
//! from one machine to sixteen.
//!
//! Sixteen simulated machines run on a worker pool, each under its own
//! K-LEB monitor at the paper's 100 µs period. Fifteen run the benign
//! secret printer; one runs the Meltdown attack. Each machine's samples
//! go into its shard of the fleet store, and a fan-in pass flags the
//! attacker by its LLC-miss-per-kilo-instruction signature (paper: MPKI
//! 7.52 benign → 27.53 under attack). The pipeline also reports its own
//! self-metrics: ingest rate, rejections, restarts and governance.
//!
//! Run with: `cargo run --release --example fleet_monitoring`

use fleet::{scan_fleet, verdict_table, AnomalyConfig, FleetConfig, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use ksim::Duration;
use pmu::HwEvent;
use workloads::{MeltdownAttack, SecretPrinter};

const FLEET_SIZE: u64 = 16;
const ATTACKER: u64 = 11;

fn main() -> Result<(), kleb_repro::Error> {
    let config = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .build();

    let specs: Vec<MachineSpec> = (0..FLEET_SIZE)
        .map(|i| {
            MachineSpec::new(format!("node-{i:02}"), 1000 + i, move |seed| {
                if i == ATTACKER {
                    Box::new(MeltdownAttack::paper(seed)) as _
                } else {
                    Box::new(SecretPrinter::paper(seed)) as _
                }
            })
        })
        .collect();

    println!(
        "monitoring {FLEET_SIZE} machines @ 100 us (one is running Meltdown; we don't know which)\n"
    );
    let outcome = FleetRunner::new(config).run(specs)?;

    let report = scan_fleet(&outcome.store, &AnomalyConfig::default());
    let labels: Vec<String> = outcome.machines.iter().map(|m| m.label.clone()).collect();
    println!("{}", verdict_table(&report, &labels));

    match report.flagged.as_slice() {
        [m] => println!("\n=> {} is exfiltrating via Meltdown\n", labels[*m]),
        [] => println!("\n=> no anomaly found (unexpected)\n"),
        many => println!("\n=> multiple machines flagged: {many:?}\n"),
    }

    println!("pipeline self-metrics:");
    println!("{}", outcome.metrics_table());
    Ok(())
}
