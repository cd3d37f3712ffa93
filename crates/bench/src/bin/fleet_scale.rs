//! Fleet scaling sweep: fleet throughput as the fleet grows.
//!
//! Runs the fleet pipeline at N = 1..64 machines under the lossless Block
//! policy and reports per-N throughput over the whole run (spawn to
//! join), ring depth in samples, and drop counts (which must stay zero:
//! Block never sheds samples). Usage:
//! `fleet_scale [--quick|--full] [--seed N]`.

use analysis::TextTable;
use fleet::{FleetConfig, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use kleb_bench::Scale;
use ksim::{Duration, FixedBlocks, MachineConfig, WorkBlock};
use pmu::{EventCounts, HwEvent};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    println!("{}", scale.seed_line());
    println!("Fleet scaling sweep — K-LEB @ 500 us per machine, Block backpressure\n");

    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    let sizes: Vec<usize> = if quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let blocks_per_machine = if full { 20_000 } else { 6_000 };
    let mut t = TextTable::new(&[
        "machines",
        "samples",
        "wall ms",
        "samples/s",
        "depth HWM",
        "block waits",
        "dropped",
    ]);
    for n in sizes {
        let config = FleetConfig::builder(
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(500),
        )
        .tuning(KlebTuning::microarchitectural())
        .machine(MachineConfig::test_tiny)
        .build();
        let base = scale.seed;
        let specs: Vec<MachineSpec> = (0..n as u64)
            .map(|i| {
                MachineSpec::new(format!("m{i}"), base + i, move |seed| {
                    Box::new(FixedBlocks::new(
                        blocks_per_machine,
                        WorkBlock::compute(1_000, 2_670)
                            .with_events(EventCounts::new().with(HwEvent::LlcMiss, (seed % 5) + 1)),
                    ))
                })
            })
            .collect();
        let outcome = FleetRunner::new(config).run(specs).expect("fleet run");
        let samples = outcome.metrics.samples_ingested;
        let secs = outcome.elapsed.as_secs_f64();
        assert_eq!(
            outcome.channel.total_dropped(),
            0,
            "Block must be lossless at N={n}"
        );
        t.row_owned(vec![
            n.to_string(),
            samples.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.0}", samples as f64 / secs),
            format!("{}", outcome.channel.depth_high_water),
            outcome.channel.block_waits.to_string(),
            outcome.metrics.samples_dropped.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("\nzero drops at every N: the collector kept pace with the whole fleet");
}
