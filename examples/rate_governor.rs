//! Closed-loop rate governing under bursty pressure.
//!
//! Four machines run the same workload at a 100 µs base period while an
//! injected fault plan opens a ring-pressure window 25 % of the time
//! (`FaultPlan::bursts`): inside a burst, sample pushes fail and drops
//! pile up; outside, the pipeline is calm. A fixed period has to pick
//! its poison — sample fast and bleed drops through every burst, or
//! sample slow and waste resolution on the calm 70 %. The governor
//! rides the AIMD loop instead: it backs off within a few polls of a
//! burst opening and creeps back to base once the pressure clears.
//!
//! The run is seeded and fully deterministic — rerunning with the same
//! `--seed` reproduces every retune — and a second governed run at the
//! same seed proves it by digest equality.
//!
//! Run with: `cargo run --release --example rate_governor [--quick] [--seed N]`

use fleet::{
    FleetConfig, FleetConfigBuilder, FleetOutcome, FleetRunner, GovernorPolicy, MachineSpec,
};
use kleb::KlebTuning;
use kleb_bench::Scale;
use ksim::{Duration, FaultPlan, FixedBlocks, MachineConfig, WorkBlock};
use pmu::{EventCounts, HwEvent};

const FLEET_SIZE: u64 = 4;
const BASE_PERIOD_US: u64 = 100;

fn bursty_plan() -> FaultPlan {
    // Ring pressure only fires inside a 2 ms window of every 8 ms — long
    // enough for the governor (polling at 1 ms) to back off inside a
    // burst and creep back to base during the calm 6 ms.
    FaultPlan::ring_pressure(0.6).bursts(Duration::from_millis(8), 0.25)
}

fn config() -> FleetConfigBuilder {
    FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(BASE_PERIOD_US),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(MachineConfig::test_tiny)
    .drain_interval(Duration::from_millis(1))
    .faults(bursty_plan())
}

fn specs(seed: u64, blocks: u64) -> Vec<MachineSpec> {
    (0..FLEET_SIZE)
        .map(|i| {
            MachineSpec::new(format!("node-{i}"), seed + i, move |s| {
                Box::new(FixedBlocks::new(
                    blocks + (s % 3) * 200,
                    WorkBlock::compute(1_000, 2_670)
                        .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
                )) as _
            })
            // Heavier weight = this stream costs more per sample, so the
            // budget allocator slows it first.
            .weight(1.0 + i as f64 * 0.5)
        })
        .collect()
}

fn tally(outcome: &FleetOutcome) -> (u64, u64) {
    let delivered: u64 = outcome
        .machines
        .iter()
        .map(|m| m.outcome.samples.len() as u64)
        .sum();
    let dropped: u64 = outcome
        .machines
        .iter()
        .map(|m| m.outcome.status.samples_dropped)
        .sum();
    (delivered, dropped)
}

fn monitored_ns(outcome: &FleetOutcome) -> u64 {
    outcome
        .machines
        .iter()
        .filter_map(|m| m.outcome.samples.last().map(|s| s.timestamp_ns))
        .max()
        .unwrap_or(0)
}

fn main() -> Result<(), kleb_repro::Error> {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    println!("{}", scale.seed_line());
    // ~1 µs of simulated time per block: tens of milliseconds per run.
    let blocks = scale.docker_blocks * 10;

    println!(
        "\n{FLEET_SIZE} machines @ {BASE_PERIOD_US} us base period, ring pressure bursting \
         25% of the time\n"
    );

    // --- fixed period: every burst lands at full sampling speed -------
    let fixed = FleetRunner::new(config().build()).run(specs(scale.seed, blocks))?;
    let (fixed_delivered, fixed_dropped) = tally(&fixed);

    // --- governed: AIMD backs off inside bursts, recovers after -------
    let policy = GovernorPolicy::new()
        .max_period_factor(8)
        .depth_threshold_pct(50)
        .hysteresis(3);
    let governed =
        FleetRunner::new(config().govern(policy).build()).run(specs(scale.seed, blocks))?;
    let (gov_delivered, gov_dropped) = tally(&governed);

    let span_ns = monitored_ns(&fixed).max(monitored_ns(&governed));
    let fixed_proxy = analysis::overhead_proxy(fixed_delivered, fixed_dropped, span_ns, 4.0);
    let gov_proxy = analysis::overhead_proxy(gov_delivered, gov_dropped, span_ns, 4.0);

    println!("                 delivered   dropped   overhead proxy (samples/s charged)");
    println!("  fixed 100us   {fixed_delivered:>9}  {fixed_dropped:>8}   {fixed_proxy:>10.0}");
    println!("  governed      {gov_delivered:>9}  {gov_dropped:>8}   {gov_proxy:>10.0}");

    println!("\nper-machine governor ledger:\n");
    println!("{}", governed.governor_table());
    println!(
        "fleet counters: {} retunes, {} clamps, {} oscillations",
        governed.metrics.governor_retunes,
        governed.metrics.governor_clamps,
        governed.metrics.governor_oscillations
    );

    assert!(
        gov_dropped < fixed_dropped,
        "the governor must shed pressure the fixed period eats ({gov_dropped} vs {fixed_dropped})"
    );
    assert!(
        governed
            .governors
            .iter()
            .any(|g| g.stats.retunes > 0 && g.stats.acked == g.stats.retunes),
        "bursts must drive acked retunes"
    );

    // --- fleet budget allocation (static, up front) -------------------
    // With an aggregate samples/sec budget the allocator slows the
    // heaviest streams first, before anything runs.
    let weights: Vec<f64> = (0..FLEET_SIZE).map(|i| 1.0 + i as f64 * 0.5).collect();
    let tight = GovernorPolicy::new().budget(20_000).max_period_factor(8);
    let alloc = tight.allocate(Duration::from_micros(BASE_PERIOD_US).as_nanos(), &weights);
    println!("\nbudget 20k samples/s across weights {weights:?}:");
    for (i, p) in alloc.iter().enumerate() {
        println!(
            "  node-{i} (weight {:.1}) -> {:.0} us",
            weights[i],
            *p as f64 / 1_000.0
        );
    }

    // --- determinism: same seed, same retune schedule -----------------
    let rerun = FleetRunner::new(config().govern(policy).build()).run(specs(scale.seed, blocks))?;
    assert_eq!(
        governed.digest(),
        rerun.digest(),
        "governed runs must be bit-identical at the same seed"
    );
    println!(
        "\nOK: governed rerun at seed {} is digest-identical.",
        scale.seed
    );
    Ok(())
}
