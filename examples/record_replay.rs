//! Record a chaotic fleet run to disk, replay it, prove the replay is
//! byte-identical — then damage the recording and show recovery.
//!
//! Four simulated machines run under K-LEB monitors with an injected
//! fault plan (ring pressure, timer jitter: dropped samples, drain
//! retries, a real recovery ledger). Every sample stream is teed into a
//! ktrace columnar segment while the live pipeline consumes it. The
//! recording is then loaded back and driven through the *same* fleet
//! join and store ingest as a drop-in machine source; the run digest —
//! samples, store contents, drop accounting, supervision health — must
//! match the live run exactly. That equality is what makes recorded traces usable
//! for regression testing: a code change that alters any observable
//! behaviour of the pipeline changes the digest.
//!
//! Finally, one segment is deliberately corrupted (seeded, reproducible)
//! and re-read: CRC-protected blocks are skipped, later blocks are
//! recovered by magic resync, and every lost sample is accounted for.
//!
//! Run with: `cargo run --release --example record_replay [--seed N]`

use fleet::{scan_fleet, AnomalyConfig, FleetConfig, FleetRunner, MachineSpec};
use kleb::KlebTuning;
use kleb_bench::Scale;
use ksim::{Duration, FaultPlan, FixedBlocks, MachineConfig, WorkBlock};
use ktrace::{corrupt, CorruptionPlan, TraceReader, TraceReplayer};
use pmu::{EventCounts, HwEvent};

const FLEET_SIZE: u64 = 4;

fn spec(i: u64, seed: u64) -> MachineSpec {
    MachineSpec::new(format!("node-{i:02}"), seed + i, |seed| {
        Box::new(FixedBlocks::new(
            4_000 + (seed % 5) * 500,
            WorkBlock::compute(1_000, 2_670)
                .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3 + seed % 4)),
        ))
    })
}

fn main() -> Result<(), kleb_repro::Error> {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    println!("{}", scale.seed_line());

    let dir = std::env::temp_dir().join(format!("ktrace-record-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- 1. Record: a chaotic live run, teed to disk ------------------
    let config = FleetConfig::builder(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .machine(MachineConfig::test_tiny)
    .faults(FaultPlan::chaos(0.1))
    .persist(&dir)
    .build();

    let specs: Vec<MachineSpec> = (0..FLEET_SIZE).map(|i| spec(i, scale.seed)).collect();
    println!("\nrecording a {FLEET_SIZE}-machine fleet run under FaultPlan::chaos(0.1) ...");
    let live = FleetRunner::new(config.clone()).run(specs)?;

    let total_samples: usize = live.machines.iter().map(|m| m.outcome.samples.len()).sum();
    let total_dropped: u64 = live
        .machines
        .iter()
        .map(|m| m.outcome.status.samples_dropped)
        .sum();
    let mut disk_bytes = 0u64;
    for entry in std::fs::read_dir(&dir)? {
        disk_bytes += entry?.metadata()?.len();
    }
    println!(
        "  {total_samples} samples collected, {total_dropped} dropped by injected faults\n  \
         {} trace files, {disk_bytes} bytes on disk ({:.2} bytes/sample vs {} on the wire)",
        FLEET_SIZE,
        disk_bytes as f64 / total_samples as f64,
        kleb::RECORD_BYTES,
    );

    // --- 2. Replay: the recording as a drop-in machine source ---------
    println!("\nreplaying the recording through the same fleet pipeline ...");
    let replayer = TraceReplayer::load_dir(&dir)?;
    assert!(replayer.all_clean(), "recording must read back clean");
    let replayed = FleetRunner::new(config).replay(replayer.streams)?;

    let live_digest = live.digest();
    let replay_digest = replayed.digest();
    assert_eq!(
        live_digest, replay_digest,
        "replayed run diverged from the live run"
    );
    println!(
        "  digests match: {} bytes of samples, store points, drop ledgers,\n  \
         channel accounting and supervision health — byte-identical",
        live_digest.len()
    );

    // The anomaly scanner sees the same fleet too.
    let cfg = AnomalyConfig::default();
    assert_eq!(
        scan_fleet(&live.store, &cfg),
        scan_fleet(&replayed.store, &cfg),
        "anomaly verdicts diverged"
    );
    println!("  anomaly scan agrees on live and replayed stores");

    // --- 3. Recover: seeded damage, accounted losses ------------------
    println!("\ncorrupting one segment (seeded, reproducible) ...");
    let victim = std::fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "ktrace"))
        .expect("recorded segment present");
    let mut image = std::fs::read(&victim)?;
    let header_len = TraceReader::from_bytes(image.clone())?
        .meta()
        .encode_header()
        .len();
    let log = corrupt(
        &mut image,
        &CorruptionPlan {
            seed: scale.seed,
            flips: 6,
            truncate_tail: true,
            spare_prefix: header_len,
        },
    );
    let rec = TraceReader::from_bytes(image)?.read_all();
    let r = &rec.report;
    println!(
        "  damage: {} byte flips + {} tail bytes torn\n  \
         recovery: {} blocks ok, {} corrupt, {} resyncs; {} samples recovered, {} known lost",
        log.flipped.len(),
        log.truncated,
        r.blocks_ok,
        r.blocks_corrupt,
        r.resyncs,
        r.samples_recovered,
        r.samples_lost,
    );
    assert!(!r.is_clean(), "damage must be reported");
    let original = TraceReplayer::load_dir(&dir)?
        .streams
        .iter()
        .find(|s| s.meta.label == rec.meta.label)
        .map(|s| s.samples.len() as u64)
        .expect("original stream present");
    assert!(
        r.samples_recovered + r.samples_lost <= original,
        "loss accounting over-counted"
    );
    println!(
        "  accounting closes: {} recovered + {} lost ≤ {} originally written",
        r.samples_recovered,
        r.total_lost(original),
        original
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nOK: record → replay is bit-exact; corrupted traces degrade, never lie.");
    Ok(())
}
