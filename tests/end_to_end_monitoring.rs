//! Cross-crate integration tests: the full K-LEB pipeline (workload →
//! machine → kernel module → controller → samples) on real workload models.

use kleb::{KlebTuning, Monitor};
use ksim::{CoreId, Duration, Machine, MachineConfig};
use pmu::HwEvent;
use workloads::{DockerImage, Linpack, Matmul, MeltdownAttack, SecretPrinter, Synthetic, SECRET};

fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::i7_920(seed))
}

#[test]
fn kleb_counts_are_exact_on_matmul() {
    let mut m = machine(1);
    let outcome = Monitor::new(
        &[HwEvent::ArithMul, HwEvent::Load, HwEvent::Store],
        Duration::from_millis(1),
    )
    .run(&mut m, "matmul", Box::new(Matmul::new(96, 1, 0.004)))
    .expect("monitored run");
    let truth = &outcome.target.true_user_events;
    assert_eq!(
        outcome.total_event(HwEvent::ArithMul),
        Some(truth.get(HwEvent::ArithMul)),
        "per-period deltas plus the exit flush must reproduce the exact count"
    );
    assert_eq!(outcome.total_event(HwEvent::ArithMul), Some(96 * 96 * 96));
    assert_eq!(
        outcome.total_instructions(),
        truth.get(HwEvent::InstructionsRetired)
    );
}

#[test]
fn kleb_tracks_container_children_end_to_end() {
    let mut m = machine(2);
    let outcome = Monitor::new(&[HwEvent::LlcMiss], Duration::from_millis(1))
        .run(
            &mut m,
            "nginx",
            Box::new(DockerImage::Nginx.container(400, 2)),
        )
        .expect("monitored container");
    // The parent exits quickly; nearly all instructions come from the
    // forked service process, so a non-following monitor would miss them.
    let parent_instr = outcome
        .target
        .true_user_events
        .get(HwEvent::InstructionsRetired);
    assert!(
        outcome.total_instructions() > 3 * parent_instr,
        "sampled instructions ({}) must dwarf the parent's own ({parent_instr})",
        outcome.total_instructions()
    );
}

#[test]
fn meltdown_attack_recovers_secret_under_monitoring() {
    let mut m = machine(3);
    let (shared, attack) = MeltdownAttack::new(3).into_shared();
    let outcome = Monitor::new(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .run(&mut m, "meltdown", Box::new(attack))
    .expect("monitored attack");
    assert_eq!(
        shared.lock().unwrap().as_slice(),
        SECRET,
        "the Flush+Reload attack must still work while monitored"
    );
    assert!(!outcome.samples.is_empty());
}

#[test]
fn high_frequency_beats_perf_granularity_on_short_programs() {
    // The benign Meltdown victim finishes in < 10 ms: perf's floor yields
    // at most one sample, K-LEB at 100 us yields a real series (§IV-C).
    let mut m = machine(4);
    let outcome = Monitor::new(&[HwEvent::LlcMiss], Duration::from_micros(100))
        .tuning(KlebTuning::microarchitectural())
        .run(&mut m, "victim", Box::new(SecretPrinter::paper(4)))
        .expect("monitored victim");
    let wall = outcome.target.wall_time();
    assert!(
        wall < Duration::from_millis(13),
        "short program stayed short: {wall}"
    );
    assert!(
        outcome.samples.len() >= 30,
        "100us sampling produced a usable series: {} samples",
        outcome.samples.len()
    );
    let perf_samples = wall.as_nanos() / Duration::from_millis(10).as_nanos();
    assert!(perf_samples <= 1, "perf's 10ms floor would see at most one");
}

#[test]
fn linpack_phases_visible_in_samples() {
    let mut m = machine(5);
    let outcome = Monitor::new(
        &[HwEvent::ArithMul, HwEvent::Load, HwEvent::Store],
        Duration::from_micros(500),
    )
    .run(&mut m, "linpack", Box::new(Linpack::new(1200, 5)))
    .expect("monitored linpack");
    let mul: Vec<u64> = outcome.samples.iter().map(|s| s.pmc[0]).collect();
    let store: Vec<u64> = outcome.samples.iter().map(|s| s.pmc[2]).collect();
    let peak = mul.iter().chain(store.iter()).copied().max().unwrap_or(0);
    let phases = analysis::detect_phases(&[&mul, &store], (peak / 50).max(1), 2.0, 1);
    let alternations = analysis::phases::dominance_alternations(&phases);
    assert!(
        alternations >= 4,
        "expected repeating compute/store sweeps, got {alternations} over {} phases",
        phases.len()
    );
}

#[test]
fn buffer_safety_never_loses_samples() {
    let mut m = machine(6);
    let outcome = Monitor::new(&[HwEvent::Load], Duration::from_micros(100))
        .buffer_capacity(32)
        .drain_interval(Duration::from_millis(15))
        .run(
            &mut m,
            "hog",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
        )
        .expect("monitored hog");
    assert!(
        outcome.status.pauses > 0,
        "tiny buffer must trip the safety stop"
    );
    assert_eq!(
        outcome.samples.len() as u64,
        outcome.status.samples_taken,
        "every sample the module took must reach the controller"
    );
    assert_eq!(
        outcome.status.samples_dropped, 0,
        "a healthy machine pauses instead of dropping"
    );
    // Gap-free series: consecutive seq numbers, no gap markers.
    for (i, s) in outcome.samples.iter().enumerate() {
        assert_eq!(s.seq, i as u64, "sequence hole without any fault injected");
        assert!(!s.gap);
    }
}

#[test]
fn ewma_detector_flags_meltdown_from_kleb_samples() {
    // The paper's §IV-C outlook: hardware-event-based anomaly detection on
    // K-LEB's 100 us stream. Train the detector on the benign run's MPKI
    // and it must stay quiet; the attacked run must trip it repeatedly.
    let series_of = |attack: bool, seed: u64| -> Vec<f64> {
        let mut m = machine(seed);
        let workload: Box<dyn ksim::Workload> = if attack {
            Box::new(MeltdownAttack::paper(seed))
        } else {
            Box::new(SecretPrinter::paper(seed))
        };
        let outcome = Monitor::new(
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(100),
        )
        .tuning(KlebTuning::microarchitectural())
        .run(&mut m, "p", workload)
        .expect("monitored run");
        outcome
            .samples
            .iter()
            .map(|s| s.pmc[1] as f64 / (s.fixed[0].max(1) as f64 / 1000.0))
            .collect()
    };
    let benign = series_of(false, 21);
    let attacked = series_of(true, 22);
    // Train the profile on a benign run (how a deployment would baseline
    // the protected program), then stream both runs through it.
    let mut trained = analysis::EwmaDetector::for_counter_series();
    for &v in &benign {
        trained.update(v);
    }
    let benign_hits = trained.clone().scan(series_of(false, 23));
    let attack_hits = trained.scan(attacked.iter().copied());
    assert!(
        benign_hits.len() * 20 <= benign.len(),
        "a second benign run stays mostly quiet: {} hits",
        benign_hits.len(),
    );
    assert!(
        attack_hits.len() * 4 >= attacked.len(),
        "attack flagged repeatedly: {} hits / {}",
        attack_hits.len(),
        attacked.len()
    );
}

#[test]
fn isolation_against_core_sharing_neighbours() {
    let mut m = machine(7);
    // Spawn a noisy neighbour on core 0 before the monitored target.
    m.spawn(
        "noise",
        CoreId(0),
        Box::new(
            Synthetic::cpu_bound(Duration::from_millis(60))
                .events(pmu::EventCounts::new().with(HwEvent::ArithMul, 1_000_000)),
        ),
    );
    let outcome = Monitor::new(&[HwEvent::ArithMul], Duration::from_millis(1))
        .run(&mut m, "target", Box::new(Matmul::new(64, 7, 0.0)))
        .expect("monitored target");
    assert_eq!(
        outcome.total_event(HwEvent::ArithMul),
        Some(64 * 64 * 64),
        "neighbour's multiplies must not leak into the target's counts"
    );
}

#[test]
fn heartbleed_data_only_exploit_detected_from_miss_series() {
    // Paper reference [26] (Torres & Liu): data-only exploits are invisible
    // to control-flow checks but visible in hardware events. The exploited
    // server's per-100us LLC-miss counts sit orders of magnitude above the
    // benign baseline.
    use workloads::HeartbleedServer;
    let series = |server: Box<dyn ksim::Workload>, seed: u64| -> Vec<f64> {
        let mut m = machine(seed);
        let outcome = Monitor::new(
            &[HwEvent::Load, HwEvent::LlcMiss],
            Duration::from_micros(100),
        )
        .tuning(KlebTuning::microarchitectural())
        .run(&mut m, "tls", server)
        .expect("monitored server");
        outcome.samples.iter().map(|s| s.pmc[1] as f64).collect()
    };
    let benign = series(Box::new(HeartbleedServer::benign(400, 1)), 31);
    let exploited = series(Box::new(HeartbleedServer::exploited(400, 2)), 32);
    let mut detector = analysis::EwmaDetector::new(0.15, 5.0, 6);
    for &v in &benign {
        detector.update(v);
    }
    let benign_hits = detector
        .clone()
        .scan(series(Box::new(HeartbleedServer::benign(400, 3)), 33));
    let exploit_hits = detector.scan(exploited.iter().copied());
    assert!(benign_hits.is_empty(), "no false alarms: {benign_hits:?}");
    assert!(
        exploit_hits.len() * 2 >= exploited.len(),
        "most exploited samples flagged: {} of {}",
        exploit_hits.len(),
        exploited.len()
    );
}
