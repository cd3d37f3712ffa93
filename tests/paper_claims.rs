//! Integration tests asserting the paper's headline claims hold in the
//! reproduction (at reduced scale; the bench binaries verify full scale).

use baselines::{
    overhead_percent, run_perf_stat, run_tool, run_unmonitored, PerfStatCosts, ToolSpec,
};
use kleb::KlebTuning;
use ksim::{Duration, Machine, MachineConfig};
use pmu::HwEvent;
use workloads::{Matmul, Synthetic};

fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::i7_920(seed))
}

const EVENTS: [HwEvent; 3] = [HwEvent::BranchRetired, HwEvent::Load, HwEvent::Store];

fn overhead_of(spec: &ToolSpec, seed: u64) -> f64 {
    let work = Duration::from_millis(120);
    let mut m = machine(seed);
    let base = run_unmonitored(&mut m, "w", Box::new(Synthetic::cpu_bound(work))).unwrap();
    let mut m = machine(seed + 1);
    let run = run_tool(
        spec,
        &mut m,
        "w",
        Box::new(Synthetic::cpu_bound(work)),
        &EVENTS,
        Duration::from_millis(10),
    )
    .unwrap();
    overhead_percent(base.wall_time(), run.wall_time())
}

#[test]
fn kleb_has_the_lowest_overhead_of_all_tools() {
    // Table II's central claim. Instrumented tools read every ~300 blocks
    // (≈ the 10 ms sample count for this workload).
    let kleb = overhead_of(&ToolSpec::Kleb(KlebTuning::paper_calibrated()), 10);
    let perf_stat = overhead_of(
        &ToolSpec::PerfStat(PerfStatCosts::paper_calibrated(), false),
        20,
    );
    let perf_record = overhead_of(
        &ToolSpec::PerfRecord(baselines::PerfRecordCosts::paper_calibrated(), false),
        30,
    );
    let papi = overhead_of(
        &ToolSpec::Papi(baselines::PapiCosts::paper_calibrated(), 300),
        40,
    );
    let limit = overhead_of(
        &ToolSpec::Limit(baselines::LimitCosts::paper_calibrated(), 300),
        50,
    );
    assert!(
        kleb < perf_record,
        "K-LEB {kleb:.2}% < perf record {perf_record:.2}%"
    );
    assert!(
        kleb < perf_stat,
        "K-LEB {kleb:.2}% < perf stat {perf_stat:.2}%"
    );
    assert!(kleb < papi, "K-LEB {kleb:.2}% < PAPI {papi:.2}%");
    assert!(kleb < limit, "K-LEB {kleb:.2}% < LiMiT {limit:.2}%");
    // The paper's magnitude: K-LEB under ~1.5% at 10 ms even at this
    // reduced runtime; the syscall-driven tools several times higher.
    assert!(kleb < 1.5, "K-LEB overhead {kleb:.2}%");
    assert!(perf_record < kleb * 8.0);
    assert!(
        kleb < 0.42 * perf_record,
        "paper: at least 58.8% decrease vs the next-best tool ({kleb:.2} vs {perf_record:.2})"
    );
}

#[test]
fn perf_cannot_sample_below_ten_milliseconds() {
    // §II-C: perf is limited to 10 ms or slower; K-LEB honours 100 us.
    let mut m = machine(60);
    let perf = run_perf_stat(
        &mut m,
        "w",
        Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
        &EVENTS,
        Duration::from_micros(100),
        PerfStatCosts::paper_calibrated(),
        false,
    )
    .unwrap();
    assert_eq!(perf.effective_period, Duration::from_millis(10));

    let mut m = machine(61);
    let kleb = run_tool(
        &ToolSpec::Kleb(KlebTuning::microarchitectural()),
        &mut m,
        "w",
        Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
        &EVENTS,
        Duration::from_micros(100),
    )
    .unwrap();
    assert_eq!(kleb.effective_period, Duration::from_micros(100));
    // 100x more samples over the same run (modulo monitoring slowdown).
    assert!(
        kleb.samples.len() >= 50 * perf.samples.len().max(1),
        "kleb {} vs perf {}",
        kleb.samples.len(),
        perf.samples.len()
    );
}

#[test]
fn counts_agree_across_tools_within_paper_bounds() {
    // Fig. 9 at reduced scale: deterministic events agree within a fraction
    // of a percent between K-LEB and the counting-mode tools.
    let factory = || Box::new(Matmul::new(192, 9, 0.004));
    let mut m = machine(70);
    let kleb = run_tool(
        &ToolSpec::Kleb(KlebTuning::paper_calibrated()),
        &mut m,
        "w",
        factory(),
        &EVENTS,
        Duration::from_millis(10),
    )
    .unwrap();
    let mut m = machine(71);
    let perf = run_tool(
        &ToolSpec::PerfStat(PerfStatCosts::paper_calibrated(), false),
        &mut m,
        "w",
        factory(),
        &EVENTS,
        Duration::from_millis(10),
    )
    .unwrap();
    let mut m = machine(72);
    let limit = run_tool(
        &ToolSpec::Limit(baselines::LimitCosts::paper_calibrated(), 200),
        &mut m,
        "w",
        factory(),
        &EVENTS,
        Duration::from_millis(10),
    )
    .unwrap();
    for event in EVENTS {
        let k = kleb.total(event).unwrap() as f64;
        let p = perf.total(event).unwrap() as f64;
        let l = limit.total(event).unwrap() as f64;
        assert!(
            ((p - k).abs() / k) < 0.001,
            "{event}: perf stat within 0.1% of K-LEB"
        );
        assert!(
            ((l - k).abs() / k) < 0.003,
            "{event}: LiMiT within the paper's 0.3% bound ({l} vs {k})"
        );
    }
}

#[test]
fn overhead_grows_with_sampling_rate() {
    // §V: "the finer the granularity ... the more overhead".
    let work = Duration::from_millis(60);
    let mut m = machine(80);
    let base = run_unmonitored(&mut m, "w", Box::new(Synthetic::cpu_bound(work)))
        .unwrap()
        .wall_time();
    let mut last = -1.0f64;
    for (i, period_us) in [10_000u64, 1_000, 200].iter().enumerate() {
        let mut m = machine(81 + i as u64);
        let run = run_tool(
            &ToolSpec::Kleb(KlebTuning::paper_calibrated()),
            &mut m,
            "w",
            Box::new(Synthetic::cpu_bound(work)),
            &EVENTS,
            Duration::from_micros(*period_us),
        )
        .unwrap();
        let ovh = overhead_percent(base, run.wall_time());
        assert!(
            ovh > last,
            "overhead must grow as the period shrinks: {ovh:.2}% at {period_us}us"
        );
        last = ovh;
    }
}

#[test]
fn multiplexed_estimates_are_less_precise_than_dedicated_counters() {
    // §II-B/§VI: multiplexing trades precision for coverage.
    let scale = kleb_bench::Scale::quick();
    let rows = kleb_bench::experiments::ablation_multiplex(&scale);
    let worst = rows
        .iter()
        .filter(|r| r.truth > 0)
        .map(|r| r.error_pct)
        .fold(0.0f64, f64::max);
    assert!(
        worst > 0.5,
        "phased workload must defeat multiplex scaling (worst {worst:.2}%)"
    );
}
