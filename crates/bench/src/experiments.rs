//! The experiment implementations. See the crate docs for the mapping to
//! the paper's tables and figures.

use pmu::HwEvent;

use analysis::{five_number, mean, stddev, FiveNumber};
use baselines::{overhead_percent, run_tool, ToolError, ToolRun, ToolSpec};
use kleb::{KlebTuning, Monitor};
use ksim::{Duration, ItemResult, Machine, MachineConfig, WorkItem, Workload};
use workloads::{Dgemm, DockerImage, Linpack, Matmul, MeltdownAttack, SecretPrinter, Synthetic};

use crate::scale::Scale;

/// Events for the LINPACK case study (paper Fig. 4: arithmetic multiply,
/// load, store).
pub const EVENTS_LINPACK: [HwEvent; 3] = [HwEvent::ArithMul, HwEvent::Load, HwEvent::Store];

/// Deterministic events for the overhead/accuracy studies (paper Fig. 9).
pub const EVENTS_DETERMINISTIC: [HwEvent; 3] =
    [HwEvent::BranchRetired, HwEvent::Load, HwEvent::Store];

/// Cache events for the Meltdown case study (paper Figs. 6-7).
const EVENTS_CACHE: [HwEvent; 2] = [HwEvent::LlcReference, HwEvent::LlcMiss];

/// The paper's sampling period for the long-running studies.
pub const PERIOD_10MS: Duration = Duration::from_millis(10);

/// The paper's headline high-frequency period.
const PERIOD_100US: Duration = Duration::from_micros(100);

fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::i7_920(seed))
}

/// Counts the work blocks a workload generator will emit (for choosing the
/// instrumented tools' read density, per the paper's "approximately the
/// same number of data samples" methodology).
pub fn count_blocks(mut workload: Box<dyn Workload>) -> u64 {
    let mut blocks = 0;
    while let Some(item) = workload.next(&ItemResult::None) {
        if matches!(item, WorkItem::Block(_)) {
            blocks += 1;
        }
    }
    blocks
}

// ---------------------------------------------------------------------
// Table I — LINPACK GFLOPS across profiling tools
// ---------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Tool name.
    pub tool: String,
    /// Mean GFLOPS across trials.
    pub gflops: f64,
    /// Performance loss vs. no profiling, percent.
    pub loss_pct: f64,
}

/// Table I: LINPACK GFLOPS under no profiling, K-LEB, perf stat and
/// perf record, all at a 10 ms rate (paper §IV-A).
pub fn table1_linpack(scale: &Scale) -> Vec<Table1Row> {
    let specs = [
        ToolSpec::None,
        ToolSpec::Kleb(KlebTuning::paper_calibrated()),
        ToolSpec::PerfStat(baselines::PerfStatCosts::paper_calibrated(), false),
        ToolSpec::PerfRecord(baselines::PerfRecordCosts::paper_calibrated(), false),
    ];
    let flops = Linpack::solve_only(scale.linpack_n, 0).flops();
    let mut gflops_by_tool: Vec<(String, Vec<f64>)> = specs
        .iter()
        .map(|s| (s.name().to_string(), Vec::new()))
        .collect();
    for trial in 0..scale.linpack_trials {
        let wl_seed = scale.seed + trial;
        for (i, spec) in specs.iter().enumerate() {
            let mut m = machine(scale.seed * 1000 + trial * 10 + i as u64);
            let run = run_tool(
                spec,
                &mut m,
                "linpack",
                Box::new(Linpack::solve_only(scale.linpack_n, wl_seed)),
                &EVENTS_LINPACK,
                PERIOD_10MS,
            )
            .expect("linpack run");
            gflops_by_tool[i]
                .1
                .push(analysis::gflops(flops, run.wall_time().as_secs_f64()));
        }
    }
    let baseline = mean(&gflops_by_tool[0].1);
    gflops_by_tool
        .into_iter()
        .map(|(tool, values)| {
            let g = mean(&values);
            Table1Row {
                tool,
                gflops: g,
                loss_pct: analysis::performance_loss_percent(baseline, g),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 4 — LINPACK phase behaviour
// ---------------------------------------------------------------------

/// Result of the Fig. 4 phase study.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Per-event sample series (ARITH_MUL, LOAD, STORE), averaged over
    /// trials and aligned to the shortest run.
    pub series: Vec<Vec<u64>>,
    /// Detected phases.
    pub phases: Vec<analysis::Phase>,
    /// Number of dominance alternations (load↔compute↔store sweeps).
    pub alternations: usize,
    /// Samples in the quiet init prefix.
    pub quiet_prefix: usize,
}

/// The sampling period for Fig. 4: the paper's 10 ms at full problem size,
/// scaled down with the cube of the problem size so reduced-scale runs keep
/// roughly the paper's ~200-sample resolution.
fn fig4_period(scale: &Scale) -> Duration {
    if scale.linpack_n >= 4_500 {
        return PERIOD_10MS;
    }
    let ratio = scale.linpack_n as f64 / 5_000.0;
    let ns = (PERIOD_10MS.as_nanos() as f64 * ratio.powi(3)) as u64;
    Duration::from_nanos(ns.max(500_000))
}

/// Fig. 4: the LINPACK time series as K-LEB records it (10 ms at paper
/// scale; see [`fig4_period`]).
pub fn fig4_linpack_phases(scale: &Scale) -> Fig4Result {
    let period = fig4_period(scale);
    let mut all_series: Vec<Vec<Vec<u64>>> = Vec::new(); // trial -> event -> samples
    for trial in 0..scale.linpack_trials {
        let mut m = machine(scale.seed + 7_000 + trial);
        let outcome = Monitor::new(&EVENTS_LINPACK, period)
            .run(
                &mut m,
                "linpack",
                Box::new(Linpack::new(scale.linpack_n, scale.seed + trial)),
            )
            .expect("monitored linpack");
        let per_event: Vec<Vec<u64>> = (0..EVENTS_LINPACK.len())
            .map(|i| outcome.samples.iter().map(|s| s.pmc[i]).collect())
            .collect();
        all_series.push(per_event);
    }
    let min_len = all_series.iter().map(|t| t[0].len()).min().unwrap_or(0);
    let trials = all_series.len() as u64;
    let series: Vec<Vec<u64>> = (0..EVENTS_LINPACK.len())
        .map(|e| {
            (0..min_len)
                .map(|i| all_series.iter().map(|t| t[e][i]).sum::<u64>() / trials)
                .collect()
        })
        .collect();
    // Phase structure is read off the ARITH_MUL vs STORE contrast (compute
    // vs writeback); LOAD is plotted but not used for detection since both
    // phases load heavily. The quiet threshold scales with the series.
    let mul = &series[0];
    let store = &series[2];
    let peak = mul.iter().chain(store.iter()).copied().max().unwrap_or(0);
    let phases = analysis::detect_phases(&[mul, store], (peak / 50).max(1), 2.0, 1);
    let alternations = analysis::phases::dominance_alternations(&phases);
    let quiet_prefix = phases
        .first()
        .filter(|p| p.kind == analysis::PhaseKind::Quiet)
        .map_or(0, |p| p.len());
    Fig4Result {
        series,
        phases,
        alternations,
        quiet_prefix,
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — Docker MPKI classification
// ---------------------------------------------------------------------

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Docker image.
    pub image: DockerImage,
    /// Measured LLC MPKI.
    pub mpki: f64,
    /// Classification at the paper's MPKI-10 boundary.
    pub class: analysis::IntensityClass,
}

/// Fig. 5: LLC MPKI per Docker image, measured by K-LEB monitoring the
/// *container parent* with fork-following (paper §IV-B: "only provided
/// with a binary container").
pub fn fig5_docker_mpki(scale: &Scale) -> Vec<Fig5Row> {
    DockerImage::ALL
        .iter()
        .map(|&image| {
            let mut m = machine(scale.seed + image as u64);
            let outcome = Monitor::new(&[HwEvent::LlcMiss], PERIOD_10MS)
                .run(
                    &mut m,
                    image.name(),
                    Box::new(image.container(scale.docker_blocks, scale.seed)),
                )
                .expect("monitored container");
            let misses: u64 = outcome.samples.iter().map(|s| s.pmc[0]).sum();
            let instructions: u64 = outcome.samples.iter().map(|s| s.fixed[0]).sum();
            let mpki = analysis::mpki(misses, instructions);
            Fig5Row {
                image,
                mpki,
                class: analysis::IntensityClass::from_mpki(mpki),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs. 6 & 7 — Meltdown
// ---------------------------------------------------------------------

/// Averages for Fig. 6 plus the MPKI numbers quoted in §IV-C.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Result {
    /// Mean LLC references per run, benign program.
    pub victim_refs: f64,
    /// Mean LLC misses per run, benign program.
    pub victim_misses: f64,
    /// Mean LLC references per run, Meltdown-attacked program.
    pub attack_refs: f64,
    /// Mean LLC misses per run, Meltdown-attacked program.
    pub attack_misses: f64,
    /// Mean MPKI, benign (paper: 7.52).
    pub victim_mpki: f64,
    /// Mean MPKI, attacked (paper: 27.53).
    pub attack_mpki: f64,
    /// Mean K-LEB samples per run, benign.
    pub victim_samples: f64,
    /// Mean K-LEB samples per run, attacked (paper: many more).
    pub attack_samples: f64,
}

fn monitor_meltdown(seed: u64, attack: bool) -> (u64, u64, u64, usize) {
    let mut m = machine(seed);
    let workload: Box<dyn Workload> = if attack {
        Box::new(MeltdownAttack::paper(seed))
    } else {
        Box::new(SecretPrinter::paper(seed))
    };
    // 100 us sampling uses the first-principles handler costs: the
    // paper-calibrated per-sample constant embeds 10 ms-rate systemic
    // effects (see EXPERIMENTS.md); the rate-sweep ablation covers the
    // overhead-vs-rate claim separately.
    let outcome = Monitor::new(&EVENTS_CACHE, PERIOD_100US)
        .tuning(KlebTuning::microarchitectural())
        .run(&mut m, if attack { "meltdown" } else { "victim" }, workload)
        .expect("monitored meltdown run");
    let refs: u64 = outcome.samples.iter().map(|s| s.pmc[0]).sum();
    let misses: u64 = outcome.samples.iter().map(|s| s.pmc[1]).sum();
    let instr: u64 = outcome.samples.iter().map(|s| s.fixed[0]).sum();
    (refs, misses, instr, outcome.samples.len())
}

/// Fig. 6: average LLC references/misses with and without Meltdown over
/// `meltdown_rounds` runs, sampled by K-LEB at 100 µs.
pub fn fig6_meltdown_avg(scale: &Scale) -> Fig6Result {
    let mut v = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut a = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..scale.meltdown_rounds {
        let (refs, misses, instr, samples) = monitor_meltdown(scale.seed + round, false);
        v.0.push(refs as f64);
        v.1.push(misses as f64);
        v.2.push(analysis::mpki(misses, instr));
        v.3.push(samples as f64);
        let (refs, misses, instr, samples) = monitor_meltdown(scale.seed + 500 + round, true);
        a.0.push(refs as f64);
        a.1.push(misses as f64);
        a.2.push(analysis::mpki(misses, instr));
        a.3.push(samples as f64);
    }
    Fig6Result {
        victim_refs: mean(&v.0),
        victim_misses: mean(&v.1),
        attack_refs: mean(&a.0),
        attack_misses: mean(&a.1),
        victim_mpki: mean(&v.2),
        attack_mpki: mean(&a.2),
        victim_samples: mean(&v.3),
        attack_samples: mean(&a.3),
    }
}

/// One run's time series for Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// (llc_refs, llc_misses) per 100 µs sample, benign run.
    pub victim: Vec<(u64, u64)>,
    /// Same for the attacked run.
    pub attack: Vec<(u64, u64)>,
    /// Samples a 10 ms-floored perf would have produced on the benign run.
    pub perf_equivalent_samples: usize,
    /// Benign wall time (paper: < 10 ms).
    pub victim_wall: Duration,
    /// Attacked wall time.
    pub attack_wall: Duration,
}

/// Fig. 7: the Meltdown vs. non-Meltdown LLC time series at 100 µs, plus
/// the perf-granularity comparison the paper makes (§IV-C: perf "can only
/// provide one performance counter sample for the same duration").
pub fn fig7_meltdown_series(scale: &Scale) -> Fig7Result {
    let series = |attack: bool, seed: u64| -> (Vec<(u64, u64)>, Duration) {
        let mut m = machine(seed);
        let workload: Box<dyn Workload> = if attack {
            Box::new(MeltdownAttack::paper(seed))
        } else {
            Box::new(SecretPrinter::paper(seed))
        };
        let outcome = Monitor::new(&EVENTS_CACHE, PERIOD_100US)
            .tuning(KlebTuning::microarchitectural())
            .run(&mut m, "p", workload)
            .expect("monitored run");
        (
            outcome
                .samples
                .iter()
                .map(|s| (s.pmc[0], s.pmc[1]))
                .collect(),
            outcome.target.wall_time(),
        )
    };
    let (victim, victim_wall) = series(false, scale.seed);
    let (attack, attack_wall) = series(true, scale.seed + 1);
    let perf_equivalent_samples = (victim_wall.as_nanos() / PERIOD_10MS.as_nanos()) as usize;
    Fig7Result {
        victim,
        attack,
        perf_equivalent_samples,
        victim_wall,
        attack_wall,
    }
}

// ---------------------------------------------------------------------
// Tables II & III, Fig. 8 — overhead studies
// ---------------------------------------------------------------------

/// One row of an overhead table.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Tool name.
    pub tool: String,
    /// Mean wall time, milliseconds.
    pub mean_wall_ms: f64,
    /// Mean overhead vs. the paired unmonitored run, percent.
    pub overhead_pct: f64,
    /// Per-trial wall times normalized to the mean baseline (Fig. 8 data).
    pub normalized_times: Vec<f64>,
}

/// Runs the paper's overhead methodology: `trials` paired runs of
/// `workload_factory(seed)` bare and under each tool in `specs`, all at
/// `period` (instrumented tools read every `read_every` blocks).
fn overhead_study(
    workload_factory: &dyn Fn(u64) -> Box<dyn Workload>,
    specs: &[ToolSpec],
    trials: u64,
    period: Duration,
    base_seed: u64,
) -> Result<Vec<OverheadRow>, ToolError> {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut baselines: Vec<f64> = Vec::new();
    for trial in 0..trials {
        let wl_seed = base_seed + trial;
        let mut m = machine(base_seed * 7919 + trial);
        let base = baselines::run_unmonitored(&mut m, "w", workload_factory(wl_seed))?;
        let base_wall = base.wall_time().as_millis_f64();
        baselines.push(base_wall);
        for (i, spec) in specs.iter().enumerate() {
            let mut m = machine(base_seed * 7919 + trial * 100 + i as u64 + 1);
            let run = run_tool(
                spec,
                &mut m,
                "w",
                workload_factory(wl_seed),
                &EVENTS_DETERMINISTIC,
                period,
            )?;
            walls[i].push(run.wall_time().as_millis_f64());
        }
    }
    let base_mean = mean(&baselines);
    let mut rows = vec![OverheadRow {
        tool: "No profiling".into(),
        mean_wall_ms: base_mean,
        overhead_pct: 0.0,
        normalized_times: baselines.iter().map(|w| w / base_mean).collect(),
    }];
    for (i, spec) in specs.iter().enumerate() {
        let per_trial_overhead: Vec<f64> = walls[i]
            .iter()
            .zip(&baselines)
            .map(|(w, b)| {
                overhead_percent(
                    Duration::from_nanos((b * 1e6) as u64),
                    Duration::from_nanos((w * 1e6) as u64),
                )
            })
            .collect();
        rows.push(OverheadRow {
            tool: spec.name().into(),
            mean_wall_ms: mean(&walls[i]),
            overhead_pct: mean(&per_trial_overhead),
            normalized_times: walls[i].iter().map(|w| w / base_mean).collect(),
        });
    }
    Ok(rows)
}

fn read_every_for(blocks: u64, wall: Duration, period: Duration) -> u64 {
    let samples = (wall.as_nanos() / period.as_nanos()).max(1);
    (blocks / samples).max(1)
}

/// Table II: triple-nested-loop matmul overhead across all five tools at
/// the 10 ms rate (paper §V).
pub fn table2_overhead_matmul(scale: &Scale) -> Vec<OverheadRow> {
    let factory =
        |seed: u64| -> Box<dyn Workload> { Box::new(Matmul::new(scale.matmul_n, seed, 0.004)) };
    // Choose the instrumented tools' read density so the sample counts
    // match the timer-based tools (paper §V methodology).
    let blocks = count_blocks(factory(scale.seed));
    let mut m = machine(scale.seed);
    let base = baselines::run_unmonitored(&mut m, "w", factory(scale.seed)).expect("baseline");
    let read_every = read_every_for(blocks, base.wall_time(), PERIOD_10MS);
    let specs = ToolSpec::all_calibrated(read_every);
    overhead_study(
        &factory,
        &specs,
        scale.overhead_trials,
        PERIOD_10MS,
        scale.seed,
    )
    .expect("table 2 study")
}

/// Table III: MKL-dgemm overhead (short run — fixed costs stop
/// amortizing). LiMiT is absent, as in the paper ("unsupported OS and
/// kernel version").
pub fn table3_overhead_dgemm(scale: &Scale) -> Vec<OverheadRow> {
    let factory =
        |seed: u64| -> Box<dyn Workload> { Box::new(Dgemm::new(scale.dgemm_n, seed, 0.004)) };
    let blocks = count_blocks(factory(scale.seed));
    let mut m = machine(scale.seed);
    let base = baselines::run_unmonitored(&mut m, "w", factory(scale.seed)).expect("baseline");
    let read_every = read_every_for(blocks, base.wall_time(), PERIOD_10MS);
    let specs = vec![
        ToolSpec::Kleb(KlebTuning::paper_calibrated()),
        ToolSpec::PerfStat(baselines::PerfStatCosts::paper_calibrated(), false),
        ToolSpec::PerfRecord(baselines::PerfRecordCosts::paper_calibrated(), false),
        ToolSpec::Papi(baselines::PapiCosts::paper_calibrated(), read_every),
    ];
    overhead_study(
        &factory,
        &specs,
        scale.overhead_trials,
        PERIOD_10MS,
        scale.seed,
    )
    .expect("table 3 study")
}

/// Fig. 8: box-and-whisker statistics of the normalized execution times
/// from the Table II study.
pub fn fig8_overhead_box(rows: &[OverheadRow]) -> Vec<(String, FiveNumber)> {
    rows.iter()
        .map(|r| (r.tool.clone(), five_number(&r.normalized_times)))
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 9 — count accuracy across tools
// ---------------------------------------------------------------------

/// One cell of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Tool compared against K-LEB.
    pub tool: String,
    /// Event compared.
    pub event: HwEvent,
    /// `|tool − K-LEB| / K-LEB`, percent.
    pub diff_vs_kleb_pct: f64,
    /// `|tool − truth| / truth`, percent (extra diagnostic; the paper plots
    /// only the K-LEB-relative difference).
    pub diff_vs_truth_pct: f64,
}

/// Fig. 9: percentage difference in deterministic hardware-event counts
/// between K-LEB and each other tool on the matmul workload.
pub fn fig9_accuracy(scale: &Scale) -> Vec<Fig9Row> {
    let factory = |seed: u64| -> Box<dyn Workload> {
        // Noise affects runtimes, not counts; keep it for realism.
        Box::new(Matmul::new(scale.matmul_n, seed, 0.004))
    };
    let blocks = count_blocks(factory(scale.seed));
    let mut m = machine(scale.seed);
    let base = baselines::run_unmonitored(&mut m, "w", factory(scale.seed)).expect("baseline");
    let read_every = read_every_for(blocks, base.wall_time(), PERIOD_10MS);

    let run_spec = |spec: &ToolSpec, salt: u64| -> ToolRun {
        let mut m = machine(scale.seed + salt);
        run_tool(
            spec,
            &mut m,
            "w",
            factory(scale.seed),
            &EVENTS_DETERMINISTIC,
            PERIOD_10MS,
        )
        .expect("accuracy run")
    };
    let kleb = run_spec(&ToolSpec::Kleb(KlebTuning::paper_calibrated()), 1);
    let others = [
        run_spec(
            &ToolSpec::PerfStat(baselines::PerfStatCosts::paper_calibrated(), false),
            2,
        ),
        run_spec(
            &ToolSpec::PerfRecord(baselines::PerfRecordCosts::paper_calibrated(), false),
            3,
        ),
        run_spec(
            &ToolSpec::Papi(baselines::PapiCosts::paper_calibrated(), read_every),
            4,
        ),
        run_spec(
            &ToolSpec::Limit(baselines::LimitCosts::paper_calibrated(), read_every),
            5,
        ),
    ];
    let mut rows = Vec::new();
    for other in &others {
        for &event in &EVENTS_DETERMINISTIC {
            let k = kleb.total(event).unwrap_or(0) as f64;
            let o = other.total(event).unwrap_or(0) as f64;
            let truth = other.target.true_user_events.get(event) as f64;
            rows.push(Fig9Row {
                tool: other.tool.into(),
                event,
                diff_vs_kleb_pct: if k > 0.0 {
                    (o - k).abs() / k * 100.0
                } else {
                    0.0
                },
                diff_vs_truth_pct: if truth > 0.0 {
                    (o - truth).abs() / truth * 100.0
                } else {
                    0.0
                },
            });
        }
        // Instructions retired via the fixed counter.
        let k = kleb.fixed_totals[0] as f64;
        let o = other.fixed_totals[0] as f64;
        let truth = other
            .target
            .true_user_events
            .get(HwEvent::InstructionsRetired) as f64;
        rows.push(Fig9Row {
            tool: other.tool.into(),
            event: HwEvent::InstructionsRetired,
            diff_vs_kleb_pct: if k > 0.0 {
                (o - k).abs() / k * 100.0
            } else {
                0.0
            },
            diff_vs_truth_pct: if truth > 0.0 {
                (o - truth).abs() / truth * 100.0
            } else {
                0.0
            },
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// One row of the sampling-rate sweep.
#[derive(Debug, Clone)]
pub struct RateSweepRow {
    /// Sampling period.
    pub period: Duration,
    /// Tool.
    pub tool: String,
    /// Overhead vs. unmonitored, percent.
    pub overhead_pct: f64,
    /// Samples collected.
    pub samples: usize,
    /// Whether the tool could honour the requested period at all.
    pub honoured: bool,
}

/// §V/§VI ablation: overhead vs. sampling period for K-LEB and perf
/// (which is floored at 10 ms — the paper's 100× granularity claim).
pub fn ablation_rate_sweep(scale: &Scale) -> Vec<RateSweepRow> {
    let duration = Duration::from_millis(200);
    let factory = || Box::new(Synthetic::cpu_bound(duration));
    let mut m = machine(scale.seed);
    let base = baselines::run_unmonitored(&mut m, "w", factory()).expect("baseline");
    let base_wall = base.wall_time();
    let periods = [
        Duration::from_micros(100),
        Duration::from_micros(500),
        Duration::from_millis(1),
        Duration::from_millis(10),
        Duration::from_millis(100),
    ];
    let mut rows = Vec::new();
    for (i, &period) in periods.iter().enumerate() {
        for (j, spec) in [
            ToolSpec::Kleb(KlebTuning::paper_calibrated()),
            ToolSpec::PerfStat(baselines::PerfStatCosts::paper_calibrated(), false),
        ]
        .iter()
        .enumerate()
        {
            let mut m = machine(scale.seed + (i * 10 + j) as u64);
            let run = run_tool(spec, &mut m, "w", factory(), &EVENTS_DETERMINISTIC, period)
                .expect("sweep run");
            rows.push(RateSweepRow {
                period,
                tool: spec.name().into(),
                overhead_pct: overhead_percent(base_wall, run.wall_time()),
                samples: run.samples.len(),
                honoured: run.effective_period == period,
            });
        }
    }
    rows
}

/// One row of the buffer ablation.
#[derive(Debug, Clone)]
pub struct BufferRow {
    /// Kernel buffer capacity, records.
    pub capacity: usize,
    /// Safety-stop pauses that occurred.
    pub pauses: u64,
    /// Samples taken by the module.
    pub taken: u64,
    /// Samples delivered to the controller.
    pub delivered: usize,
}

/// §III ablation: the starvation safety mechanism under shrinking kernel
/// buffers with a deliberately slow controller.
pub fn ablation_buffer(scale: &Scale) -> Vec<BufferRow> {
    [16usize, 64, 256, 2048, 8192]
        .iter()
        .map(|&capacity| {
            let mut m = machine(scale.seed + capacity as u64);
            let outcome = Monitor::new(&[HwEvent::Load], Duration::from_micros(100))
                .buffer_capacity(capacity)
                .drain_interval(Duration::from_millis(20))
                .run(
                    &mut m,
                    "w",
                    Box::new(Synthetic::cpu_bound(Duration::from_millis(120))),
                )
                .expect("buffer run");
            BufferRow {
                capacity,
                pauses: outcome.status.pauses,
                taken: outcome.status.samples_taken,
                delivered: outcome.samples.len(),
            }
        })
        .collect()
}

/// One row of the jitter ablation.
#[derive(Debug, Clone)]
pub struct JitterRow {
    /// Sampling period.
    pub period: Duration,
    /// Mean inter-sample interval, microseconds.
    pub mean_interval_us: f64,
    /// Standard deviation of the interval, microseconds.
    pub stddev_us: f64,
    /// Jitter as a percentage of the period.
    pub jitter_pct: f64,
}

/// §VI ablation: timer jitter as a fraction of the period — the reason the
/// paper recommends not sampling faster than 100 µs.
pub fn ablation_jitter(scale: &Scale) -> Vec<JitterRow> {
    [
        Duration::from_micros(20),
        Duration::from_micros(100),
        Duration::from_micros(500),
        Duration::from_millis(1),
        Duration::from_millis(10),
    ]
    .iter()
    .map(|&period| {
        let mut m = machine(scale.seed + period.as_nanos());
        // Fine-grained blocks (~1.9 us) so interrupt-delivery quantization
        // reflects instruction granularity, not work-block granularity.
        let total_cycles = Duration::from_millis(60).as_nanos() * 267 / 100;
        let workload = Synthetic::new(total_cycles / 5_000, 4_500, 5_000);
        let outcome = Monitor::new(&[HwEvent::Load], period)
            .tuning(KlebTuning::microarchitectural())
            .run(&mut m, "w", Box::new(workload))
            .expect("jitter run");
        let intervals: Vec<f64> = outcome
            .samples
            .windows(2)
            .filter(|w| !w[1].final_sample)
            .map(|w| (w[1].timestamp_ns - w[0].timestamp_ns) as f64 / 1_000.0)
            .collect();
        let m_us = mean(&intervals);
        let s_us = stddev(&intervals);
        JitterRow {
            period,
            mean_interval_us: m_us,
            stddev_us: s_us,
            // Jitter = interval variability relative to the period (CV).
            jitter_pct: s_us / period.as_micros_f64() * 100.0,
        }
    })
    .collect()
}

/// A two-phase workload for the multiplexing ablation: first branch-heavy,
/// then LLC-heavy — the worst case for time-multiplexed estimation.
#[derive(Debug)]
pub(crate) struct TwoPhase {
    blocks_per_phase: u64,
    emitted: u64,
    seed: u64,
}

impl TwoPhase {
    /// `blocks_per_phase` blocks of each phase.
    pub(crate) fn new(blocks_per_phase: u64, seed: u64) -> Self {
        Self {
            blocks_per_phase,
            emitted: 0,
            seed,
        }
    }
}

impl Workload for TwoPhase {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        use memsim::{AccessKind, AccessPattern};
        use pmu::EventCounts;
        if self.emitted >= 2 * self.blocks_per_phase {
            return None;
        }
        let first_phase = self.emitted < self.blocks_per_phase;
        self.emitted += 1;
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let block = if first_phase {
            ksim::WorkBlock::compute(90_000, 100_000).with_events(
                EventCounts::new()
                    .with(HwEvent::BranchRetired, 30_000)
                    .with(HwEvent::BranchMiss, 600),
            )
        } else {
            ksim::WorkBlock::compute(60_000, 100_000).with_pattern(AccessPattern::Random {
                base: 0x6000_0000_0000,
                extent: 64 << 20,
                count: 900,
                seed: self.seed,
                kind: AccessKind::Read,
            })
        };
        Some(WorkItem::Block(block))
    }
}

/// One row of the multiplexing ablation.
#[derive(Debug, Clone)]
pub struct MultiplexRow {
    /// Event being estimated.
    pub event: HwEvent,
    /// Ground-truth count.
    pub truth: u64,
    /// perf's multiplex-scaled estimate.
    pub estimate: u64,
    /// `|estimate − truth| / truth`, percent.
    pub error_pct: f64,
}

/// §II-B ablation: perf's multiplexed estimates on a phased workload —
/// "this estimation may not be suitable for measurement systems that
/// require precision" (§VI).
pub fn ablation_multiplex(scale: &Scale) -> Vec<MultiplexRow> {
    // Eight events on four counters: two multiplex groups.
    let events = [
        HwEvent::BranchRetired,
        HwEvent::BranchMiss,
        HwEvent::Load,
        HwEvent::Store,
        HwEvent::LlcReference,
        HwEvent::LlcMiss,
        HwEvent::L2Miss,
        HwEvent::DtlbMiss,
    ];
    let mut m = machine(scale.seed);
    let run = baselines::run_perf_stat(
        &mut m,
        "w",
        Box::new(TwoPhase::new(600, scale.seed)),
        &events,
        PERIOD_10MS,
        baselines::PerfStatCosts::paper_calibrated(),
        false,
    )
    .expect("multiplex run");
    events
        .iter()
        .map(|&event| {
            let truth = run.target.true_user_events.get(event);
            let estimate = run.total(event).unwrap_or(0);
            MultiplexRow {
                event,
                truth,
                estimate,
                error_pct: if truth > 0 {
                    (estimate as f64 - truth as f64).abs() / truth as f64 * 100.0
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// The cost-profile ablation: runs a compact overhead comparison with
/// first-principles microcosts instead of the paper-calibrated effective
/// costs, demonstrating the tool *ordering* is mechanism-driven.
pub fn ablation_cost_profiles(scale: &Scale) -> Vec<OverheadRow> {
    let factory = |seed: u64| -> Box<dyn Workload> {
        Box::new(Matmul::new(scale.matmul_n.min(512), seed, 0.004))
    };
    let blocks = count_blocks(factory(scale.seed));
    let mut m = machine(scale.seed);
    let base = baselines::run_unmonitored(&mut m, "w", factory(scale.seed)).expect("baseline");
    let read_every = read_every_for(blocks, base.wall_time(), Duration::from_millis(1));
    let specs = vec![
        ToolSpec::Kleb(KlebTuning::microarchitectural()),
        ToolSpec::PerfStat(baselines::PerfStatCosts::microarchitectural(), true),
        ToolSpec::PerfRecord(baselines::PerfRecordCosts::microarchitectural(), false),
        ToolSpec::Papi(baselines::PapiCosts::microarchitectural(), read_every),
        ToolSpec::Limit(baselines::LimitCosts::microarchitectural(), read_every),
    ];
    overhead_study(
        &factory,
        &specs,
        scale.overhead_trials.min(10),
        Duration::from_millis(1),
        scale.seed,
    )
    .expect("cost-profile study")
}

// ---------------------------------------------------------------------
// §IV — AWS cross-processor verification
// ---------------------------------------------------------------------

/// Result of the cross-processor verification (paper §IV: "results were
/// verified on Amazon Web Services using Intel Xeon Platinum 8259CL …
/// less than 1 % difference in the counts").
#[derive(Debug, Clone)]
pub struct AwsVerifyResult {
    /// Per-event relative difference in K-LEB's deterministic-event counts
    /// between the i7-920 and the Xeon, percent.
    pub count_diff_pct: Vec<(HwEvent, f64)>,
    /// Docker MPKI per image on both machines, paper presentation order.
    pub docker_mpki: Vec<(DockerImage, f64, f64)>,
    /// Whether the low→high MPKI ordering is identical on both machines.
    pub mpki_order_consistent: bool,
}

/// Runs the paper's AWS verification: the same monitored workload on the
/// local i7-920 and the cloud Xeon 8259CL. Architectural (deterministic)
/// event counts must match to well under 1 %; microarchitectural values
/// (absolute cache misses) differ with the cache structure but the Docker
/// images' MPKI *trend* must be identical (§IV-B).
pub fn aws_verification(scale: &Scale) -> AwsVerifyResult {
    let monitor_counts = |config: MachineConfig| -> Vec<(HwEvent, u64)> {
        let mut m = Machine::new(config);
        let outcome = Monitor::new(&EVENTS_DETERMINISTIC, PERIOD_10MS)
            .run(
                &mut m,
                "matmul",
                Box::new(Matmul::new(scale.matmul_n.min(512), scale.seed, 0.004)),
            )
            .expect("monitored matmul");
        let mut counts: Vec<(HwEvent, u64)> = EVENTS_DETERMINISTIC
            .iter()
            .map(|&e| (e, outcome.total_event(e).unwrap_or(0)))
            .collect();
        counts.push((HwEvent::InstructionsRetired, outcome.total_instructions()));
        counts
    };
    let local = monitor_counts(MachineConfig::i7_920(scale.seed));
    let aws = monitor_counts(MachineConfig::xeon_8259cl(scale.seed));
    let count_diff_pct = local
        .iter()
        .zip(&aws)
        .map(|(&(e, l), &(_, a))| {
            let diff = if l == 0 {
                0.0
            } else {
                (l as f64 - a as f64).abs() / l as f64 * 100.0
            };
            (e, diff)
        })
        .collect();

    let mpki_on = |config: MachineConfig, image: DockerImage| -> f64 {
        let mut m = Machine::new(config);
        let outcome = Monitor::new(&[HwEvent::LlcMiss], PERIOD_10MS)
            .run(
                &mut m,
                image.name(),
                Box::new(image.container(scale.docker_blocks / 2, scale.seed)),
            )
            .expect("monitored container");
        let misses: u64 = outcome.samples.iter().map(|s| s.pmc[0]).sum();
        let instructions: u64 = outcome.samples.iter().map(|s| s.fixed[0]).sum();
        analysis::mpki(misses, instructions)
    };
    let docker_mpki: Vec<(DockerImage, f64, f64)> = DockerImage::ALL
        .iter()
        .map(|&image| {
            (
                image,
                mpki_on(MachineConfig::i7_920(scale.seed + image as u64), image),
                mpki_on(MachineConfig::xeon_8259cl(scale.seed + image as u64), image),
            )
        })
        .collect();
    let order = |sel: fn(&(DockerImage, f64, f64)) -> f64| -> Vec<DockerImage> {
        let mut v = docker_mpki.clone();
        v.sort_by(|a, b| sel(a).partial_cmp(&sel(b)).expect("no NaN"));
        v.into_iter().map(|(i, _, _)| i).collect()
    };
    let mpki_order_consistent = order(|r| r.1) == order(|r| r.2);
    AwsVerifyResult {
        count_diff_pct,
        docker_mpki,
        mpki_order_consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro scale for harness tests (well below Scale::quick).
    fn micro() -> Scale {
        Scale {
            linpack_n: 600,
            linpack_trials: 1,
            matmul_n: 96,
            dgemm_n: 128,
            overhead_trials: 2,
            docker_blocks: 300,
            meltdown_rounds: 1,
            seed: 42,
        }
    }

    #[test]
    fn count_blocks_matches_generator() {
        let n = 96;
        let blocks = count_blocks(Box::new(Matmul::new(n, 1, 0.0)));
        let chunks_per_row = n.div_ceil(24);
        assert_eq!(blocks, n * chunks_per_row);
    }

    #[test]
    fn table1_has_four_rows_and_kleb_beats_perf_stat() {
        let rows = table1_linpack(&micro());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].tool, "No profiling");
        let loss = |name: &str| {
            rows.iter()
                .find(|r| r.tool == name)
                .map(|r| r.loss_pct)
                .expect("row exists")
        };
        assert!(loss("K-LEB") < loss("perf stat"));
        assert!(loss("No profiling").abs() < 1e-9);
    }

    #[test]
    fn overhead_study_rows_are_ordered_and_positive() {
        let scale = micro();
        let factory =
            |seed: u64| -> Box<dyn Workload> { Box::new(Matmul::new(scale.matmul_n, seed, 0.004)) };
        let specs = vec![
            ToolSpec::Kleb(KlebTuning::paper_calibrated()),
            ToolSpec::PerfStat(baselines::PerfStatCosts::paper_calibrated(), false),
        ];
        let rows = overhead_study(&factory, &specs, 2, Duration::from_millis(1), 42).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[1].overhead_pct > 0.0, "K-LEB adds some overhead");
        assert!(
            rows[2].overhead_pct > rows[1].overhead_pct,
            "perf stat costs more than K-LEB"
        );
        assert_eq!(rows[1].normalized_times.len(), 2);
    }

    #[test]
    fn fig6_micro_shows_the_mpki_jump() {
        let r = fig6_meltdown_avg(&micro());
        assert!(r.attack_mpki > 2.0 * r.victim_mpki);
        assert!(r.attack_samples > r.victim_samples);
    }

    #[test]
    fn fig4_period_scales_with_problem_size() {
        let mut s = micro();
        s.linpack_n = 5000;
        assert_eq!(fig4_period(&s), PERIOD_10MS);
        s.linpack_n = 2500;
        let p = fig4_period(&s);
        assert!(p < PERIOD_10MS && p >= Duration::from_micros(500));
    }

    #[test]
    fn aws_verification_counts_match() {
        let r = aws_verification(&micro());
        for (e, d) in &r.count_diff_pct {
            assert!(*d < 1.0, "{e}: {d}% exceeds the paper's 1% bound");
        }
    }

    #[test]
    fn two_phase_workload_generates_both_phases() {
        let mut w = TwoPhase::new(5, 1);
        let mut branchy = 0;
        let mut missy = 0;
        while let Some(WorkItem::Block(b)) = w.next(&ItemResult::None) {
            if b.extra_events.get(HwEvent::BranchRetired) > 0 {
                branchy += 1;
            }
            if !b.patterns.is_empty() {
                missy += 1;
            }
        }
        assert_eq!(branchy, 5);
        assert_eq!(missy, 5);
    }
}

// ---------------------------------------------------------------------
// §IV-B case study — MPKI-driven co-location scheduling
// ---------------------------------------------------------------------

/// Result of the co-location scheduling case study.
#[derive(Debug, Clone)]
pub struct ColocationResult {
    /// Makespan when the scheduler is blind to workload class and ends up
    /// co-running the two memory-intensive services concurrently
    /// (one per core), milliseconds.
    pub blind_ms: f64,
    /// Makespan when K-LEB's MPKI classification groups same-class
    /// services per core, so the two bandwidth-hungry services never run
    /// at the same instant, ms.
    pub classified_ms: f64,
    /// Throughput improvement of the classified placement, percent.
    pub improvement_pct: f64,
}

/// The paper's §IV-B motivation made concrete: K-LEB's online MPKI
/// classification steering placement of four container services on two
/// cores.
///
/// On the paper's SMT-era machines "co-locate on the same core" means
/// *concurrent* hyperthreads; in this simulator cores are single-threaded
/// and timesliced, so concurrency happens *across* cores. The
/// classification-driven scheduler therefore keeps the two
/// memory-intensive services on one core (serializing their DRAM demand)
/// and the two computation-intensive ones on the other; the blind
/// scheduler spreads by arrival order and co-runs the two streamers,
/// fighting over memory bandwidth while their cache pollution also evicts
/// the compute services' working sets. Each service is a root process with
/// its own address space, and all four share the machine's one LLC, so a
/// streamer's fills evict the compute services' lines on either core.
/// Service durations are calibrated equal, so the difference isolates
/// contention rather than load balance.
pub fn colocation_case_study(scale: &Scale) -> ColocationResult {
    use ksim::CoreId;

    // Streaming, memory-intensive service (classified MPKI >> 10).
    let mem_service = |blocks: u64, seed: u64| -> Box<dyn Workload> {
        Box::new(Synthetic::new(blocks, 40_000, 50_000).memory_traffic(800, 64 << 20, seed))
    };
    // Cache-resident computation service (classified MPKI << 10).
    let cpu_service = |blocks: u64, seed: u64| -> Box<dyn Workload> {
        Box::new(Synthetic::new(blocks, 45_000, 50_000).memory_traffic(120, 2 << 20, seed))
    };

    // Calibrate block counts so each service runs ~equally long alone.
    let solo_ms = |w: Box<dyn Workload>| -> f64 {
        let mut m = machine(scale.seed);
        let pid = m.spawn("probe", CoreId(0), w);
        m.run_until_exit(pid)
            .expect("probe")
            .wall_time()
            .as_millis_f64()
    };
    let probe = 200u64;
    let mem_rate = solo_ms(mem_service(probe, 1)) / probe as f64;
    let cpu_rate = solo_ms(cpu_service(probe, 1)) / probe as f64;
    let target_ms = (scale.docker_blocks as f64 / 25.0).max(40.0);
    let mem_blocks = (target_ms / mem_rate) as u64;
    let cpu_blocks = (target_ms / cpu_rate) as u64;

    let run_placement = |grouped: bool| -> f64 {
        let mut m = machine(scale.seed + 99);
        let spawn = |m: &mut Machine, kind: u8, core: usize, seed: u64| {
            let w = if kind == 0 {
                mem_service(mem_blocks, seed)
            } else {
                cpu_service(cpu_blocks, seed)
            };
            m.spawn(if kind == 0 { "mem" } else { "cpu" }, CoreId(core), w)
        };
        // Per-core service kinds: the blind scheduler interleaves (a
        // streamer active on both cores); the classified one groups.
        let layout: [[u8; 2]; 2] = if grouped {
            [[0, 0], [1, 1]]
        } else {
            [[0, 1], [0, 1]]
        };
        let mut pids = Vec::new();
        for (core, slots) in layout.iter().enumerate() {
            for (i, &kind) in slots.iter().enumerate() {
                pids.push(spawn(&mut m, kind, core, scale.seed + i as u64));
            }
        }
        m.run_to_quiescence();
        pids.iter()
            .map(|&p| m.process(p).wall_time().as_millis_f64())
            .fold(0.0, f64::max)
    };

    let blind = run_placement(false);
    let classified = run_placement(true);
    ColocationResult {
        blind_ms: blind,
        classified_ms: classified,
        improvement_pct: (blind - classified) / blind * 100.0,
    }
}

#[cfg(test)]
mod colocation_tests {
    use super::*;

    #[test]
    fn classified_placement_beats_naive() {
        let mut scale = Scale::quick();
        scale.docker_blocks = 800;
        let r = colocation_case_study(&scale);
        assert!(
            r.improvement_pct > 2.0,
            "classification-driven placement should win: {:.1}%",
            r.improvement_pct
        );
    }
}
