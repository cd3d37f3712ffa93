//! Host-time benchmark of the K-LEB reproduction: what one simulated
//! machine run, one simulated second and one K-LEB sample cost on the
//! host, end to end and per layer. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--write-reference]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.

mod docker;
mod fleet_rr;
mod paper;
mod probe;
mod sim;

use std::path::PathBuf;
use std::time::Instant;

use probe::Tracer;

/// The seed whose outputs the committed references pin.
pub const DEFAULT_SEED: u64 = 42;
/// A second seed, never used while tuning, with its own reference.
pub const HELDOUT_SEED: u64 = 7;

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the whole pass.
    pub host_s: f64,
    /// Simulated nanoseconds the pass's machines ran.
    pub sim_ns: u64,
    /// K-LEB samples delivered.
    pub samples: u64,
    /// Host milliseconds of each simulated machine run.
    pub run_ms: Vec<f64>,
    /// Canonical text of the simulated results, checked against the
    /// reference (or the first pass).
    pub output: String,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Machine runs attempted.
    pub attempted: u64,
    /// Machine runs that returned an error.
    pub failed: u64,
}

/// Per-layer figures from one traced round: the last traced pass plus the
/// side-passes that isolate single layers.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host seconds per pass attributed to each layer.
    pub attributed: Vec<(&'static str, f64)>,
    /// Side-pass failures.
    pub errors: Vec<String>,
}

impl Layers {
    /// Looks up a metric recorded in this round.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One benchmark workload.
pub trait Bench {
    /// Runs every machine run of the workload once. With a tracer, wraps
    /// the workloads in counting adapters, records spans, and keeps what
    /// [`Bench::layers`] needs.
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass;
    /// Runs the side-passes and derives the per-layer metrics of the last
    /// traced pass.
    fn layers(&mut self, tracer: &mut Tracer) -> Layers;
    /// Checks the benchmark's own driving of the layers against the
    /// repository's experiment code (reference writing only).
    fn crosscheck(&self, pass: &Pass) -> Result<(), String> {
        let _ = pass;
        Ok(())
    }
}

/// Sets a workload up from its seed: generates every input.
type Setup = fn(u64) -> Box<dyn Bench>;

/// Workload names, each with the set-up that generates its inputs.
const WORKLOADS: [(&str, Setup); 3] = [
    ("paper_overhead", |seed| {
        Box::new(paper::PaperOverhead::setup(seed))
    }),
    ("docker_mpki", |seed| {
        Box::new(docker::DockerMpki::setup(seed))
    }),
    ("fleet_record_replay", |seed| {
        Box::new(fleet_rr::FleetRecordReplay::setup(seed))
    }),
];

/// Host seconds of set-up repetitions after each measured pass (at least
/// one repetition).
const SETUP_BATCH_S: f64 = 0.02;

/// Exact work counters: a traced round must reproduce them bit for bit.
const EXACT: [&str; 6] = [
    "memsim.accesses",
    "memsim.llc_misses",
    "ksim.events",
    "workloads.blocks",
    "kleb.samples",
    "ktrace.bytes_per_sample",
];

/// Per-layer metrics and units, in report order.
const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.next_s", "s"),
    ("workloads.blocks", "count"),
    ("workloads.instructions", "count"),
    ("memsim.accesses", "count"),
    ("memsim.l1d_miss_ratio", "ratio"),
    ("memsim.llc_misses", "count"),
    ("memsim.ns_per_access", "ns"),
    ("ksim.events", "count"),
    ("ksim.machine_s", "s"),
    ("kleb.monitor_s", "s"),
    ("kleb.samples", "count"),
    ("kleb.samples_dropped", "count"),
    ("kleb.recovery_retries", "count"),
    ("baselines.none_s", "s"),
    ("baselines.kleb_s", "s"),
    ("baselines.perf_stat_s", "s"),
    ("baselines.perf_record_s", "s"),
    ("baselines.papi_s", "s"),
    ("baselines.limit_s", "s"),
    ("kchan.ns_per_sample", "ns"),
    ("fleet.store_ingest_ns_per_sample", "ns"),
    ("fleet.channel_block_waits", "count"),
    ("fleet.depth_hwm", "count"),
    ("fleet.elapsed_gap_s", "s"),
    ("ktrace.encode_ns_per_sample", "ns"),
    ("ktrace.bytes_per_sample", "B"),
    ("ktrace.decode_ns_per_sample", "ns"),
    ("analysis.query_s", "s"),
    ("replay_samples_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        write_reference: argv.iter().any(|a| a == "--write-reference"),
    })
}

/// Where the benchmark writes spans and scratch files: inside the build
/// directory, which is never committed.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    base.join("perfbench")
}

fn reference_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}-{seed}.txt"))
}

/// Checks a pass's simulated results: against the committed reference
/// when the seed has one, else against the run's first pass.
fn check_output(workload: &str, seed: u64, first: &mut Option<String>, pass: &mut Pass) {
    if first.is_none() {
        match std::fs::read_to_string(reference_path(workload, seed)) {
            Ok(reference) if reference != pass.output => pass.errors.push(format!(
                "{workload} seed {seed}: output differs from the reference"
            )),
            Ok(_) => {}
            Err(_) if seed == DEFAULT_SEED || seed == HELDOUT_SEED => pass
                .errors
                .push(format!("{workload} seed {seed}: reference missing")),
            Err(_) => {}
        }
        *first = Some(pass.output.clone());
    } else if first.as_deref() != Some(pass.output.as_str()) {
        pass.errors.push(format!(
            "{workload} seed {seed}: a pass differs from the first"
        ));
    }
}

/// Tallies passes: runs attempted and failed, and every error seen.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<String>,
}

impl Ledger {
    fn book(&mut self, workload: &str, seed: u64, mut pass: Pass) -> Pass {
        check_output(workload, seed, &mut self.first, &mut pass);
        self.attempted += pass.attempted;
        // A failed output check fails every run whose result it covers.
        self.failed += if pass.errors.is_empty() {
            pass.failed
        } else {
            pass.attempted.max(1)
        };
        self.errors.extend(pass.errors.iter().cloned());
        pass
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile of sorted data, `p` in [0, 1].
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let x = p * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// The highest percentile with at least ten values beyond it, and its
/// value: with `n` values that is the `(n - 11)`-th smallest (never below
/// the median, for runs too short to have a tail).
fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.len() < 2 {
        return (1.0, v.first().copied().unwrap_or(0.0));
    }
    let i = (v.len().saturating_sub(11)).max(v.len() / 2);
    (i as f64 / (v.len() - 1) as f64, v[i])
}

/// Peak resident set size of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args, make: Setup) -> String {
    // Set up many times, between the measured passes so set-up meets the
    // same host conditions they do, and keep the median: later changes
    // that move work into set-up must show in `setup_s`.
    let mut setups = Vec::new();
    let t0 = Instant::now();
    let mut bench = make(args.seed);
    setups.push(t0.elapsed().as_secs_f64());
    let mut ledger = Ledger::default();
    // One warm-up pass: checked, not timed.
    let warm = bench.pass(None);
    ledger.book(&args.workload, args.seed, warm);

    let (mut walls, mut speeds, mut rates, mut runs) = (vec![], vec![], vec![], vec![]);
    let t0 = Instant::now();
    while walls.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let pass = ledger.book(&args.workload, args.seed, bench.pass(None));
        walls.push(pass.host_s);
        speeds.push(pass.sim_ns as f64 / (pass.host_s * 1e9));
        rates.push(pass.samples as f64 / pass.host_s);
        runs.extend(pass.run_ms);
        let batch = Instant::now();
        while batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
            let t = Instant::now();
            let fresh = make(args.seed);
            setups.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(fresh));
        }
    }
    let (tail_p, tail_ms) = tail(&runs);
    let failed_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!(
        "{}: seed {}, {} measured passes, {} machine runs (caches start empty on every run)",
        args.workload,
        args.seed,
        walls.len(),
        runs.len()
    );
    println!(
        "run_ms_tail is p{:.1} of {} runs; failed_ratio {failed_ratio} ({} of {} runs)",
        tail_p * 100.0,
        runs.len(),
        ledger.failed,
        ledger.attempted
    );
    let sorted_setups = sorted(&setups);
    println!(
        "setup_s is the median of {} set-ups (min {:.6} s, max {:.6} s)",
        setups.len(),
        sorted_setups[0],
        sorted_setups[setups.len() - 1]
    );
    for e in &ledger.errors {
        println!("check failed: {e}");
    }
    json_result(
        ledger.errors.is_empty(),
        ledger.attempted.max(1),
        ledger.failed,
        &[
            ("setup_s", median(&setups), "s"),
            ("wall_s", median(&walls), "s"),
            ("sim_speed", median(&speeds), "ns/ns"),
            ("samples_per_s", median(&rates), "1/s"),
            ("run_ms_p50", median(&runs), "ms"),
            ("run_ms_tail", tail_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    )
}

/// The traced run: per-layer metrics, coverage and tracing overhead.
fn run_traced(args: &Args, make: Setup) -> String {
    let mut bench = make(args.seed);
    let mut ledger = Ledger::default();
    let warm = bench.pass(None);
    ledger.book(&args.workload, args.seed, warm);

    // Untraced and traced passes alternate, so both meet the same host
    // conditions; the first two traced passes are followed by the
    // side-passes, and their exact counters must agree bit for bit.
    let mut tracer = Tracer::new();
    let (mut traced, mut ratios) = (Vec::new(), Vec::new());
    let mut rounds: Vec<Layers> = Vec::new();
    let t0 = Instant::now();
    while rounds.len() < 2 || ratios.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let plain = ledger.book(&args.workload, args.seed, bench.pass(None));
        tracer.run = ratios.len() as u64;
        tracer.open("bench", format!("traced pass {}", tracer.run));
        let pass = bench.pass(Some(&mut tracer));
        tracer.close();
        let pass = ledger.book(&args.workload, args.seed, pass);
        traced.push(pass.host_s);
        ratios.push(pass.host_s / plain.host_s);
        if rounds.len() < 2 {
            tracer.open("bench", format!("side passes {}", tracer.run));
            let layers = bench.layers(&mut tracer);
            tracer.close();
            // A round's side-passes count as one more run attempted.
            ledger.attempted += 1;
            if !layers.errors.is_empty() {
                ledger.failed += 1;
                ledger.errors.extend(layers.errors.iter().cloned());
            }
            rounds.push(layers);
        }
    }
    let drifted: Vec<String> = EXACT
        .iter()
        .filter(|name| rounds[0].get(name).to_bits() != rounds[1].get(name).to_bits())
        .map(|name| {
            let (a, b) = (rounds[0].get(name), rounds[1].get(name));
            format!("exact counter {name} differs across traced rounds: {a} vs {b}")
        })
        .collect();
    if !drifted.is_empty() {
        // The second round did not reproduce the first.
        ledger.failed = (ledger.failed + 1).min(ledger.attempted);
        ledger.errors.extend(drifted);
    }

    let traced_wall = median(&traced[..2]);
    let mean = |name: &str| (rounds[0].get(name) + rounds[1].get(name)) / 2.0;
    let mut attributed: Vec<(&str, f64)> = Vec::new();
    for (layer, _) in &rounds[0].attributed {
        let s: f64 = rounds
            .iter()
            .flat_map(|r| &r.attributed)
            .filter(|(l, _)| l == layer)
            .map(|(_, s)| s)
            .sum::<f64>()
            / rounds.len() as f64;
        attributed.push((layer, s));
    }
    let coverage = attributed.iter().map(|(_, s)| s).sum::<f64>() / traced_wall;
    let trace_overhead = median(&ratios) - 1.0;
    let failed_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;

    println!(
        "{}: seed {}, per-layer breakdown of one pass (traced wall {:.4} s, mean of 2 traced rounds)",
        args.workload, args.seed, traced_wall
    );
    println!(
        "{:<10} {:>12} {:>8} {:>14}",
        "layer", "attributed s", "share", "spans self s"
    );
    let span_self = tracer.self_time();
    for (layer, s) in &attributed {
        let own = span_self
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, t)| *t);
        println!(
            "{layer:<10} {s:>12.4} {:>7.1}% {own:>14.4}",
            s / traced_wall * 100.0
        );
    }
    println!(
        "spans self s: summed over the whole traced run ({} traced passes, 2 side-pass rounds)",
        traced.len()
    );
    println!("coverage {coverage:.4} (attributed layer time over traced wall time; target 0.95)");
    println!(
        "trace_overhead {trace_overhead:.4} (median over {} alternating pairs of traced over untraced pass time)",
        ratios.len()
    );
    for e in &ledger.errors {
        println!("check failed: {e}");
    }
    let dir = out_dir();
    let spans = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write(&spans)) {
        Ok(()) => println!("spans written to {}", spans.display()),
        Err(e) => println!("spans not written: {e}"),
    }

    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "failed_ratio" => failed_ratio,
                "coverage" => coverage,
                "trace_overhead" => trace_overhead,
                n if EXACT.contains(&n) => rounds[1].get(n),
                n => mean(n),
            };
            (name, value, unit)
        })
        .collect();
    json_result(
        ledger.errors.is_empty(),
        ledger.attempted.max(1),
        ledger.failed,
        &metrics,
    )
}

/// Writes the reference for `seed` after checking the benchmark's
/// driving of the layers against the repository's experiment code.
fn write_reference(args: &Args, make: Setup) -> Result<(), String> {
    let mut bench = make(args.seed);
    let pass = bench.pass(None);
    if !pass.errors.is_empty() {
        return Err(pass.errors.join("; "));
    }
    bench.crosscheck(&pass)?;
    let path = reference_path(&args.workload, args.seed);
    std::fs::write(&path, &pass.output).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--write-reference]"
            );
            std::process::exit(2);
        }
    };
    let Some(&(_, make)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    if args.write_reference {
        if let Err(e) = write_reference(&args, make) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let line = if args.trace {
        run_traced(&args, make)
    } else {
        run_untraced(&args, make)
    };
    println!("{line}");
}
