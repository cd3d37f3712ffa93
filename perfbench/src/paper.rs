//! `paper_overhead`: the Table II study. Matmul at n = 640 on the i7-920
//! model, bare and under K-LEB, perf stat, perf record, PAPI and LiMiT at
//! 10 ms, for [`TRIALS`] paired trials. The machine seeds, tool specs and
//! row arithmetic are those of `kleb_bench::experiments::overhead_study`,
//! so the rows equal `table2_overhead_matmul` at the same scale (checked
//! when a reference is written).

use std::sync::Arc;
use std::time::Instant;

use baselines::{overhead_percent, run_tool, run_unmonitored, ToolSpec};
use kleb_bench::experiments::{count_blocks, OverheadRow, EVENTS_DETERMINISTIC, PERIOD_10MS};
use kleb_bench::Scale;
use ksim::{Duration, Workload};
use memsim::MemStats;
use workloads::Matmul;

use crate::probe::{self, expected_work, timed, Adapter, FeedHandle, Tracer};
use crate::sim::{add_mem_stats, bare_run, common_metrics, machine, replay_patterns};
use crate::{median, Bench, Layers, Pass};

/// Matrix size: the default scale of the experiment suite.
const MATMUL_N: u64 = 640;
/// Paired trials per pass.
const TRIALS: u64 = 2;
/// Per-layer names of the five tools, in `ToolSpec::all_calibrated` order.
const TOOL_METRICS: [&str; 5] = [
    "baselines.kleb_s",
    "baselines.perf_stat_s",
    "baselines.perf_record_s",
    "baselines.papi_s",
    "baselines.limit_s",
];

fn matmul(seed: u64) -> Box<dyn Workload> {
    Box::new(Matmul::new(MATMUL_N, seed, 0.004))
}

/// What the last traced pass left for [`Bench::layers`].
#[derive(Debug, Default)]
struct Traced {
    feed: FeedHandle,
    /// Host seconds per trial, per run: bare first, then each tool.
    hosts: Vec<Vec<f64>>,
    mem: MemStats,
    samples: u64,
}

/// The Table II workload.
pub struct PaperOverhead {
    seed: u64,
    specs: Vec<ToolSpec>,
    /// Instructions each trial's matmul hands the machine.
    expected_instructions: Vec<u64>,
    traced: Option<Traced>,
}

impl PaperOverhead {
    /// Generates the inputs: the instrumented tools' read density comes
    /// from one calibration run, as in the experiment (paper §V).
    pub fn setup(seed: u64) -> Self {
        let blocks = count_blocks(matmul(seed));
        let mut m = machine(seed);
        let wall = run_unmonitored(&mut m, "w", matmul(seed))
            .map(|r| r.wall_time())
            .unwrap_or(PERIOD_10MS);
        let samples = (wall.as_nanos() / PERIOD_10MS.as_nanos()).max(1);
        let read_every = (blocks / samples).max(1);
        Self {
            seed,
            specs: ToolSpec::all_calibrated(read_every),
            expected_instructions: (0..TRIALS)
                .map(|t| expected_work(matmul(seed.wrapping_add(t))).1)
                .collect(),
            traced: None,
        }
    }

    fn machine_seed(&self, trial: u64, tool: Option<usize>) -> u64 {
        let base = self.seed.wrapping_mul(7919);
        match tool {
            None => base.wrapping_add(trial),
            Some(i) => base.wrapping_add(trial * 100 + i as u64 + 1),
        }
    }
}

/// The Table II rows, computed as `overhead_study` computes them.
fn rows(names: &[&str], base_ms: &[f64], tool_ms: &[Vec<f64>]) -> Vec<OverheadRow> {
    let base_mean = analysis::mean(base_ms);
    let mut rows = vec![OverheadRow {
        tool: "No profiling".into(),
        mean_wall_ms: base_mean,
        overhead_pct: 0.0,
        normalized_times: base_ms.iter().map(|w| w / base_mean).collect(),
    }];
    for (name, walls) in names.iter().zip(tool_ms) {
        let per_trial: Vec<f64> = walls
            .iter()
            .zip(base_ms)
            .map(|(w, b)| {
                overhead_percent(
                    Duration::from_nanos((b * 1e6) as u64),
                    Duration::from_nanos((w * 1e6) as u64),
                )
            })
            .collect();
        rows.push(OverheadRow {
            tool: (*name).into(),
            mean_wall_ms: analysis::mean(walls),
            overhead_pct: analysis::mean(&per_trial),
            normalized_times: walls.iter().map(|w| w / base_mean).collect(),
        });
    }
    rows
}

fn render(rows: &[OverheadRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{}|{:?}|{:?}|{:?}\n",
                r.tool, r.mean_wall_ms, r.overhead_pct, r.normalized_times
            )
        })
        .collect()
}

impl Bench for PaperOverhead {
    fn pass(&mut self, mut tracer: Option<&mut Tracer>) -> Pass {
        let feed = tracer.is_some().then(FeedHandle::default);
        let wrap = |w: Box<dyn Workload>, run: usize| match &feed {
            Some(f) => Adapter::wrap(w, Some((Arc::clone(f), run)), None),
            None => w,
        };
        let started = Instant::now();
        let mut pass = Pass::default();
        let mut mem = MemStats::default();
        let mut hosts = Vec::new();
        let mut base_ms = Vec::new();
        let mut tool_ms = vec![Vec::new(); self.specs.len()];
        let names: Vec<&str> = self.specs.iter().map(ToolSpec::name).collect();
        for trial in 0..TRIALS {
            let wl_seed = self.seed.wrapping_add(trial);
            let mut trial_hosts = Vec::new();
            for tool in std::iter::once(None).chain((0..self.specs.len()).map(Some)) {
                let mut m = machine(self.machine_seed(trial, tool));
                let run = (trial as usize) * (self.specs.len() + 1) + tool.map_or(0, |i| i + 1);
                let workload = wrap(matmul(wl_seed), run);
                let (layer, name) = match tool {
                    None => ("ksim", "No profiling"),
                    Some(0) => ("kleb", names[0]),
                    Some(i) => ("baselines", names[i]),
                };
                let (result, host_s) = timed(&mut tracer, layer, name, || match tool {
                    None => run_unmonitored(&mut m, "w", workload),
                    Some(i) => run_tool(
                        &self.specs[i],
                        &mut m,
                        "w",
                        workload,
                        &EVENTS_DETERMINISTIC,
                        PERIOD_10MS,
                    ),
                });
                pass.attempted += 1;
                pass.run_ms.push(host_s * 1e3);
                trial_hosts.push(host_s);
                let run = match result {
                    Ok(run) => run,
                    Err(e) => {
                        pass.failed += 1;
                        pass.errors.push(format!("trial {trial} {name}: {e}"));
                        continue;
                    }
                };
                pass.sim_ns += m.now().as_nanos();
                add_mem_stats(&mut mem, &m);
                let wall_ms = run.wall_time().as_millis_f64();
                match tool {
                    None => base_ms.push(wall_ms),
                    Some(i) => tool_ms[i].push(wall_ms),
                }
                if tool == Some(0) {
                    pass.samples += run.samples.len() as u64;
                    // K-LEB's counts are exact (paper Fig. 9).
                    let expected = self.expected_instructions[trial as usize];
                    if run.fixed_totals[0] != expected {
                        pass.errors.push(format!(
                            "trial {trial}: K-LEB counted {} instructions, the program retired {expected}",
                            run.fixed_totals[0]
                        ));
                    }
                }
            }
            hosts.push(trial_hosts);
        }
        if pass.failed == 0 {
            let rows = rows(&names, &base_ms, &tool_ms);
            let kleb = rows[1].overhead_pct;
            if rows[1..]
                .iter()
                .any(|r| r.overhead_pct <= 0.0 || r.overhead_pct < kleb)
            {
                pass.errors
                    .push("every tool must add overhead, K-LEB the least (Table II)".into());
            }
            pass.output = render(&rows);
        }
        pass.host_s = started.elapsed().as_secs_f64();
        if let Some(feed) = feed {
            self.traced = Some(Traced {
                feed,
                hosts,
                mem,
                samples: pass.samples,
            });
        }
        pass
    }

    fn layers(&mut self, tracer: &mut Tracer) -> Layers {
        let mut layers = Layers::default();
        let Some(t) = self.traced.take() else {
            layers.errors.push("layers without a traced pass".into());
            return layers;
        };
        // Bare side-pass: each trial's program on its No-profiling machine.
        let mut bare = Vec::new();
        for trial in 0..TRIALS {
            let m = machine(self.machine_seed(trial, None));
            match bare_run(tracer, "matmul", m, matmul(self.seed.wrapping_add(trial))) {
                Ok(run) => bare.push(run),
                Err(e) => layers.errors.push(e),
            }
        }
        if bare.len() != TRIALS as usize {
            return layers;
        }
        let patterns: Vec<&[_]> = bare.iter().map(|b| b.patterns.as_slice()).collect();
        let (replayed, replay_s) = replay_patterns(tracer, &patterns);
        let ns_per_access = replay_s * 1e9 / replayed.max(1) as f64;
        let f = probe::lock(&t.feed);
        let runs_per_trial = (self.specs.len() + 1) as f64;
        // A run's machine time is its bare run less the generator and the
        // memsim share; every run of a trial simulates the same program.
        let ksim_s: f64 = bare
            .iter()
            .map(|b| {
                runs_per_trial
                    * (b.host_s - b.next_s - ns_per_access * 1e-9 * b.mem.accesses as f64)
            })
            .sum();
        let extra = |trial: usize, i: usize| t.hosts[trial][i + 1] - bare[trial].host_s;
        let kleb_s: f64 = (0..TRIALS as usize).map(|tr| extra(tr, 0)).sum();
        let others_s: f64 = (0..TRIALS as usize)
            .flat_map(|tr| (1..self.specs.len()).map(move |i| (tr, i)))
            .map(|(tr, i)| extra(tr, i))
            .sum();
        // Monitoring's own cache traffic stays in the tools' shares: the
        // memsim share counts the program's (bare) accesses only.
        let memsim_s: f64 = bare
            .iter()
            .map(|b| runs_per_trial * ns_per_access * 1e-9 * b.mem.accesses as f64)
            .sum();
        let events = bare.iter().map(|b| b.events).sum();
        layers.metrics =
            common_metrics(&f, &t.mem, ns_per_access, events, ksim_s, kleb_s, t.samples);
        layers.metrics.push((
            "baselines.none_s",
            median(&t.hosts.iter().map(|h| h[0]).collect::<Vec<_>>()),
        ));
        for (i, name) in TOOL_METRICS.iter().enumerate() {
            let per_run: Vec<f64> = t.hosts.iter().map(|h| h[i + 1] - h[0]).collect();
            layers.metrics.push((name, median(&per_run)));
        }
        layers.attributed = vec![
            ("workloads", f.next_ns as f64 * 1e-9),
            ("memsim", memsim_s),
            ("ksim", ksim_s),
            ("kleb", kleb_s),
            ("baselines", others_s),
        ];
        layers
    }

    fn crosscheck(&self, pass: &Pass) -> Result<(), String> {
        let scale = Scale {
            matmul_n: MATMUL_N,
            overhead_trials: TRIALS,
            seed: self.seed,
            ..Scale::default_run()
        };
        let expected = render(&kleb_bench::experiments::table2_overhead_matmul(&scale));
        if expected == pass.output {
            Ok(())
        } else {
            Err(format!(
                "rows differ from table2_overhead_matmul:\n{expected}\nvs\n{}",
                pass.output
            ))
        }
    }
}
