//! `docker_mpki`: the Fig. 5 study. Nine container images, each monitored
//! by K-LEB at 10 ms with fork-following on a fresh i7-920 machine; the
//! LLC MPKI of each classifies it at the paper's MPKI-10 boundary. The
//! machine seeds and inputs are those of
//! `kleb_bench::experiments::fig5_docker_mpki` at the default scale.

use std::sync::Arc;
use std::time::Instant;

use analysis::IntensityClass;
use kleb::Monitor;
use kleb_bench::experiments::PERIOD_10MS;
use kleb_bench::Scale;
use memsim::MemStats;
use pmu::HwEvent;
use workloads::DockerImage;

use crate::probe::{self, expected_work, timed, Adapter, FeedHandle, Tracer};
use crate::sim::{add_mem_stats, bare_run, common_metrics, machine, replay_patterns};
use crate::{Bench, Layers, Pass};

/// Service blocks per image: the default scale of the experiment suite.
const DOCKER_BLOCKS: u64 = 3_000;

/// What the last traced pass left for [`Bench::layers`].
#[derive(Debug, Default)]
struct Traced {
    feed: FeedHandle,
    hosts: Vec<f64>,
    mem: MemStats,
    samples: u64,
    dropped: u64,
    retries: u64,
}

/// The Fig. 5 workload.
pub struct DockerMpki {
    seed: u64,
    /// Instructions each image's container (parent and service) retires.
    expected_instructions: Vec<u64>,
    traced: Option<Traced>,
}

impl DockerMpki {
    /// Generates the inputs: nine containers from the seed.
    pub fn setup(seed: u64) -> Self {
        Self {
            seed,
            expected_instructions: DockerImage::ALL
                .iter()
                .map(|image| expected_work(Box::new(image.container(DOCKER_BLOCKS, seed))).1)
                .collect(),
            traced: None,
        }
    }

    fn machine_seed(&self, image: DockerImage) -> u64 {
        self.seed.wrapping_add(image as u64)
    }
}

fn render(rows: &[(DockerImage, f64, IntensityClass)]) -> String {
    rows.iter()
        .map(|(image, mpki, class)| format!("{}|{mpki:?}|{}\n", image.name(), class.label()))
        .collect()
}

impl Bench for DockerMpki {
    fn pass(&mut self, mut tracer: Option<&mut Tracer>) -> Pass {
        let feed = tracer.is_some().then(FeedHandle::default);
        let started = Instant::now();
        let mut pass = Pass::default();
        let mut traced = Traced::default();
        let mut rows = Vec::new();
        for (i, &image) in DockerImage::ALL.iter().enumerate() {
            let mut m = machine(self.machine_seed(image));
            let container = Box::new(image.container(DOCKER_BLOCKS, self.seed));
            let workload = match &feed {
                Some(f) => Adapter::wrap(container, Some((Arc::clone(f), i)), None),
                None => container,
            };
            let monitor = Monitor::new(&[HwEvent::LlcMiss], PERIOD_10MS);
            let (result, host_s) = timed(&mut tracer, "kleb", image.name(), || {
                monitor.run(&mut m, image.name(), workload)
            });
            pass.attempted += 1;
            pass.run_ms.push(host_s * 1e3);
            traced.hosts.push(host_s);
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("{image}: {e}"));
                    continue;
                }
            };
            pass.sim_ns += m.now().as_nanos();
            pass.samples += outcome.samples.len() as u64;
            add_mem_stats(&mut traced.mem, &m);
            traced.samples += outcome.samples.len() as u64;
            traced.dropped += outcome.status.samples_dropped;
            traced.retries += outcome.recovery.drain_retries;
            let misses: u64 = outcome.samples.iter().map(|s| s.pmc[0]).sum();
            let instructions = outcome.total_instructions();
            // Fork-following must count the service child whole.
            if instructions != self.expected_instructions[i] {
                pass.errors.push(format!(
                    "{image}: K-LEB counted {instructions} instructions, the container retired {}",
                    self.expected_instructions[i]
                ));
            }
            let mpki = analysis::mpki(misses, instructions);
            rows.push((image, mpki, IntensityClass::from_mpki(mpki)));
        }
        pass.output = render(&rows);
        pass.host_s = started.elapsed().as_secs_f64();
        if let Some(feed) = feed {
            traced.feed = feed;
            self.traced = Some(traced);
        }
        pass
    }

    fn layers(&mut self, tracer: &mut Tracer) -> Layers {
        let mut layers = Layers::default();
        let Some(t) = self.traced.take() else {
            layers.errors.push("layers without a traced pass".into());
            return layers;
        };
        // Bare side-pass: each container on its image's machine, unmonitored.
        let mut bare = Vec::new();
        for &image in DockerImage::ALL.iter() {
            let m = machine(self.machine_seed(image));
            let container = Box::new(image.container(DOCKER_BLOCKS, self.seed));
            match bare_run(tracer, image.name(), m, container) {
                Ok(run) => bare.push(run),
                Err(e) => layers.errors.push(e),
            }
        }
        if bare.len() != DockerImage::ALL.len() {
            return layers;
        }
        let patterns: Vec<&[_]> = bare.iter().map(|b| b.patterns.as_slice()).collect();
        let (replayed, replay_s) = replay_patterns(tracer, &patterns);
        let ns_per_access = replay_s * 1e9 / replayed.max(1) as f64;
        let f = probe::lock(&t.feed);
        let ksim_s: f64 = bare
            .iter()
            .map(|b| b.host_s - b.next_s - ns_per_access * 1e-9 * b.mem.accesses as f64)
            .sum();
        let kleb_s: f64 = t.hosts.iter().zip(&bare).map(|(h, b)| h - b.host_s).sum();
        // Monitoring's own cache traffic stays in `kleb_s`: the memsim
        // share counts the program's (bare) accesses only.
        let memsim_s: f64 = bare
            .iter()
            .map(|b| ns_per_access * 1e-9 * b.mem.accesses as f64)
            .sum();
        let events = bare.iter().map(|b| b.events).sum();
        layers.metrics =
            common_metrics(&f, &t.mem, ns_per_access, events, ksim_s, kleb_s, t.samples);
        layers.metrics.extend([
            ("kleb.samples_dropped", t.dropped as f64),
            ("kleb.recovery_retries", t.retries as f64),
        ]);
        layers.attributed = vec![
            ("workloads", f.next_ns as f64 * 1e-9),
            ("memsim", memsim_s),
            ("ksim", ksim_s),
            ("kleb", kleb_s),
        ];
        layers
    }

    fn crosscheck(&self, pass: &Pass) -> Result<(), String> {
        let scale = Scale {
            docker_blocks: DOCKER_BLOCKS,
            seed: self.seed,
            ..Scale::default_run()
        };
        let rows: Vec<_> = kleb_bench::experiments::fig5_docker_mpki(&scale)
            .into_iter()
            .map(|r| (r.image, r.mpki, r.class))
            .collect();
        let expected = render(&rows);
        if expected == pass.output {
            Ok(())
        } else {
            Err(format!(
                "rows differ from fig5_docker_mpki:\n{expected}\nvs\n{}",
                pass.output
            ))
        }
    }
}
