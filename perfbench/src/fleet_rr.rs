//! `fleet_record_replay`: a fleet samples a compute-only program at 100 µs
//! under `Backpressure::Block`, persisting the stream to ktrace segments;
//! the recording is read back, replayed through `FleetRunner::replay`, and
//! queried for windowed MPKI through both the replayed `FleetStore` and
//! `analysis::TraceSeries`.
//!
//! ktrace writes in the record phase and reads in the replay phase; the
//! store ingests in both and is queried at the end.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use analysis::{TraceSeries, LANE_INSTRUCTIONS};
use fleet::{
    Backpressure, FleetConfig, FleetOutcome, FleetRunner, FleetStore, Lane, MachineSpec, Polled,
    Window,
};
use kleb::{KlebTuning, Monitor, Sample, SampleSink};
use ksim::{Duration, FixedBlocks, WorkBlock, Workload};
use ktrace::{StreamLedger, StreamMeta, TraceReader, TraceReplayer, TraceWriter};
use memsim::MemStats;
use pmu::{EventCounts, HwEvent};

use crate::probe::{self, expected_work, timed, Adapter, FeedHandle, RunClock, Tracer};
use crate::sim::{add_mem_stats, bare_run, common_metrics, machine};
use crate::{out_dir, Bench, Layers, Pass};

/// Machines in the fleet. One machine thread plus the collector fit a
/// two-core host; with two machine threads, identical runs there spread
/// from 0.16 to 0.22 s per pass (0.123 to 0.127 s with one), too wide for
/// any bound the benchmark may set.
const MACHINES: u64 = 1;
/// K-LEB's headline sampling period.
const PERIOD: Duration = Duration::from_micros(100);
const EVENTS: [HwEvent; 2] = [HwEvent::LlcReference, HwEvent::LlcMiss];
/// Simulated length of each machine's program, nanoseconds.
const PROGRAM_NS: u64 = 4_000_000_000;
/// Windows per machine for the MPKI queries.
const WINDOWS: u64 = 16;
/// Ring and store capacities, as the fleet's defaults.
const CAPACITY: usize = 64 * 1024;

/// One machine's generated program: identical compute-only blocks.
#[derive(Debug, Clone, Copy)]
struct Node {
    seed: u64,
    blocks: u64,
    instructions: u64,
    cycles: u64,
    refs: u64,
    misses: u64,
}

impl Node {
    fn label(index: usize) -> String {
        format!("node-{index}")
    }

    fn program(&self) -> Box<dyn Workload> {
        Box::new(FixedBlocks::new(
            self.blocks,
            WorkBlock::compute(self.instructions, self.cycles).with_events(
                EventCounts::new()
                    .with(HwEvent::LlcReference, self.refs)
                    .with(HwEvent::LlcMiss, self.misses),
            ),
        ))
    }
}

/// SplitMix64 step: the benchmark's own input generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64 bits: a compact fingerprint of a digest for the reference.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Keeps every drained batch, as the fleet's channel would carry it.
#[derive(Debug)]
struct Capture(Arc<Mutex<Vec<Vec<Sample>>>>);

impl SampleSink for Capture {
    fn on_batch(&mut self, samples: &[Sample]) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(samples.to_vec());
    }
}

/// What the last traced pass left for [`Bench::layers`].
#[derive(Debug, Default)]
struct Traced {
    feed: FeedHandle,
    samples: u64,
    block_waits: u64,
    depth_hwm: usize,
    elapsed_gap_s: f64,
    replay_samples_per_s: f64,
    query_s: f64,
}

/// The record→replay workload.
pub struct FleetRecordReplay {
    nodes: Vec<Node>,
    /// Instructions each node's program retires.
    expected_instructions: Vec<u64>,
    traced: Option<Traced>,
}

/// A fresh directory for one recording, removed again by [`Recording`]'s
/// drop.
struct Recording(PathBuf);

impl Recording {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("fleet-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl FleetRecordReplay {
    /// Generates each machine's program from the seed. The seed sets the
    /// IPC and the cache-event rates; the block length (25 µs) and the
    /// program length ([`PROGRAM_NS`]) are fixed, so every seed asks the
    /// host for the same amount of work.
    pub fn setup(seed: u64) -> Self {
        let nodes: Vec<Node> = (0..MACHINES)
            .map(|i| {
                let mut state = seed ^ (i + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                // 25 µs at the i7-920's 2.67 GHz.
                let cycles = 66_750;
                let instructions = 33_000 + splitmix(&mut state) % 33_000;
                let refs = 20 + splitmix(&mut state) % 200;
                let misses = splitmix(&mut state) % (refs + 1);
                let blocks = PROGRAM_NS * 267 / 100 / cycles;
                Node {
                    seed: seed.wrapping_add(i),
                    blocks,
                    instructions,
                    cycles,
                    refs,
                    misses,
                }
            })
            .collect();
        Self {
            expected_instructions: nodes.iter().map(|n| expected_work(n.program()).1).collect(),
            nodes,
            traced: None,
        }
    }

    fn config(&self, dir: &std::path::Path) -> FleetConfig {
        FleetConfig::builder(&EVENTS, PERIOD)
            .tuning(KlebTuning::microarchitectural())
            .backpressure(Backpressure::Block)
            .persist(dir)
            .build()
    }

    /// Checks one fleet outcome's books: lossless transport, healthy
    /// machines, exact instruction counts.
    fn check_outcome(&self, outcome: &FleetOutcome, pass: &mut Pass) {
        if !outcome.all_healthy() {
            pass.errors.push(format!(
                "unhealthy machines: {:?}",
                outcome.failed_machines()
            ));
        }
        let ch = &outcome.channel;
        for i in 0..ch.sent.len() {
            if ch.sent[i] != ch.delivered[i] + ch.dropped[i] {
                pass.errors.push(format!(
                    "stream {i}: sent {} != delivered {} + dropped {}",
                    ch.sent[i], ch.delivered[i], ch.dropped[i]
                ));
            }
        }
        if ch.total_dropped() != 0 {
            pass.errors
                .push(format!("Block dropped {} samples", ch.total_dropped()));
        }
        for (i, report) in outcome.machines.iter().enumerate() {
            let counted = report.outcome.total_instructions();
            if counted != self.expected_instructions[i] {
                pass.errors.push(format!(
                    "{}: K-LEB counted {counted} instructions, the program retired {}",
                    report.label, self.expected_instructions[i]
                ));
            }
            if report.outcome.status.samples_dropped != 0 {
                pass.errors
                    .push(format!("{}: module dropped samples", report.label));
            }
        }
    }
}

/// Windowed MPKI per machine through the replayed store, checked against
/// the same windows summed from the recovered streams.
fn query(store: &FleetStore, series: &[TraceSeries], pass: &mut Pass) -> String {
    let miss_lane = store
        .lane_of(HwEvent::LlcMiss)
        .expect("LLC misses are sampled");
    let mut out = String::new();
    for (machine, s) in series.iter().enumerate() {
        let series_lane = s
            .lane_of(HwEvent::LlcMiss)
            .expect("LLC misses are recorded");
        let end = s.timestamps_ns.last().map_or(1, |t| t + 1);
        let mpki: Vec<f64> = (0..WINDOWS)
            .map(|k| {
                let window = Window {
                    start_ns: end * k / WINDOWS,
                    end_ns: end * (k + 1) / WINDOWS,
                };
                let from_store = (
                    store.window_sum(machine, miss_lane, window),
                    store.window_sum(machine, Lane::INSTRUCTIONS, window),
                );
                let from_trace = (
                    s.window_sum(series_lane, window.start_ns, window.end_ns),
                    s.window_sum(LANE_INSTRUCTIONS, window.start_ns, window.end_ns),
                );
                if from_store != from_trace {
                    pass.errors.push(format!(
                        "machine {machine} window {k}: store {from_store:?} != trace {from_trace:?}"
                    ));
                }
                store.window_mpki(machine, miss_lane, window)
            })
            .collect();
        let total = s.total_mpki(HwEvent::LlcMiss).unwrap_or(0.0);
        out.push_str(&format!("{}|{}|{total:?}|{mpki:?}\n", s.label, s.len()));
    }
    out
}

impl Bench for FleetRecordReplay {
    fn pass(&mut self, mut tracer: Option<&mut Tracer>) -> Pass {
        let started = Instant::now();
        let mut pass = Pass::default();
        let recording = Recording::new();
        let runner = FleetRunner::new(self.config(&recording.0));
        let feed = tracer.is_some().then(FeedHandle::default);
        let clock = RunClock::default();
        let specs: Vec<MachineSpec> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let feed = feed.clone();
                let clock = Arc::clone(&clock);
                MachineSpec::new(Node::label(i), node.seed, move |_| {
                    Adapter::wrap(
                        node.program(),
                        feed.as_ref().map(|f| (Arc::clone(f), i)),
                        Some(Arc::clone(&clock)),
                    )
                })
            })
            .collect();
        pass.attempted = MACHINES;
        // The benchmark's own clock, around the whole call.
        let (live, record_s) = timed(&mut tracer, "fleet", "record", || runner.run(specs));
        let live = match live {
            Ok(o) => o,
            Err(e) => {
                pass.failed = MACHINES;
                pass.errors.push(format!("record: {e}"));
                pass.host_s = started.elapsed().as_secs_f64();
                return pass;
            }
        };
        pass.run_ms = std::mem::take(&mut *clock.lock().unwrap_or_else(|e| e.into_inner()));
        self.check_outcome(&live, &mut pass);
        pass.samples = live
            .machines
            .iter()
            .map(|m| m.outcome.samples.len() as u64)
            .sum();
        pass.sim_ns = live
            .machines
            .iter()
            .map(|m| m.outcome.target.try_wall_time().map_or(0, |d| d.as_nanos()))
            .sum();

        let (loaded, load_s) = timed(&mut tracer, "ktrace", "load", || {
            TraceReplayer::load_dir(&recording.0)
        });
        let replayer = match loaded {
            Ok(r) => r,
            Err(e) => {
                pass.errors.push(format!("load: {e}"));
                pass.host_s = started.elapsed().as_secs_f64();
                return pass;
            }
        };
        if !replayer.all_clean() {
            pass.errors.push("recording did not read back clean".into());
        }
        let (series, series_s) = timed(&mut tracer, "analysis", "series", || {
            replayer
                .streams
                .iter()
                .map(TraceSeries::from_stream)
                .collect::<Vec<_>>()
        });
        let (replayed, replay_s) = timed(&mut tracer, "fleet", "replay", || {
            runner.replay(replayer.streams)
        });
        let replayed = match replayed {
            Ok(o) => o,
            Err(e) => {
                pass.errors.push(format!("replay: {e}"));
                pass.host_s = started.elapsed().as_secs_f64();
                return pass;
            }
        };
        let digest = live.digest();
        if replayed.digest() != digest {
            pass.errors
                .push("replayed digest differs from the recorded one".into());
        }
        let (table, query_s) = timed(&mut tracer, "analysis", "window queries", || {
            query(&replayed.store, &series, &mut pass)
        });
        pass.output = format!("digest|{}|{:016x}\n{table}", digest.len(), fnv1a(&digest));
        // The phases a user waits for; the digest comparison is the
        // benchmark's own check and stays out.
        pass.host_s = record_s + load_s + series_s + replay_s + query_s;
        if let Some(feed) = feed {
            self.traced = Some(Traced {
                feed,
                samples: pass.samples,
                block_waits: live.channel.block_waits,
                depth_hwm: live.channel.depth_high_water,
                elapsed_gap_s: record_s - live.elapsed.as_secs_f64(),
                replay_samples_per_s: pass.samples as f64 / (load_s + replay_s),
                query_s: series_s + query_s,
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
        // Per machine on this thread: a bare run, then the same program
        // monitored exactly as the fleet monitors it, capturing the batches.
        let (mut ksim_events, mut ksim_s, mut kleb_s) = (0u64, 0.0, 0.0);
        let (mut mem, mut dropped, mut retries) = (MemStats::default(), 0u64, 0u64);
        let side_feed = FeedHandle::default();
        let mut captured = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let bare = match bare_run(tracer, &Node::label(i), machine(node.seed), node.program()) {
                Ok(b) => b,
                Err(e) => {
                    layers.errors.push(e);
                    return layers;
                }
            };
            ksim_events += bare.events;
            ksim_s += bare.host_s - bare.next_s;
            let batches = Arc::new(Mutex::new(Vec::new()));
            let mut m = machine(node.seed);
            let workload = Adapter::wrap(node.program(), Some((Arc::clone(&side_feed), i)), None);
            let monitor = Monitor::new(&EVENTS, PERIOD).tuning(KlebTuning::microarchitectural());
            tracer.open("kleb", format!("monitored {}", Node::label(i)));
            let outcome = monitor.run_with_sink(
                &mut m,
                &Node::label(i),
                workload,
                Box::new(Capture(Arc::clone(&batches))),
            );
            let monitored_s = tracer.close();
            match outcome {
                Ok(o) => {
                    dropped += o.status.samples_dropped;
                    retries += o.recovery.drain_retries;
                }
                Err(e) => layers
                    .errors
                    .push(format!("monitored {}: {e}", Node::label(i))),
            }
            kleb_s += monitored_s - bare.host_s;
            add_mem_stats(&mut mem, &m);
            captured.push(std::mem::take(
                &mut *batches.lock().unwrap_or_else(|e| e.into_inner()),
            ));
        }
        let samples: u64 = captured.iter().flatten().map(|b| b.len() as u64).sum();
        let per_sample = |s: f64| s * 1e9 / samples.max(1) as f64;

        // The captured batches through each layer alone.
        tracer.open("kchan", "ring fan-in");
        let (senders, mut collector) =
            fleet::ring_fanin(captured.len(), CAPACITY, Backpressure::Block);
        let mut delivered = 0u64;
        std::thread::scope(|scope| {
            for (mut tx, batches) in senders.into_iter().zip(&captured) {
                scope.spawn(move || {
                    for b in batches {
                        tx.send(b);
                    }
                });
            }
            let mut scratch = Vec::new();
            loop {
                match collector.poll(std::time::Duration::from_millis(50), &mut scratch) {
                    Polled::Batch { .. } => delivered += scratch.len() as u64,
                    Polled::Timeout => {}
                    Polled::Disconnected => break,
                }
            }
        });
        let kchan_ns = per_sample(tracer.close());
        if delivered != samples {
            layers.errors.push(format!(
                "ring fan-in delivered {delivered} of {samples} samples"
            ));
        }

        tracer.open("fleet", "store ingest");
        let mut store = FleetStore::new(captured.len(), EVENTS.to_vec(), CAPACITY);
        for (i, batches) in captured.iter().enumerate() {
            for b in batches {
                store.ingest(i, b);
            }
        }
        let store_ns = per_sample(tracer.close());

        tracer.open("ktrace", "encode");
        let mut images = Vec::new();
        for (i, batches) in captured.iter().enumerate() {
            let meta = StreamMeta {
                label: Node::label(i),
                seed: self.nodes[i].seed,
                period_ns: PERIOD.as_nanos(),
                events: EVENTS.to_vec(),
            };
            let encoded = TraceWriter::new(Vec::new(), &meta).and_then(|mut w| {
                for b in batches {
                    w.append_batch(b)?;
                }
                w.finish(&StreamLedger::default())?;
                Ok(w.into_inner())
            });
            match encoded {
                Ok(bytes) => images.push(bytes),
                Err(e) => layers.errors.push(format!("encode: {e}")),
            }
        }
        let encode_ns = per_sample(tracer.close());
        let bytes: usize = images.iter().map(Vec::len).sum();

        tracer.open("ktrace", "decode");
        let mut decoded = 0u64;
        for image in images {
            match TraceReader::from_bytes(image) {
                Ok(r) => decoded += r.read_all().samples.len() as u64,
                Err(e) => layers.errors.push(format!("decode: {e}")),
            }
        }
        let decode_ns = per_sample(tracer.close());
        if decoded != samples {
            layers
                .errors
                .push(format!("decoded {decoded} of {samples} samples"));
        }

        let f = probe::lock(&t.feed);
        let rec = t.samples as f64 * 1e-9;
        // The program issues no accesses of its own, so nothing is
        // replayed: `memsim.ns_per_access` stays 0.
        layers.metrics = common_metrics(&f, &mem, 0.0, ksim_events, ksim_s, kleb_s, t.samples);
        layers.metrics.extend([
            ("kleb.samples_dropped", dropped as f64),
            ("kleb.recovery_retries", retries as f64),
            ("kchan.ns_per_sample", kchan_ns),
            ("fleet.store_ingest_ns_per_sample", store_ns),
            ("fleet.channel_block_waits", t.block_waits as f64),
            ("fleet.depth_hwm", t.depth_hwm as f64),
            ("fleet.elapsed_gap_s", t.elapsed_gap_s),
            ("ktrace.encode_ns_per_sample", encode_ns),
            (
                "ktrace.bytes_per_sample",
                bytes as f64 / samples.max(1) as f64,
            ),
            ("ktrace.decode_ns_per_sample", decode_ns),
            ("analysis.query_s", t.query_s),
            ("replay_samples_per_s", t.replay_samples_per_s),
        ]);
        // Every sample crosses the ring and the store twice (record and
        // replay) and the codec once each way. The collector's record-phase
        // ingest overlaps the machine thread, so coverage can exceed 1.
        layers.attributed = vec![
            ("workloads", f.next_ns as f64 * 1e-9),
            ("ksim", ksim_s),
            ("kleb", kleb_s),
            ("kchan", 2.0 * kchan_ns * rec),
            ("fleet", 2.0 * store_ns * rec),
            ("ktrace", (encode_ns + decode_ns) * rec),
            ("analysis", t.query_s),
        ];
        if samples != t.samples {
            layers.errors.push(format!(
                "side-pass captured {samples} samples, the fleet delivered {}",
                t.samples
            ));
        }
        layers
    }
}
