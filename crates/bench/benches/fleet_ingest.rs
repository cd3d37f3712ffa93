//! Fleet store ingestion cost: the collector's hot path, isolated.
//!
//! Measures `FleetStore::ingest` throughput for batches fanning out to
//! five lanes (three fixed + two events), and the SPSC ring fan-in's
//! send/poll pair under the Block policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fleet::{ring_fanin, Backpressure, FleetStore, Polled};
use kleb::Sample;
use pmu::HwEvent;

fn batch(len: u64) -> Vec<Sample> {
    (0..len)
        .map(|i| Sample {
            timestamp_ns: (i + 1) * 100_000,
            seq: i,
            pid: 7,
            fixed: [1_000 + i, 2_670 * (i + 1), 2_000],
            pmc: [40 + i % 11, 7 + i % 3, 0, 0],
            ..Sample::default()
        })
        .collect()
}

fn bench_store_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_store_ingest");
    for batch_len in [16u64, 256, 4096] {
        group.throughput(Throughput::Elements(batch_len));
        let samples = batch(batch_len);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{batch_len}_samples")),
            &samples,
            |b, samples| {
                b.iter(|| {
                    let mut store =
                        FleetStore::new(1, vec![HwEvent::LlcReference, HwEvent::LlcMiss], 8 * 1024);
                    store.ingest(0, samples)
                });
            },
        );
    }
    group.finish();
}

fn bench_ring_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_ring_roundtrip");
    let batch_len = 256u64;
    group.throughput(Throughput::Elements(batch_len));
    let samples = batch(batch_len);
    group.bench_function("push_poll_256", |b| {
        let (mut tx, mut collector) = ring_fanin(1, 1024, Backpressure::Block);
        let mut scratch: Vec<Sample> = Vec::new();
        b.iter(|| {
            tx[0].send(&samples);
            let polled = collector.poll(std::time::Duration::from_millis(10), &mut scratch);
            assert!(matches!(polled, Polled::Batch { .. }));
            scratch.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_store_ingest, bench_ring_roundtrip);
criterion_main!(benches);
