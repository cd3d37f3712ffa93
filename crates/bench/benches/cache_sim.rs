//! Cache-hierarchy simulator throughput: the dominant cost of simulating
//! memory-bound workloads.
//!
//! `memsim` scans each level's set once per access: the lookup that misses
//! also picks the way the fill uses. `l1_hits_1024` times the hit path,
//! where only L1d is scanned. `streaming_misses_1024` and
//! `random_pattern_1024` time full misses, which scan all three levels,
//! install at each and back-invalidate the LLC's victim from L2 and L1d.
//! `flush_reload_probe_256` times `clflush`, which keeps a set's valid
//! ways a prefix by moving the last one into the hole.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use memsim::{AccessKind, AccessPattern, Hierarchy};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1024));

    group.bench_function("l1_hits_1024", |b| {
        let mut mem = Hierarchy::i7_920();
        // Warm one line.
        mem.access(0, AccessKind::Read);
        b.iter(|| {
            for _ in 0..1024 {
                black_box(mem.access(0, AccessKind::Read));
            }
        });
    });

    group.bench_function("streaming_misses_1024", |b| {
        let mut mem = Hierarchy::i7_920();
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..1024u64 {
                black_box(mem.access(base + i * 64, AccessKind::Read));
            }
            base += 1024 * 64; // keep missing
        });
    });

    group.bench_function("random_pattern_1024", |b| {
        let mut mem = Hierarchy::i7_920();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let p = AccessPattern::Random {
                base: 0,
                extent: 64 << 20,
                count: 1024,
                seed,
                kind: AccessKind::Read,
            };
            for (addr, kind) in p.cursor() {
                black_box(mem.access(addr, kind));
            }
        });
    });

    group.bench_function("flush_reload_probe_256", |b| {
        let mut mem = Hierarchy::i7_920();
        b.iter(|| {
            for v in 0..256u64 {
                mem.clflush(v * 4096);
            }
            mem.access(77 * 4096, AccessKind::Read);
            for v in 0..256u64 {
                black_box(mem.access(v * 4096, AccessKind::Read));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
