#!/usr/bin/env bash
# The repository's full verification gate. Everything here must pass
# before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> klint (determinism + MSR-protocol + unsafe/atomics invariants, baseline: klint.baseline)"
cargo run -q -p klint -- --workspace
mkdir -p target
cargo run -q -p klint -- --workspace --format json > target/klint-report.json
echo "    report: target/klint-report.json"

echo "==> api-snapshot gate (public API inventory matches committed api.txt)"
cargo run -q -p klint --bin apisnap --

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> golden gate (every experiment bin at --quick prints exactly tests/golden/<bin>.txt)"
# Every bin is pinned, so none may print host time. A new bin fails here
# until its golden is committed.
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    "target/release/$bin" --quick | diff -u "tests/golden/$bin.txt" -
done

echo "==> perfbench counter gate (failed and the exact work counters at seed 42 match tests/golden/perfbench_exact-42.txt)"
# A traced round's exact counters do not depend on --seconds or host speed,
# so a short run pins them; wall-clock metrics are reported, never gated.
for workload in paper_overhead docker_mpki fleet_record_replay; do
    json=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 1 | tail -n 1)
    echo "$workload failed $(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$json")"
    for counter in memsim.accesses memsim.llc_misses ksim.events workloads.blocks \
        kleb.samples ktrace.bytes_per_sample; do
        echo "$workload $counter $(sed -n "s/.*\"${counter//./\\.}\": {\"value\": \([^,]*\),.*/\1/p" <<<"$json")"
    done
done | diff -u tests/golden/perfbench_exact-42.txt -

echo "==> chaos gate (fault injection: accounting, determinism, recovery)"
cargo test -q --test chaos
cargo run -q --release --example fault_matrix -- --quick

echo "==> trace gate (codec round-trip, corruption recovery, record->replay bit-exactness)"
cargo test -q -p ktrace
cargo run -q --release --example record_replay -- --quick

echo "==> supervision gate (panic containment, deterministic restart, breakers, partial outcomes)"
cargo test -q --test supervision
cargo run -q --release --example supervision -- --quick

echo "==> governor gate (closed-loop rate control beats the best coverage-matching fixed period)"
cargo run -q --release -p kleb-bench --bin governor_perf -- --quick
cargo run -q --release --example rate_governor -- --quick

echo "==> kloom gate (exhaustive interleavings: ring protocol, doorbell, ordering mutations)"
# Separate target dir: --cfg kloom changes every crate's fingerprint, and
# sharing target/ would force full rebuilds of the normal artifacts above.
KLOOM_FLAGS="--cfg kloom"
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p kloom
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p kchan --test kloom_ring
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p fleet --test kloom_doorbell
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p fleet --test kloom_restart

echo "==> OK"
