#!/usr/bin/env bash
# The repository's full verification gate. Everything here must pass
# before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> perfbench fmt + clippy (its own package, built against the public API)"
# perfbench is outside the workspace, so the two steps above skip it; an
# API change that breaks its lint shows here, not at the next benchmark
# change. Clippy, build, test and the perfbench runs are --locked: the
# clippy steps are the first to resolve each package, so a manifest change
# that would rewrite Cargo.lock or perfbench/Cargo.lock fails there instead
# of silently editing the lockfile.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy --offline --locked --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> klint (determinism + MSR-protocol + unsafe/atomics invariants, baseline: klint.baseline)"
cargo run -q -p klint -- --workspace
mkdir -p target
cargo run -q -p klint -- --workspace --format json > target/klint-report.json
echo "    report: target/klint-report.json"

echo "==> api-snapshot gate (public API inventory matches committed api.txt)"
cargo run -q -p klint --bin apisnap --

echo "==> cargo build --release"
cargo build --locked --workspace --release

echo "==> cargo test"
cargo test -q --locked --workspace

echo "==> golden gate (every experiment bin at --quick prints exactly tests/golden/<bin>.txt)"
# Every bin is pinned, so none may print host time. A new bin fails here
# until its golden is committed.
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    "target/release/$bin" --quick | diff -u "tests/golden/$bin.txt" -
done

echo "==> paper-scale gate (the --full bins that reproduce results/ print exactly results/<bin>.txt)"
# fig5_docker_mpki and verify_aws are the paper-scale check that the
# i7-920 and Xeon single-core results stay put. The other results/ files
# predate the current models and wait for their regeneration (ROADMAP.md,
# item 1). The three runs take about 12 s.
for bin in fig5_docker_mpki verify_aws casestudy_colocation; do
    "target/release/$bin" --full | diff -u "results/$bin.txt" -
done

echo "==> perfbench counter gate (failed and the exact work counters at seed 42 match tests/golden/perfbench_exact-42.txt)"
# A traced round's exact counters do not depend on --seconds or host speed,
# so a short run pins them; wall-clock metrics are reported, never gated.
for workload in paper_overhead docker_mpki fleet_record_replay; do
    json=$(cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 1 | tail -n 1)
    echo "$workload failed $(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$json")"
    for counter in memsim.accesses memsim.llc_misses ksim.events workloads.blocks \
        kleb.samples ktrace.bytes_per_sample; do
        echo "$workload $counter $(sed -n "s/.*\"${counter//./\\.}\": {\"value\": \([^,]*\),.*/\1/p" <<<"$json")"
    done
done | diff -u tests/golden/perfbench_exact-42.txt -

echo "==> perfbench held-out seed (every workload at seed 7 matches perfbench/reference/<workload>-7.txt)"
# perfbench checks its own outputs against the committed references and
# reports "correct"; seed 7 is the seed no change is tuned on.
for workload in paper_overhead docker_mpki fleet_record_replay; do
    json=$(cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 1 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$json" || ! grep -q '"failed": 0,' <<<"$json"; then
        echo "$workload at seed 7: $json"
        exit 1
    fi
    echo "$workload seed 7 correct, failed 0"
done

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

echo "==> OK"
