#!/usr/bin/env bash
# The whole CI gate, runnable locally. Every step must pass before merge;
# see DESIGN.md §8 (Correctness tooling) for what the domain lints check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

echo "==> cargo test --workspace (tier-1 and crate tests)"
cargo test -q --workspace

echo "==> cargo test -p shoggoth-tensor --features finite-check"
cargo test -q -p shoggoth-tensor --features finite-check

# Paper-scale pretraining golden: concurrent build_models == serial
# pretraining, bit for bit. Too slow unoptimized, so it runs in release.
echo "==> cargo test --release -p shoggoth --test pretrain_golden"
cargo test -q --release -p shoggoth --test pretrain_golden

# The stage benchmark is its own cargo workspace; its tests check the
# workloads, metric names and CLI against BENCHMARK.json.
echo "==> cargo test --release --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Gating: chaos smoke. A fixed-seed worst-case fault schedule (stacked
# outages, bursty loss, degradation, jitter, flaky cloud) must complete
# without a panic; see DESIGN.md §10 (Failure model & resilience). The
# traced run must also leave its telemetry artifacts behind (§11).
echo "==> chaos smoke: cargo run --release --example unreliable_network"
cargo run -q --release --example unreliable_network
for artifact in target/experiments/telemetry_unreliable_network.jsonl \
                target/experiments/telemetry_unreliable_network.html; do
  if [[ ! -s "$artifact" ]]; then
    echo "chaos smoke did not export $artifact (or it is empty)" >&2
    exit 1
  fi
done
echo "    telemetry artifacts present (JSONL + timeline HTML)"

# Non-gating: the throughput probe exercises the release-mode hot path and
# refreshes BENCH_tensor.json, but perf numbers on shared runners are too
# noisy to gate a merge on.
echo "==> bench smoke: scripts/bench.sh --probe (non-gating)"
if ! bash scripts/bench.sh --probe; then
  echo "bench smoke failed (non-gating; see output above)"
fi

echo "CI green."
