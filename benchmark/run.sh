#!/usr/bin/env bash
# Build offline, run the four workloads untraced (out/result.json), then the
# traced pass (out/result-traced.json, out/trace-<workload>.jsonl,
# out/profile.md). Extra arguments go to both runs: --seed, --seconds,
# --quick, --runs.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/pb-benchmark"
"$bin" run "$@" --trace 0 --out out/result.json
"$bin" run "$@" --trace 1 --out out/result-traced.json
