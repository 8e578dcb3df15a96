#!/usr/bin/env bash
# Build the benchmark and the `coyote-bench` CLI from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload datapath --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`). Both builds run on every call; when nothing
# changed they finish in about a second, before any measurement starts.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p coyote-bench
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# Not `exec`: an exec'd process would inherit the peak resident set of the
# builds above, and `peak_rss_mb` reads the benchmark's own.
"$CARGO_TARGET_DIR/release/coyote-perf" "$@"
