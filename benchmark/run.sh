#!/usr/bin/env bash
# The full benchmark: every workload, end-to-end run + traced run, one table,
# non-zero exit on any wrong output. Arguments are passed through
# (`./run.sh --quick` is the smoke run a CI step can call; `--selfcheck 10`,
# `--verify-oracle` and `--workload W --seed N --seconds S --trace 0|1` too).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
