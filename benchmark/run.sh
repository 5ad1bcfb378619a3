#!/usr/bin/env bash
# The one command: build the `ramiel` binary of this checkout and the
# benchmark (offline, release), then run the benchmark against that binary.
#
#   benchmark/run.sh                       all four workloads, end-to-end metrics
#   benchmark/run.sh --workload b1_bert --seed 7 --seconds 20 --trace 0
#   benchmark/run.sh --trace 1             per-layer metrics + out/trace-*.json
#   benchmark/run.sh --smoke               does it still run on this commit (~15 s)
#   benchmark/run.sh --repeat 5            repeatability against the bounds, exact counts
#
# Build output goes to stderr; the last line of stdout is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Both builds share one target directory: the caller's CARGO_TARGET_DIR
# (relative to the caller's directory, as cargo itself would read it) or
# benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ramiel --bin ramiel >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/ramiel-benchmark" --ramiel "$target/release/ramiel" --dir "$here" "$@"
