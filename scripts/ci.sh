#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
#
# Everything runs --offline against the vendored dependency stubs in
# vendor/ — CI hosts need no network and no crates.io index.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

# Rustdoc link gate: a deleted or renamed item must not leave a dead
# intra-doc link behind in the crates whose docs name the executors, and a
# public doc must not link to a private item (the link renders dead).
echo "==> cargo doc (broken and private intra-doc links denied)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline -p ramiel-runtime -p ramiel-serve -p ramiel

echo "==> cargo test (--no-fail-fast: one red binary must not hide the ones after it)"
cargo test --offline --no-fail-fast

# The tensor kernels again with optimisations on: the `#[target_feature]`
# entry of the GEMM tile and the conv kernel is inlined and vectorised only
# in release builds, and its bit-identity with the portable entry is what
# `kernel_props` pins.
echo "==> cargo test -p ramiel-tensor --release (the AVX2 entry as it ships)"
cargo test --offline --release -p ramiel-tensor

# The timing guards are `#[cfg(not(debug_assertions))]`: a debug build
# times bounds checks, not the code under guard, so the debug suite above
# compiles them out. The tensor step just ran `gemm_speed` (`gemm::mm` at
# least 2x a naive triple loop); this runs the rest: program compilation no
# slower than the name-keyed table it replaced, batch-1 work stealing no
# slower than sequential on every model, and a NASNet or BERT load within
# its allocation budget (debug builds add invariant checks to the load).
echo "==> release-only guards (program compile time, stealing at batch 1, load allocations)"
cargo test --offline --release -p ramiel --test hyper_programs --test steal_speed --test load_alloc

# Liveness gate: the differential + chaos suites exercise every executor's
# failure paths (worker panics, dropped messages, timeouts). Their contract
# is bounded termination, so a hang IS the regression — run them again
# standalone under a hard wall-clock limit that turns a wedge into a
# failing exit code instead of a stuck CI job.
echo "==> chaos + differential suites (10 min wall-clock cap)"
timeout --kill-after=30s 600s \
    cargo test --offline -p ramiel --test differential --test chaos

# Scheduling-conformance gate for the work-stealing executor. Its schedule
# is decided at runtime (readiness + steal order), so conformance is argued
# by adversarial sampling: a seeded StealChaos adversary perturbs stalls and
# steal order and every sampled interleaving must be bit-identical to
# sequential AND terminate. The vendored proptest RNG is name-seeded, so the
# seed set is deterministic in CI; the budget is pinned here (250 cases x 4
# models ≥ 1000 interleavings) and can be raised for local soak runs by
# exporting RAMIEL_CONFORMANCE_CASES before invoking this script.
echo "==> steal conformance gate (seeded, ${RAMIEL_CONFORMANCE_CASES:-250} cases)"
RAMIEL_CONFORMANCE_CASES="${RAMIEL_CONFORMANCE_CASES:-250}" \
    timeout --kill-after=30s 600s \
    cargo test --offline -p ramiel --test steal_conformance

# Observability smoke: `ramiel profile` runs the model on its four lanes
# (sequential, per-run channels at batch 1 and hyperclustered, a standing
# pool) and validates the merged Chrome/Perfetto trace before writing it — a
# malformed trace (or any executor divergence) is a failing exit code. Same
# hard timeout discipline as the chaos gate.
echo "==> ramiel profile smoke (trace validity gate)"
timeout --kill-after=30s 600s \
    cargo run --offline -p ramiel --bin ramiel -- \
    profile squeezenet --tiny --out target/ci-profile
test -s target/ci-profile/squeezenet-trace.json

# Static-analysis gate: lifetime, peak-memory, and happens-before channel
# analysis over every built-in model's default schedule. --deny-warnings
# turns any RA-coded warning (e.g. a channel-capacity overrun) into exit 1
# and any race/deadlock finding into exit 2, so a pipeline regression that
# produces an unsound schedule fails CI here before it flakes at runtime.
echo "==> ramiel analyze gate (all models, warnings denied)"
timeout --kill-after=30s 600s \
    cargo run --offline -p ramiel --bin ramiel -- \
    analyze all --tiny --deny-warnings > target/ci-analyze.log
grep -q "peak memory:" target/ci-analyze.log

# Serving smoke: boot `ramiel serve` on a real TCP socket, then drive it
# with `ramiel request` — ping, a handful of batched inferences, a stats
# snapshot, the telemetry verbs, and a graceful shutdown. The `metrics` op
# must return Prometheus exposition carrying the per-request latency
# histograms and no steal-pool series (a server runs one executor, the
# plan's standing pool, and starts no steal pool); the `trace` op's Chrome
# trace is validated client-side (the CLI exits nonzero on a malformed
# trace); and one frame of `ramiel top` must render from the same
# endpoint. The server process must exit 0 on its own after the shutdown
# op (drain, not kill), all under the same hard timeout so a wedged accept
# loop or un-drained lane fails CI instead of hanging it.
echo "==> ramiel serve smoke (TCP round-trip gate)"
cargo build --offline -p ramiel --bin ramiel
SERVE_PORT=7979
timeout --kill-after=30s 600s \
    target/debug/ramiel serve squeezenet --tiny --port "$SERVE_PORT" \
    > target/serve-smoke.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/serve-smoke.log 2>/dev/null && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat target/serve-smoke.log; exit 1; }
    sleep 0.2
done
grep -q "listening on" target/serve-smoke.log
# The start-up banner is part of the process boundary: the benchmark copies
# it into its manifest.
for label in "model:" "nodes:" "clusters:" "cross-cluster edges:" \
    "potential parallelism:" "compile time:" "serving \`squeezenet\`"; do
    grep -q "^$label" target/serve-smoke.log
done
# The plan runs at most one standing worker per core; the banner says how
# many it runs.
WORKERS=$(sed -n 's/^serving .*, \([0-9][0-9]*\) workers\{0,1\}[,)].*/\1/p' \
    target/serve-smoke.log)
if [ -z "$WORKERS" ] || [ "$WORKERS" -gt "$(nproc)" ]; then
    echo "serve runs ${WORKERS:-an unstated number of} workers on $(nproc) cores"
    exit 1
fi
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" --op ping
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" \
    --op infer_synth --count 4 > /dev/null
# One store, two views: `stats` and `metrics` count the same four requests.
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" \
    --op stats > target/serve-stats.json
grep -qF '"completed":4' target/serve-stats.json
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" \
    --op metrics > target/serve-metrics.txt
grep -qF 'ramiel_requests_total{model="squeezenet",outcome="completed"} 4' \
    target/serve-metrics.txt
grep -q "ramiel_batch_size_count" target/serve-metrics.txt
grep -q "ramiel_request_latency_ns_bucket" target/serve-metrics.txt
# (`! grep` alone would not trip `set -e`.)
if grep -q "ramiel_steal_" target/serve-metrics.txt; then
    echo "a server exports steal-pool series"
    exit 1
fi
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" \
    --op trace > target/serve-trace.json
timeout 60s target/debug/ramiel top --port "$SERVE_PORT" --frames 1
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" --op shutdown
wait "$SERVE_PID"

# ONNX ingestion gates. Import smoke: the checked-in golden fixtures must
# import through the full validate/verify pipeline (`ramiel check` compiles
# and statically verifies the schedule), the deliberately clipped fixture
# must fail with a structured ONNX-WIRE error, and a CLI export→import
# round trip must hold. The 8-model bit-identical round-trip matrix and the
# truncation/corruption sweeps run as test suites under the same timeout
# discipline as the other gates.
echo "==> onnx import/round-trip gates (8-model matrix + golden fixtures)"
timeout --kill-after=30s 600s \
    cargo test --offline -p ramiel --test onnx_roundtrip --test onnx_golden
timeout 60s target/debug/ramiel check tests/fixtures/squeezenet_tiny.onnx
if timeout 60s target/debug/ramiel check tests/fixtures/truncated.onnx \
    2> target/ci-onnx-err.log; then
    echo "truncated.onnx unexpectedly imported"; exit 1
fi
grep -q "ONNX-WIRE" target/ci-onnx-err.log
timeout 60s target/debug/ramiel export bert target/ci-bert.onnx --tiny
timeout 60s target/debug/ramiel check target/ci-bert.onnx

# Registry round-trip gate: serve the fixture dir over loopback HTTP with
# `ramiel fileserver`, pull it through the content-addressed cache with a
# sha256 pin (a wrong pin must refuse with RG-CHECKSUM and cache nothing),
# then hot-swap the pulled model into a *running* `ramiel serve` via the
# `load` op and verify the plan version bump through `stats`, and start a
# server from the pinned URL itself.
echo "==> registry round-trip gate (loopback HTTP, pinned pull, hot swap)"
RCACHE=target/ci-registry-cache
rm -rf "$RCACHE"
FS_PORT=7980
timeout --kill-after=30s 600s \
    target/debug/ramiel fileserver tests/fixtures --port "$FS_PORT" \
    > target/ci-fileserver.log 2>&1 &
FS_PID=$!
for _ in $(seq 1 100); do
    grep -q "fileserver on" target/ci-fileserver.log 2>/dev/null && break
    kill -0 "$FS_PID" 2>/dev/null || { cat target/ci-fileserver.log; exit 1; }
    sleep 0.2
done
PIN=$(sha256sum tests/fixtures/squeezenet_tiny.onnx | cut -d' ' -f1)
MODEL_URL="http://127.0.0.1:$FS_PORT/squeezenet_tiny.onnx"
timeout 60s target/debug/ramiel pull "$MODEL_URL" --sha256 "$PIN" --cache "$RCACHE"
BAD_PIN=$(printf 'a%.0s' $(seq 64))
if timeout 60s target/debug/ramiel pull "$MODEL_URL" --sha256 "$BAD_PIN" \
    --cache "$RCACHE" 2> target/ci-pull-err.log; then
    echo "mismatched pin was not refused"; exit 1
fi
grep -q "RG-CHECKSUM" target/ci-pull-err.log
test ! -e "$RCACHE/sha256/$BAD_PIN"

SWAP_PORT=7981
timeout --kill-after=30s 600s \
    target/debug/ramiel serve squeezenet --tiny --port "$SWAP_PORT" \
    --cache "$RCACHE" > target/ci-swap.log 2>&1 &
SWAP_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/ci-swap.log 2>/dev/null && break
    kill -0 "$SWAP_PID" 2>/dev/null || { cat target/ci-swap.log; exit 1; }
    sleep 0.2
done
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op load --source "$MODEL_URL" --sha256 "$PIN" > target/ci-load.json
grep -q "\"sha256\":\"$PIN\"" target/ci-load.json
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op stats > target/ci-swap-stats.json
grep -q '"versions":{"squeezenet":2}' target/ci-swap-stats.json
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op infer_synth > /dev/null
if timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op load --source "$MODEL_URL" --sha256 "$BAD_PIN" > target/ci-load-bad.json; then
    echo "hot swap with mismatched pin was not refused"; exit 1
fi
grep -q "RG-CHECKSUM" target/ci-load-bad.json
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op stats > target/ci-swap-stats2.json
grep -q '"versions":{"squeezenet":2}' target/ci-swap-stats2.json
# ONNX is the only model encoding: a file that is not ONNX is refused by
# the importer and the resident model keeps its version.
printf '{"name":"x","nodes":[]}' > target/ci-not-onnx.json
if timeout 60s target/debug/ramiel request --port "$SWAP_PORT" --op load \
    --source "file://$PWD/target/ci-not-onnx.json" > target/ci-load-not-onnx.json; then
    echo "hot swap of a non-ONNX file was not refused"; exit 1
fi
grep -q "ONNX-WIRE" target/ci-load-not-onnx.json
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" \
    --op stats > target/ci-swap-stats3.json
grep -q '"versions":{"squeezenet":2}' target/ci-swap-stats3.json
timeout 60s target/debug/ramiel request --port "$SWAP_PORT" --op shutdown
wait "$SWAP_PID"
# A start from the pinned URL takes the same path as the `load` op: the
# model is cached by now, so `stats.load` counts one pull hit.
URL_PORT=7982
timeout --kill-after=30s 600s \
    target/debug/ramiel serve "$MODEL_URL" --sha256 "$PIN" --cache "$RCACHE" \
    --port "$URL_PORT" > target/ci-url.log 2>&1 &
URL_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/ci-url.log 2>/dev/null && break
    kill -0 "$URL_PID" 2>/dev/null || { cat target/ci-url.log; exit 1; }
    sleep 0.2
done
timeout 60s target/debug/ramiel request --port "$URL_PORT" \
    --op stats > target/ci-url-stats.json
grep -q '"pulls_hit":1' target/ci-url-stats.json
timeout 60s target/debug/ramiel request --port "$URL_PORT" --op shutdown
wait "$URL_PID"
kill "$FS_PID" 2>/dev/null || true
wait "$FS_PID" 2>/dev/null || true

# Benchmark process-boundary gate: `benchmark/run.sh --smoke` builds the
# release `ramiel` binary and the benchmark package (its own workspace,
# same target directory), spawns `ramiel serve` with default flags and
# drives all four workloads over loopback TCP for about a second each.
# Every reply is verified against benchmark/golden.json and the metric
# names are checked against BENCHMARK.json, so a change that breaks what
# the benchmark uses of the program — a flag, a wire field, a scraped
# series, a public signature in benchmark/src/layers.rs — fails here and
# not in the benchmark driver (exit 1 on a wrong reply, 2 on a broken
# run). About 15 s after the build.
echo "==> benchmark smoke (4 workloads over TCP, replies vs golden.json)"
CARGO_TARGET_DIR="$PWD/target" timeout --kill-after=30s 600s \
    bash benchmark/run.sh --smoke > target/ci-benchmark-smoke.log

echo "CI green."
