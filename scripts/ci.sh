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
# intra-doc link behind in any crate of the workspace, and a public doc
# must not link to a private item (the link renders dead).
echo "==> cargo doc (broken and private intra-doc links denied)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline --workspace
# The `ramiel` binary shares the library's name, so `cargo doc` skips it;
# its per-verb module docs (each verb's flag list) are checked on their
# own. After the library step: both write target/doc/ramiel.
echo "==> cargo rustdoc --bin ramiel (same link gate over the CLI's verb docs)"
cargo rustdoc --offline -p ramiel --bin ramiel -- \
    -D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links

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

# The examples: clippy above only compiles them. Each runs to completion
# (a panic or a failed assert is a failing exit code) under a hard timeout.
echo "==> examples (release, each run to completion)"
for example in quickstart inception_cloning bert_pruning squeezenet_hyperclustering \
    serving_pool; do
    timeout --kill-after=30s 300s \
        cargo run --offline --release -q -p ramiel --example "$example" > /dev/null
done

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

# Observability smoke: `ramiel profile` runs the model on its three lanes
# (sequential, channels at batch 1 and hyperclustered) and validates the merged Chrome/Perfetto trace before writing it — a
# malformed trace (or any executor divergence) is a failing exit code. Same
# hard timeout discipline as the chaos gate.
echo "==> ramiel profile smoke (trace validity gate)"
timeout --kill-after=30s 600s \
    cargo run --offline -p ramiel --bin ramiel -- \
    profile squeezenet --tiny --out target/ci-profile
test -s target/ci-profile/squeezenet-trace.json

# Static-analysis gate: coverage, channel replay, lifetime, peak-memory and
# channel-capacity analysis over every built-in model's default schedule.
# --deny-warnings turns any warning (e.g. a channel-capacity overrun) into
# exit 1 and any coverage/deadlock finding into exit 2, so a pipeline
# regression that produces an unsound schedule fails CI here before it
# flakes at runtime.
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
# trace) and must hold 4 × 4 request spans; and one frame of `ramiel top` must render from the same
# endpoint. The server process must exit 0 on its own after the shutdown
# op (drain, not kill), all under the same hard timeout so a wedged accept
# loop or un-drained lane fails CI instead of hanging it.
echo "==> ramiel serve smoke (TCP round-trip gate)"
cargo build --offline -p ramiel --bin ramiel
SERVE_PORT=7979
# Each verb takes only the flags it reads: `serve` has no `--iters`, and no
# batch window or intra-op pool to set, so each of these must exit non-zero
# naming the flag, before it binds a port. (A server that started instead
# is cut by the timeout, prints `listening on` and leaves no flag on stderr.)
for refused in "--iters 3" "--max-delay-ms 2" "--intra-op 2"; do
    flag=${refused%% *}
    # shellcheck disable=SC2086 # the flag and its value are two words
    if timeout 60s target/debug/ramiel serve squeezenet --tiny $refused \
        --port "$SERVE_PORT" > target/serve-refused.log 2> target/serve-refused.err; then
        echo "serve accepted $flag, a flag it does not read"; exit 1
    fi
    grep -q -- "$flag" target/serve-refused.err
    if grep -q "listening on" target/serve-refused.log; then
        echo "serve bound a port despite $flag, a flag it does not read"; exit 1
    fi
done
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
# The model table is what `stats` lists: one model, at its first version
# (the benchmark counts evictions from the length of `models`).
grep -qF '"models":["squeezenet"]' target/serve-stats.json
grep -qF '"versions":{"squeezenet":1}' target/serve-stats.json
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
# The trace must hold the four requests' four phases each; an empty
# `traceEvents` validates too, so count the spans the client reports.
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" \
    --op trace > target/serve-trace.json 2> target/serve-trace.err
SPANS=$(sed -n 's/^# valid Chrome trace: [0-9]* events, \([0-9]*\) spans$/\1/p' \
    target/serve-trace.err)
if [ -z "$SPANS" ] || [ "$SPANS" -lt 16 ]; then
    echo "the trace dump holds ${SPANS:-no} complete spans, not the 16 of four requests"
    cat target/serve-trace.err
    exit 1
fi
timeout 60s target/debug/ramiel top --port "$SERVE_PORT" --frames 1
timeout 60s target/debug/ramiel request --port "$SERVE_PORT" --op shutdown
wait "$SERVE_PID"

# Supervised chaos smoke: seed 20's fault plan fails the first attempt and
# the one retry retryably, so the run falls back to the sequential executor
# and must still match it. (Seed 17 drops a message, so each attempt would
# wait out the 30 s recv timeout.) Seed 4's plan panics a worker in each
# attempt and in the fallback, so that run fails with RT-INJECT; the
# injected panics are caught, and none may reach stderr as `panicked at`.
echo "==> ramiel run --chaos-seed smoke (retry, fallback, quiet panics)"
timeout 60s target/debug/ramiel run squeezenet --tiny --chaos-seed 20 \
    --chaos-faults 4 --max-retries 1 --fallback \
    > target/ci-chaos.log 2> target/ci-chaos.err
grep -q "^attempts: *2$" target/ci-chaos.log
grep -q "^fell back: *true$" target/ci-chaos.log
grep -qF "(matches sequential)" target/ci-chaos.log
# The same supervision on the work-stealing executor, whose plan reads the
# prepared weight table: seed 6's plan fires a kernel error at node 4 on
# the first attempt (and a drop-message, a no-op without channels), so the
# one retry runs and succeeds, with no fallback.
timeout 60s target/debug/ramiel run squeezenet --tiny --executor stealing \
    --chaos-seed 6 --chaos-faults 4 --max-retries 1 \
    > target/ci-chaos-steal.log 2>> target/ci-chaos.err
grep -q "^attempts: *2$" target/ci-chaos-steal.log
grep -q "^fell back: *false$" target/ci-chaos-steal.log
grep -qF "(matches sequential)" target/ci-chaos-steal.log
if timeout 60s target/debug/ramiel run squeezenet --tiny --chaos-seed 4 \
    --chaos-faults 4 --max-retries 1 --fallback \
    > /dev/null 2>> target/ci-chaos.err; then
    echo "seed 4's panicking fallback did not fail the run"; exit 1
fi
grep -q "RT-INJECT" target/ci-chaos.err
if grep -q "panicked at" target/ci-chaos.err; then
    echo "an injected panic reached stderr"; cat target/ci-chaos.err; exit 1
fi

# Compile smoke: `ramiel compile` is the one verb that emits Python. At
# batch 1 it writes the parallel and sequential modules, the cluster graph
# and the report; under `--batch 2 --switched` it adds `hyper.py`, emitted
# by the same generator as `parallel.py`. The `wrote` line must list what
# was written, and every module must be valid Python (`py_compile`, when a
# python3 is present).
echo "==> ramiel compile smoke (files written, wrote line, py_compile)"
CDIR=target/ci-compile
rm -rf "$CDIR" "$CDIR-b2"
timeout 60s target/debug/ramiel compile squeezenet --tiny --out "$CDIR" \
    > target/ci-compile.log
grep -qxF "wrote parallel.py, sequential.py, clusters.dot, report.json to $CDIR" \
    target/ci-compile.log
timeout 60s target/debug/ramiel compile squeezenet --tiny --batch 2 --switched \
    --out "$CDIR-b2" > target/ci-compile-b2.log
grep -qxF "wrote parallel.py, sequential.py, hyper.py, clusters.dot, report.json to $CDIR-b2" \
    target/ci-compile-b2.log
for f in parallel.py sequential.py clusters.dot report.json; do
    test -s "$CDIR/$f"
    test -s "$CDIR-b2/$f"
done
test ! -e "$CDIR/hyper.py"
test -s "$CDIR-b2/hyper.py"
if command -v python3 > /dev/null; then
    for f in "$CDIR"/*.py "$CDIR-b2"/*.py; do
        timeout 60s python3 -m py_compile "$f"
    done
fi

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
