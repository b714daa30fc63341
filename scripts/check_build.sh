#!/bin/sh
# Tier-1 verification: full configure + build + test, plus source
# lints. Run before every commit.
set -e
cd "$(dirname "$0")/.."

# Lint: ad-hoc instrumentation is not allowed on the service path.
# Timing belongs in src/telemetry (RequestTrace spans / histograms),
# console output in common/logging. strprintf() is fine: the \b
# boundary only matches bare printf-family calls.
bad=$(grep -rnE '\bprintf\(|\bfprintf\(|gettimeofday|clock_gettime' \
    src/core/ || true)
if [ -n "$bad" ]; then
    echo "lint: ad-hoc printf/timing in src/core;" \
         "use src/telemetry instead:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: the simulators guarantee bit-identical replays from a
# seed, so wall-clock time and unseeded randomness are banned in
# src/sim and src/cluster (common/rng's seeded generators and the
# event queue's virtual clock are the only time/chance sources).
bad=$(grep -rnE \
    'std::random_device|system_clock|steady_clock|gettimeofday|clock_gettime|\btime\(' \
    src/sim/ src/cluster/ || true)
if [ -n "$bad" ]; then
    echo "lint: wall clock / unseeded randomness in simulator" \
         "sources; use common/rng and sim::EventQueue time:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: metric families must be snake_case and registered in the
# committed allowlist, so a rename or a typo'd name breaks the
# build instead of silently orphaning a dashboard. The allowlist
# itself must stay sorted (binary-search friendly, diff stable).
if ! grep -v '^#' scripts/metric_allowlist.txt | sort -c; then
    echo "lint: scripts/metric_allowlist.txt is not sorted" >&2
    exit 1
fi
used=$(grep -rhoE '"djinn_[A-Za-z0-9_]*"' src/ tools/ bench/ \
    | tr -d '"' | sort -u)
listed=$(grep -v '^#' scripts/metric_allowlist.txt | sort -u)
bad=$(printf '%s\n' "$used" | grep -vE '^djinn_[a-z0-9_]+$' || true)
if [ -n "$bad" ]; then
    echo "lint: metric names must be snake_case:" >&2
    echo "$bad" >&2
    exit 1
fi
drift=$(printf '%s\n%s\n' "$used" "$listed" | sort | uniq -u || true)
if [ -n "$drift" ]; then
    echo "lint: metric names out of sync with" \
         "scripts/metric_allowlist.txt:" >&2
    echo "$drift" >&2
    exit 1
fi

cmake -B build -S . && cmake --build build -j && \
    cd build && ctest --output-on-failure -j "$(nproc)"
cd ..

# Flag validation: out-of-range djinnd flags exit 2 with the usage
# text, before any model loads or any socket binds.
for bad in "--port 70000" "--batch-size 0"; do
    rc=0
    ./build/tools/djinnd $bad > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check_build: djinnd $bad exited $rc, want 2" >&2
        exit 1
    fi
done

# Smoke test the observability surface: boot a real daemon with the
# HTTP endpoint and let scrape_check validate /healthz, /metrics
# (must parse as Prometheus exposition), /trace, and /profile.
# --profile-hz arms the sampling profiler so the /profile scrape
# exercises the live path (scrape_check accepts 503 where signal
# timers are restricted).
http_port=19164
./build/tools/djinnd --port 19163 --http-port "$http_port" \
    --models mnist --batching --profile-hz 199 &
djinnd_pid=$!
trap 'kill "$djinnd_pid" 2>/dev/null || true' EXIT

# Put some inference load through the daemon first so the flight
# recorder has records and djinn_request_seconds has exemplar-
# bearing buckets for scrape_check's OpenMetrics and /debug/tail
# checks to validate against.
tries=0
until ./build/tools/djinn_cli --timeout-ms 2000 127.0.0.1 19163 \
    ping > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "check_build: djinnd did not come up" >&2
        exit 1
    fi
    sleep 0.2
done
for _ in 1 2 3 4 5 6 7 8; do
    if ! ./build/tools/djinn_cli 127.0.0.1 19163 infer mnist 4 \
        > /dev/null; then
        echo "check_build: smoke inference FAILED" >&2
        exit 1
    fi
done

if ! ./build/tools/scrape_check 127.0.0.1 "$http_port"; then
    echo "check_build: HTTP scrape smoke test FAILED" >&2
    exit 1
fi

# Tail attribution smoke under that load: the CLI's `tail` verb
# must answer a report naming a dominant contributor.
if ! ./build/tools/djinn_cli 127.0.0.1 19163 tail 90 \
    | grep -q "tail attribution"; then
    echo "check_build: djinn_cli tail smoke FAILED" >&2
    exit 1
fi

# Request log smoke: `metrics requests` is read from the flight
# recorder, so the mnist inferences above must show up as rows.
if ! ./build/tools/djinn_cli 127.0.0.1 19163 metrics requests \
    | grep -q " mnist "; then
    echo "check_build: djinn_cli metrics requests smoke FAILED" >&2
    exit 1
fi

# Live dashboard e2e: `djinn_cli top` must render per-model series
# computed from the daemon's time-series store over the wire. Two
# frames through the non-tty path (plain text, no escape codes).
if ! ./build/tools/djinn_cli --frames 2 --interval-ms 100 \
    127.0.0.1 19163 top | grep -q "djinn top"; then
    echo "check_build: djinn_cli top smoke FAILED" >&2
    exit 1
fi
if ! ./build/tools/djinn_cli --frames 1 127.0.0.1 19163 top \
    | grep -q "mnist"; then
    echo "check_build: djinn_cli top lacks per-model row" >&2
    exit 1
fi
kill "$djinnd_pid" 2>/dev/null || true
wait "$djinnd_pid" 2>/dev/null || true
trap - EXIT

# Adaptive scheduler smoke (DESIGN.md §16): boot a daemon with two
# weighted tenants sharing the mnist weights under --sched adaptive,
# drive load through both instances, then assert the djinn_sched_*
# gauge families show up in the exposition and the `sched` wire verb
# answers with the scheduler state dump.
./build/tools/djinnd --port 19166 --models mnist --batching \
    --sched adaptive --slo-ms 50 \
    --tenant gold=mnist:2 --tenant bronze=mnist:1 &
sched_pid=$!
trap 'kill "$sched_pid" 2>/dev/null || true' EXIT
tries=0
until ./build/tools/djinn_cli --timeout-ms 2000 127.0.0.1 19166 \
    ping > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "check_build: sched djinnd did not come up" >&2
        exit 1
    fi
    sleep 0.2
done
for tenant in gold bronze gold bronze; do
    if ! ./build/tools/djinn_cli 127.0.0.1 19166 infer "$tenant" 4 \
        > /dev/null; then
        echo "check_build: tenant inference ($tenant) FAILED" >&2
        exit 1
    fi
done
if ! ./build/tools/djinn_cli 127.0.0.1 19166 metrics \
    | grep -q '^djinn_sched_'; then
    echo "check_build: metrics lack djinn_sched_* gauges" >&2
    exit 1
fi
if ! ./build/tools/djinn_cli 127.0.0.1 19166 sched \
    | grep -q '"tenant": "gold"'; then
    echo "check_build: sched verb lacks tenant state" >&2
    exit 1
fi
kill "$sched_pid" 2>/dev/null || true
wait "$sched_pid" 2>/dev/null || true
trap - EXIT

# Robustness battery (DESIGN.md §10): fault-injection, timeout,
# retry, backpressure, and drain suites in release mode. The TSan
# stage below re-runs most of them; the fd-exhaustion AcceptLoop
# test runs only here (starving the fd table starves TSan itself).
./build/tests/core_test --gtest_filter=\
'FrameIo*:FaultSpec*:Retry*:Robustness*:AcceptLoop*:HttpTimeout*'

# Fault-injection smoke at the daemon level: DJINN_FAULT must be
# honored from the environment, and slow-read degrades throughput
# without corrupting frames, so the control plane still answers.
DJINN_FAULT=slow-read ./build/tools/djinnd --port 19165 \
    --models mnist &
fault_pid=$!
trap 'kill "$fault_pid" 2>/dev/null || true' EXIT
sleep 1
if ! ./build/tools/djinn_cli 127.0.0.1 19165 list; then
    echo "check_build: fault-injection smoke FAILED" >&2
    exit 1
fi
kill "$fault_pid" 2>/dev/null || true
wait "$fault_pid" 2>/dev/null || true
trap - EXIT

# Cluster-simulator determinism smoke: the same seed must produce
# byte-identical JSON (trace hash, percentiles, time series, and
# the flight-record tail attribution) on repeated runs of the real
# binary, not just inside one process.
cluster_args="--nodes 8 --policy jsq-d --workload mmpp \
    --rate 4000 --duration 5 --seed 42 --json"
./build/tools/cluster_sim $cluster_args > /tmp/djinn_cluster_a.json
./build/tools/cluster_sim $cluster_args > /tmp/djinn_cluster_b.json
if ! cmp -s /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json; then
    echo "check_build: cluster_sim determinism smoke FAILED" >&2
    diff /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json >&2 \
        || true
    exit 1
fi
if ! grep -q djinn_tail_dominant /tmp/djinn_cluster_a.json; then
    echo "check_build: cluster_sim JSON lacks tail attribution" >&2
    exit 1
fi
rm -f /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json

# Throughput-vs-SLO frontier (DESIGN.md §16): the JSON sweep must be
# byte-identical across runs (the adaptive scheduler is clock-free),
# and in text mode the hybrid policy must weakly dominate both the
# batch-only and mt-only baselines at >= 2 of the swept load points.
./build/bench/ablation_colocation --frontier --json \
    > /tmp/djinn_frontier_a.json
./build/bench/ablation_colocation --frontier --json \
    > /tmp/djinn_frontier_b.json
if ! cmp -s /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json; then
    echo "check_build: frontier determinism smoke FAILED" >&2
    diff /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json >&2 \
        || true
    exit 1
fi
rm -f /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json
dominated=$(./build/bench/ablation_colocation --frontier \
    | sed -nE \
    's/.*hybrid weakly dominates both baselines at ([0-9]+) of.*/\1/p')
if [ -z "$dominated" ] || [ "$dominated" -lt 2 ]; then
    echo "check_build: hybrid dominates at ${dominated:-0} load" \
         "points (need >= 2)" >&2
    exit 1
fi

# Perf-regression harness smoke (DESIGN.md §15): two back-to-back
# quick runs of bench_suite must compare clean (the noise-aware
# thresholds absorb run-to-run jitter; the cluster stage is
# bit-identical by construction), and the comparator's built-in
# self-test proves it fails on an injected regression of each
# class.
./build/bench/bench_suite --quick --out /tmp/djinn_bench_a.json
./build/bench/bench_suite --quick --out /tmp/djinn_bench_b.json
if ! ./build/bench/bench_compare /tmp/djinn_bench_a.json \
    /tmp/djinn_bench_b.json; then
    echo "check_build: bench_suite self-comparison FAILED" >&2
    exit 1
fi
if ! ./build/bench/bench_compare --self-test; then
    echo "check_build: bench_compare self-test FAILED" >&2
    exit 1
fi
rm -f /tmp/djinn_bench_a.json /tmp/djinn_bench_b.json

# Quantization battery (DESIGN.md §14), three parts. First the
# microbenchmark's registry snapshot: int8 must actually be faster
# than f32 at the square 512 shape on one thread, or the low-
# precision path has regressed into pointless accuracy loss.
# (--benchmark_filter skips the google-benchmark suites; the GEMM
# rate snapshot always runs.)
./build/bench/microbench_nn --benchmark_filter='^$' \
    > /tmp/djinn_microbench.json
gflops() {
    grep '"djinn_gemm_gflops"' /tmp/djinn_microbench.json \
        | grep '"shape": "square512"' \
        | grep "\"precision\": \"$1\"" \
        | grep '"threads": "1"' \
        | sed -E 's/.*"value": ([0-9.eE+-]+).*/\1/'
}
int8_rate=$(gflops int8)
f32_rate=$(gflops f32)
if [ -z "$int8_rate" ] || [ -z "$f32_rate" ]; then
    echo "check_build: microbench JSON lacks precision-labeled" \
         "djinn_gemm_gflops samples" >&2
    exit 1
fi
if ! awk -v i="$int8_rate" -v f="$f32_rate" \
    'BEGIN { exit !(i + 0 >= f + 0) }'; then
    echo "check_build: int8 512^3 GEMM ($int8_rate GF) slower" \
         "than f32 ($f32_rate GF)" >&2
    exit 1
fi
rm -f /tmp/djinn_microbench.json

# Second, the differential battery and quantization property tests
# under AddressSanitizer + UBSan: the packed kernels index raw
# panel buffers with hand-rolled arithmetic, exactly where a
# fuzzy-but-passing out-of-bounds read would hide. The packed-FC,
# locally connected and packed save/load suites index the in-place
# band layout the same way.
cmake -B build-asan -S . -DDJINN_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j --target nn_test
./build-asan/tests/nn_test --gtest_filter='GemmDiff*:Quant*:PackedFcDiff*:*LocallyConnectedDiff*:SerializeTest.Packed*'

# ThreadSanitizer pass over the concurrency-heavy suites: the
# compute pool, the threaded GEMM kernel, the batching server, the
# request-lifecycle robustness battery, and (forward passes run on
# connection workers) the tracing and cycle-accounting suites.
cmake -B build-tsan -S . -DDJINN_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j --target common_test nn_test zoo_test \
    core_test cluster_test telemetry_test
./build-tsan/tests/common_test \
    --gtest_filter='ThreadPool*:ComputePool*'
# GemmDiff* covers the f32, bf16, and int8 batteries (all three
# run the threaded driver); Quant* rides along for the scalar
# primitives. PackedFcDiff and LocallyConnectedDiff run the tiled
# packed-weight kernels, and the LC suite packs lazily inside
# forward(); Determinism* runs every zoo network, whose passes read
# the packed weights from all pool threads.
./build-tsan/tests/nn_test \
    --gtest_filter='GemmDiff*:Quant*:PackedFcDiff*:*LocallyConnectedDiff*'
./build-tsan/tests/zoo_test --gtest_filter='Determinism*'
./build-tsan/tests/core_test \
    --gtest_filter='*Batcher*:*Server*:*Robustness*:*Retry*:*FrameIo*:*Observability*:*Sched*:TracingTest*:CycleAccounting*:TailE2e*'
# The flight recorder's seqlock ring and the histogram exemplar
# slots are lock-free multi-writer structures; their stress tests
# are only meaningful under TSan.
# TimeSeries/Health ride along: the store's sample path runs on
# the sampler thread while queries and the health monitor read it.
./build-tsan/tests/telemetry_test \
    --gtest_filter='FlightRecorder*:*Exemplar*:TimeSeries*:Health*'
# The cluster simulator is single-threaded by design, but its
# results flow through the lock-free telemetry histograms; the
# determinism and policy suites double as a TSan check of that
# read path.
./build-tsan/tests/cluster_test \
    --gtest_filter='ClusterSim*:Policy*'

echo "check_build: OK"
