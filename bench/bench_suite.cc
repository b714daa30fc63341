/**
 * @file
 * bench_suite - the unified perf-regression runner (DESIGN.md §15).
 *
 * Executes the three measurement stages the BENCH_*.json
 * trajectories track, with fixed seeds, and emits one
 * schema-versioned JSON document:
 *
 *   1. GEMM kernels at DNN-relevant shapes, per precision
 *      (f32/bf16/int8) and compute-thread count, plus the served
 *      fully connected layers at their serving batch, timed through
 *      the f32 layer's packed-weight path (precision "f32_packed")
 *        -> djinn_bench_gemm_gflops{shape,precision,threads}
 *   2. A live loopback batching server (tiny model, real TCP) at
 *      batch sizes 1/16/64, quantiled from the same
 *      djinn_request_seconds histogram production scrapes read
 *        -> djinn_bench_service_seconds{batch,stat=p50|p99}
 *   3. Deterministic cluster-simulator experiments per routing
 *      policy (flat service model, fixed trace seed) — bit-exact
 *      across runs, so compare uses a zero-noise threshold
 *        -> djinn_bench_cluster_latency_seconds{policy,stat}
 *           djinn_bench_cluster_shed_fraction{policy}
 *           djinn_bench_cluster_throughput_qps{policy}
 *
 * Usage:
 *   bench_suite [--quick] [--seed N] [--out FILE]
 *
 * --quick shrinks shapes, repetitions, and client counts so CI can
 * afford two back-to-back runs; the emitted schema is identical.
 * Output is `{"bench_schema": 1, "quick": ..., "seed": ...,
 * "samples": [{"id": ..., "value": ...}, ...]}` with samples in a
 * fixed stage order. Feed two outputs to bench_compare to gate
 * regressions.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/simulator.hh"
#include "cluster/telemetry.hh"
#include "cluster/workload.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "nn/gemm.hh"
#include "nn/init.hh"
#include "nn/layers/inner_product.hh"
#include "nn/net_def.hh"
#include "nn/quant.hh"
#include "telemetry/exposition.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"

using namespace djinn;

namespace {

struct SuiteSample {
    std::string id;
    double value = 0.0;
};

struct SuiteConfig {
    bool quick = false;
    uint64_t seed = 42;
    std::string outPath; // empty = stdout
};

void
emitSample(std::vector<SuiteSample> &out, const char *name,
           const telemetry::LabelMap &labels, double value)
{
    out.push_back({telemetry::renderMetricId(name, labels), value});
}

std::vector<float>
randomVec(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(static_cast<size_t>(n));
    for (auto &v : out)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return out;
}

/** Best-of-@p reps wall seconds for one invocation of @p fn. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best)
            best = s;
    }
    return best;
}

// ---------------------------------------------------------------
// Stage 1: GEMM kernel rates.

struct GemmShape {
    const char *name;
    int64_t m, n, k;
};

void
runGemmStage(const SuiteConfig &config,
             std::vector<SuiteSample> &out)
{
    const std::vector<GemmShape> shapes =
        config.quick
            ? std::vector<GemmShape>{{"senna_fc1", 28, 600, 250},
                                     {"square256", 256, 256, 256}}
            : std::vector<GemmShape>{{"senna_fc1", 28, 600, 250},
                                     {"kaldi_hidden", 64, 2048,
                                      2048},
                                     {"alexnet_fc6", 16, 4096,
                                      9216},
                                     {"square512", 512, 512, 512}};
    const std::vector<int> threadCounts =
        config.quick ? std::vector<int>{1, 4}
                     : std::vector<int>{1, 2, 4, 8};
    const int reps = config.quick ? 3 : 5;

    for (const GemmShape &shape : shapes) {
        auto a = randomVec(shape.m * shape.k, config.seed + 11);
        auto b = randomVec(shape.k * shape.n, config.seed + 12);
        std::vector<float> c(
            static_cast<size_t>(shape.m * shape.n));
        const double flops =
            2.0 * shape.m * shape.n * static_cast<double>(shape.k);

        // int8 operands: weights pre-quantized per output column,
        // activations quantized inside the timed call — the serving
        // cost split (DESIGN.md §14).
        std::vector<int8_t> b8(b.size());
        std::vector<float> b_scales(static_cast<size_t>(shape.n));
        for (int64_t j = 0; j < shape.n; ++j) {
            float col_max = 0.0f;
            for (int64_t p = 0; p < shape.k; ++p)
                col_max = std::max(col_max,
                                   std::fabs(b[p * shape.n + j]));
            nn::QuantParams wq =
                nn::QuantParams::symmetricS8(col_max);
            b_scales[static_cast<size_t>(j)] = wq.scale;
            for (int64_t p = 0; p < shape.k; ++p)
                b8[p * shape.n + j] = static_cast<int8_t>(
                    wq.quantize(b[p * shape.n + j]));
        }
        float a_lo, a_hi;
        nn::minMax(a.data(), static_cast<int64_t>(a.size()), &a_lo,
                   &a_hi);
        nn::QuantParams aq = nn::QuantParams::affineU8(a_lo, a_hi);

        struct PrecisionRun {
            const char *name;
            std::function<void()> run;
        };
        const PrecisionRun runs[] = {
            {"f32",
             [&]() {
                 nn::sgemm(shape.m, shape.n, shape.k, a.data(),
                           b.data(), c.data());
             }},
            {"bf16",
             [&]() {
                 nn::gemm_bf16(nn::Trans::No, nn::Trans::No,
                               shape.m, shape.n, shape.k, 1.0f,
                               a.data(), shape.k, b.data(), shape.n,
                               0.0f, c.data(), shape.n);
             }},
            {"int8",
             [&]() {
                 nn::gemm_s8(nn::Trans::No, nn::Trans::No, shape.m,
                             shape.n, shape.k, 1.0f, a.data(),
                             shape.k, aq, b8.data(), shape.n,
                             b_scales.data(), 0.0f, c.data(),
                             shape.n);
             }},
        };
        for (const PrecisionRun &pr : runs) {
            for (int threads : threadCounts) {
                common::setComputeThreads(threads);
                pr.run(); // warm the pool and pack buffers
                double secs = bestSeconds(reps, pr.run);
                emitSample(out, "djinn_bench_gemm_gflops",
                           {{"precision", pr.name},
                            {"shape", shape.name},
                            {"threads", std::to_string(threads)}},
                           flops / secs / 1e9);
            }
            common::setComputeThreads(0);
        }
    }
}

/**
 * The zoo's weight-streaming FC layers at the batch they are served
 * at (vision: one image; Kaldi: one ~300-frame utterance), run
 * through InnerProductLayer::forward on packed weights.
 */
void
runPackedFcStage(const SuiteConfig &config,
                 std::vector<SuiteSample> &out)
{
    const std::vector<GemmShape> shapes =
        config.quick
            ? std::vector<GemmShape>{{"alexnet_fc8_b1", 1, 1000, 4096}}
            : std::vector<GemmShape>{
                  {"alexnet_fc6_b1", 1, 4096, 9216},
                  {"alexnet_fc7_b1", 1, 4096, 4096},
                  {"alexnet_fc8_b1", 1, 1000, 4096},
                  {"deepface_f7_b1", 1, 4096, 7056},
                  {"kaldi_fc_b298", 298, 2048, 2048}};
    const std::vector<int> threadCounts =
        config.quick ? std::vector<int>{1, 4}
                     : std::vector<int>{1, 2, 4, 8};
    const int reps = config.quick ? 3 : 5;

    for (const GemmShape &shape : shapes) {
        nn::InnerProductLayer fc(shape.name, shape.n);
        fc.setup(nn::Shape(1, shape.k));
        std::vector<nn::Tensor *> params = fc.params();
        auto w = randomVec(shape.n * shape.k, config.seed + 13);
        std::copy(w.begin(), w.end(), params[0]->data());
        fc.packWeights();
        nn::Tensor in(nn::Shape(shape.m, shape.k));
        auto x = randomVec(shape.m * shape.k, config.seed + 14);
        std::copy(x.begin(), x.end(), in.data());
        nn::Tensor y;
        const double flops =
            2.0 * shape.m * shape.n * static_cast<double>(shape.k);
        for (int threads : threadCounts) {
            common::setComputeThreads(threads);
            fc.forward(in, y); // warm the pool and caches
            double secs =
                bestSeconds(reps, [&]() { fc.forward(in, y); });
            emitSample(out, "djinn_bench_gemm_gflops",
                       {{"precision", "f32_packed"},
                        {"shape", shape.name},
                        {"threads", std::to_string(threads)}},
                       flops / secs / 1e9);
        }
        common::setComputeThreads(0);
    }
}

// ---------------------------------------------------------------
// Stage 2: live loopback service latency per batch size.

void
runServiceStage(const SuiteConfig &config,
                std::vector<SuiteSample> &out)
{
    const int threads = config.quick ? 2 : 4;
    const int perThread = config.quick ? 32 : 64;

    for (int64_t batch : {int64_t{1}, int64_t{16}, int64_t{64}}) {
        core::ModelRegistry registry;
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 4 4\nlayer fc fc out 8\n");
        nn::initializeWeights(*net, config.seed);
        (void)registry.add(std::move(net));

        core::ServerConfig server_config;
        server_config.batching = true;
        server_config.batchOptions.maxQueries = batch;
        server_config.batchOptions.maxDelay = 200e-6;
        core::DjinnServer server(registry, server_config);
        if (!server.start().isOk()) {
            std::fprintf(stderr,
                         "bench_suite: cannot start loopback "
                         "server (batch %lld)\n",
                         static_cast<long long>(batch));
            continue;
        }

        std::vector<std::thread> clients;
        for (int t = 0; t < threads; ++t) {
            clients.emplace_back([&server, perThread]() {
                core::DjinnClient client;
                if (!client.connect("127.0.0.1", server.port())
                         .isOk())
                    return;
                std::vector<float> payload(16, 0.5f);
                for (int i = 0; i < perThread; ++i)
                    (void)client.infer("tiny", 1, payload);
            });
        }
        for (auto &c : clients)
            c.join();
        server.stop();

        for (const telemetry::MetricSample &sample :
             server.metrics().snapshot()) {
            if (sample.name != telemetry::requestSecondsMetricName)
                continue;
            if (sample.kind != telemetry::MetricKind::Histogram)
                continue;
            telemetry::LabelMap labels{
                {"batch", std::to_string(batch)}};
            labels["stat"] = "p50";
            emitSample(out, "djinn_bench_service_seconds", labels,
                       sample.histogram.quantile(0.50));
            labels["stat"] = "p99";
            emitSample(out, "djinn_bench_service_seconds", labels,
                       sample.histogram.quantile(0.99));
            break;
        }
    }
}

// ---------------------------------------------------------------
// Stage 3: deterministic cluster-simulator ablations.

void
runClusterStage(const SuiteConfig &config,
                std::vector<SuiteSample> &out)
{
    cluster::WorkloadSpec spec;
    spec.apps = {serve::App::IMC, serve::App::DIG, serve::App::ASR};
    spec.process = cluster::ArrivalProcess::Poisson;
    spec.meanRate = config.quick ? 2000.0 : 4000.0;
    spec.durationSeconds = config.quick ? 3.0 : 6.0;
    spec.seed = config.seed;
    cluster::ClusterTrace trace = cluster::generateTrace(spec);

    for (cluster::RoutePolicy policy :
         {cluster::RoutePolicy::RoundRobin,
          cluster::RoutePolicy::JoinShortestQueue,
          cluster::RoutePolicy::DeadlineJsq}) {
        cluster::ClusterConfig cc;
        cc.nodeCount = 4;
        cc.node.gpus = 1;
        cc.node.maxBatch = 4;
        cc.node.batchTimeout = 1e-3;
        cc.policy = policy;
        cc.sampleInterval = 0.1;
        cc.deadlineSeconds =
            policy == cluster::RoutePolicy::DeadlineJsq ? 0.05
                                                        : 0.0;
        // Flat 1 ms/query service model: no calibration tables in
        // the loop, so the whole stage is pure virtual time and
        // bit-identical across runs and hosts.
        cc.serviceModel = [](serve::App, int64_t queries) {
            return static_cast<double>(queries) * 1e-3;
        };
        cc.seed = config.seed;
        cluster::ClusterResult result =
            cluster::runClusterSim(cc, trace);

        const telemetry::LabelMap base{
            {"policy", cluster::routePolicyName(policy)}};
        telemetry::LabelMap labels = base;
        labels["stat"] = "p50";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p50);
        labels["stat"] = "p99";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p99);
        emitSample(out, "djinn_bench_cluster_shed_fraction", base,
                   result.offered
                       ? static_cast<double>(result.shedOverload +
                                             result.shedDeadline) /
                             static_cast<double>(result.offered)
                       : 0.0);
        emitSample(out, "djinn_bench_cluster_throughput_qps", base,
                   result.throughputQps);
    }

    // The hybrid node-local dispatch policy (DESIGN.md §16):
    // SLO-driven adaptive batch sizing plus weighted fair sharing
    // across tenants, replayed over the same trace. Pure virtual
    // time like the stages above, so bench_compare guards these
    // numbers at zero noise.
    {
        cluster::ClusterConfig cc;
        cc.nodeCount = 4;
        cc.node.gpus = 1;
        cc.node.maxBatch = 4;
        cc.node.batchTimeout = 1e-3;
        cc.policy = cluster::RoutePolicy::JoinShortestQueue;
        cc.sampleInterval = 0.1;
        cc.deadlineSeconds = 0.05;
        cc.node.sloSeconds = cc.deadlineSeconds;
        cc.node.adaptiveBatch = true;
        cc.node.fairShare = true;
        cc.node.tenantWeights["IMC"] = 2.0;
        cc.serviceModel = [](serve::App, int64_t queries) {
            return static_cast<double>(queries) * 1e-3;
        };
        cc.seed = config.seed;
        cluster::ClusterResult result =
            cluster::runClusterSim(cc, trace);

        const telemetry::LabelMap base{{"policy", "hybrid"}};
        telemetry::LabelMap labels = base;
        labels["stat"] = "p50";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p50);
        labels["stat"] = "p99";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p99);
        emitSample(out, "djinn_bench_cluster_shed_fraction", base,
                   result.offered
                       ? static_cast<double>(result.shedOverload +
                                             result.shedDeadline) /
                             static_cast<double>(result.offered)
                       : 0.0);
        emitSample(out, "djinn_bench_cluster_throughput_qps", base,
                   result.throughputQps);
    }
}

std::string
renderSuiteJson(const SuiteConfig &config,
                const std::vector<SuiteSample> &samples)
{
    std::string out = "{\n  \"bench_schema\": 1,\n";
    out += config.quick ? "  \"quick\": true,\n"
                        : "  \"quick\": false,\n";
    out += "  \"seed\": " + std::to_string(config.seed) + ",\n";
    out += "  \"samples\": [\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.9g",
                      samples[i].value);
        out += "    {\"id\": \"" +
               telemetry::jsonEscape(samples[i].id) +
               "\", \"value\": " + value + "}";
        out += i + 1 < samples.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_suite [--quick] [--seed N] [--out FILE]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteConfig config;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            config.quick = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--out" && i + 1 < argc) {
            config.outPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    std::vector<SuiteSample> samples;
    std::fprintf(stderr, "bench_suite: gemm stage...\n");
    runGemmStage(config, samples);
    runPackedFcStage(config, samples);
    std::fprintf(stderr, "bench_suite: service stage...\n");
    runServiceStage(config, samples);
    std::fprintf(stderr, "bench_suite: cluster stage...\n");
    runClusterStage(config, samples);

    std::string json = renderSuiteJson(config, samples);
    if (config.outPath.empty()) {
        std::fputs(json.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(config.outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     config.outPath.c_str());
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench_suite: wrote %zu samples to %s\n",
                 samples.size(), config.outPath.c_str());
    return 0;
}
