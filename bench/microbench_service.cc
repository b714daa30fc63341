/**
 * @file
 * Google-benchmark microbenchmarks for the service machinery: wire
 * protocol encode/decode, the batching executor, the telemetry hot
 * path (histogram record, registry lookup, trace spans), and the
 * discrete-event queue that powers the serving simulator.
 *
 * After the benchmarks run, a short live-service session (real TCP
 * server + clients, batching on), one serving-simulator
 * experiment, and a per-layer forward profile of every zoo model
 * (wall time, FLOPs, and activation bytes per layer, via
 * nn::ProfileSink) are recorded into a telemetry registry, and the
 * merged snapshot is printed as JSON — the format BENCH_*.json
 * trajectories capture.
 */

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "core/batcher.hh"
#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "core/perf_sink.hh"
#include "core/protocol.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "nn/profile.hh"
#include "nn/zoo.hh"
#include "serve/telemetry.hh"
#include "sim/event_queue.hh"
#include "telemetry/exposition.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/trace.hh"

using namespace djinn;

namespace {

void
BM_EncodeRequest(benchmark::State &state)
{
    core::Request request;
    request.type = core::RequestType::Inference;
    request.model = "senna_pos";
    request.rows = 28;
    request.payload.assign(28 * 250, 0.5f);
    for (auto _ : state) {
        auto bytes = core::encodeRequest(request);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(request.payload.size() * 4));
}

BENCHMARK(BM_EncodeRequest)->Unit(benchmark::kMicrosecond);

void
BM_DecodeRequest(benchmark::State &state)
{
    core::Request request;
    request.type = core::RequestType::Inference;
    request.model = "senna_pos";
    request.rows = 28;
    request.payload.assign(28 * 250, 0.5f);
    auto bytes = core::encodeRequest(request);
    for (auto _ : state) {
        auto decoded = core::decodeRequest(bytes);
        benchmark::DoNotOptimize(&decoded);
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(bytes.size()));
}

BENCHMARK(BM_DecodeRequest)->Unit(benchmark::kMicrosecond);

void
BM_BatcherThroughput(benchmark::State &state)
{
    core::ModelRegistry registry;
    auto net = nn::parseNetDefOrDie(
        "name tiny\ninput 1 4 4\nlayer fc fc out 8\n");
    nn::initializeWeights(*net, 3);
    (void)registry.add(std::move(net));
    core::BatchOptions options;
    options.maxQueries = static_cast<int64_t>(state.range(0));
    options.maxDelay = 100e-6;
    core::BatchingExecutor executor(registry, options);

    std::vector<float> payload(16, 0.5f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(executor.submit("tiny", 1, payload));
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_BatcherThroughput)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void
BM_FlightRecorderRecord(benchmark::State &state)
{
    // Per-request cost of the always-on flight recorder (ring
    // publish + reservoir threshold check): must stay far below 1%
    // of even a trivial request's service time.
    telemetry::FlightRecorder recorder(4096, 256);
    telemetry::FlightRecord record;
    record.setModel("tiny");
    record.forwardSeconds = 50e-6;
    uint64_t i = 0;
    for (auto _ : state) {
        record.traceId = ++i;
        record.totalSeconds = 1e-4 + 1e-9 * double(i % 1000);
        benchmark::DoNotOptimize(recorder.record(record));
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_FlightRecorderRecord);

void
BM_HistogramRecordWithExemplar(benchmark::State &state)
{
    telemetry::HistogramOptions options;
    options.exemplars = true;
    telemetry::LogHistogram hist(options);
    double v = 1e-6;
    uint64_t i = 0;
    for (auto _ : state) {
        ++i;
        hist.record(v, i, i);
        v = v < 1.0 ? v * 1.7 : 1e-6;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HistogramRecordWithExemplar);

void
BM_EventQueueChurn(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int fired = 0;
        for (int i = 0; i < 1000; ++i) {
            eq.scheduleAt(static_cast<double>(i % 37),
                          [&fired]() { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}

BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMicrosecond);

void
BM_HistogramRecord(benchmark::State &state)
{
    telemetry::LogHistogram hist;
    double v = 1e-6;
    for (auto _ : state) {
        hist.record(v);
        v = v < 1.0 ? v * 1.7 : 1e-6;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HistogramRecord);

void
BM_RegistryCounterHot(benchmark::State &state)
{
    telemetry::MetricRegistry registry;
    // The hot path caches the reference; only the first call pays
    // the lookup mutex.
    telemetry::Counter &counter =
        registry.counter("bench_total", {{"model", "tiny"}});
    for (auto _ : state)
        counter.inc();
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_RegistryCounterHot);

void
BM_RegistryCounterLookup(benchmark::State &state)
{
    telemetry::MetricRegistry registry;
    for (auto _ : state)
        registry.counter("bench_total", {{"model", "tiny"}}).inc();
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_RegistryCounterLookup);

void
BM_TraceSpan(benchmark::State &state)
{
    telemetry::MetricRegistry registry;
    telemetry::RequestTrace trace(registry, "tiny");
    for (auto _ : state) {
        auto span = trace.span(telemetry::Phase::Forward);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TraceSpan);

/**
 * Drive a real loopback DjiNN server with batching on, then return
 * its telemetry snapshot: per-model counters plus decode /
 * queue-wait / forward / encode histograms.
 */
std::vector<telemetry::MetricSample>
liveServiceSnapshot()
{
    core::ModelRegistry registry;
    auto net = nn::parseNetDefOrDie(
        "name tiny\ninput 1 4 4\nlayer fc fc out 8\n");
    nn::initializeWeights(*net, 3);
    (void)registry.add(std::move(net));

    core::ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 8;
    config.batchOptions.maxDelay = 200e-6;
    core::DjinnServer server(registry, config);
    if (!server.start().isOk())
        return {};

    constexpr int threads = 4;
    constexpr int per_thread = 64;
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&server]() {
            core::DjinnClient client;
            if (!client.connect("127.0.0.1", server.port()).isOk())
                return;
            std::vector<float> payload(16, 0.5f);
            for (int i = 0; i < per_thread; ++i)
                (void)client.infer("tiny", 1, payload);
        });
    }
    for (auto &c : clients)
        c.join();
    server.stop();
    return server.metrics().snapshot();
}

/**
 * One profiled single-row forward pass per zoo model, recorded as
 * per-layer gauges: djinn_layer_forward_seconds, djinn_layer_flops,
 * and djinn_layer_activation_bytes, labeled {model, layer, kind}.
 * With hardware counters available the cycle-accounting columns
 * ride along — djinn_layer_cycles always (wall nanoseconds in the
 * clock-only fallback, like djinn_phase_cycles), plus
 * djinn_layer_instructions and djinn_layer_ipc when real.
 */
void
recordZooLayerProfiles(telemetry::MetricRegistry &registry)
{
    registry.gauge(telemetry::perfAvailableMetricName)
        .set(telemetry::perfCountersAvailable() ? 1.0 : 0.0);
    for (nn::zoo::Model model : nn::zoo::allModels()) {
        nn::NetworkPtr net = nn::zoo::build(model, 42);
        nn::Tensor input(net->inputShape().withBatch(1));
        for (int64_t i = 0; i < input.elems(); ++i)
            input.data()[i] = 0.25f;

        core::CountingProfileSink sink;
        (void)net->forward(input, &sink);

        const std::string name = nn::zoo::modelName(model);
        for (size_t i = 0; i < sink.profiles().size(); ++i) {
            const nn::LayerProfile &p = sink.profiles()[i];
            telemetry::LabelMap labels{
                {"model", name},
                {"layer", p.name},
                {"kind", nn::layerKindName(p.kind)}};
            registry.gauge("djinn_layer_forward_seconds", labels)
                .set(p.seconds);
            registry.gauge("djinn_layer_flops", labels)
                .set(static_cast<double>(p.flops));
            registry.gauge("djinn_layer_activation_bytes", labels)
                .set(static_cast<double>(p.activationBytes));
            if (i >= sink.deltas().size())
                continue;
            const telemetry::CounterDelta &d = sink.deltas()[i];
            registry.gauge("djinn_layer_cycles", labels)
                .set(static_cast<double>(d.work()));
            if (d.hardware) {
                registry.gauge("djinn_layer_instructions", labels)
                    .set(static_cast<double>(d.instructions));
                registry.gauge("djinn_layer_ipc", labels)
                    .set(d.ipc());
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Registry snapshot emission: live service path + one simulated
    // experiment, merged into one JSON document on stdout.
    std::vector<telemetry::MetricSample> samples =
        liveServiceSnapshot();

    telemetry::MetricRegistry sim_registry;
    serve::SimConfig sim;
    sim.batch = 16;
    sim.warmupTime = 0.05;
    sim.measureTime = 0.25;
    serve::recordSimResult(sim_registry, "batch=16,1gpu", sim,
                           serve::runServingSim(sim));
    for (auto &sample : sim_registry.snapshot())
        samples.push_back(std::move(sample));

    telemetry::MetricRegistry layer_registry;
    recordZooLayerProfiles(layer_registry);
    for (auto &sample : layer_registry.snapshot())
        samples.push_back(std::move(sample));

    std::fputs(telemetry::renderJson(samples).c_str(), stdout);
    return 0;
}
