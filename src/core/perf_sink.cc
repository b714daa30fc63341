#include "core/perf_sink.hh"

#include "common/logging.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

namespace {

std::string
u64(uint64_t value)
{
    return strprintf("%llu", static_cast<unsigned long long>(value));
}

} // namespace

ForwardPass
runForward(const nn::Network &net, const nn::Tensor &input,
           const ForwardSpans *spans)
{
    ForwardPass pass;
    CountingProfileSink profile;
    int64_t start_us = spans ? telemetry::traceNowUs() : 0;
    telemetry::CounterScope scope;
    pass.output = net.forward(input, spans ? &profile : nullptr);
    pass.counters = scope.stop();
    if (!spans)
        return pass;

    telemetry::Tracer &tracer = *spans->tracer;
    const std::string track = "batch-" + net.name();
    uint64_t fwd_span = tracer.nextSpanId();
    telemetry::TraceEvent fwd;
    fwd.name = "forward";
    fwd.category = "batch";
    fwd.track = track;
    fwd.traceId = spans->traceId;
    fwd.spanId = fwd_span;
    fwd.parentSpanId = spans->parentSpanId;
    fwd.startUs = start_us;
    fwd.durationUs = telemetry::traceNowUs() - start_us;
    fwd.args = spans->args;
    tracer.record(std::move(fwd));

    // Lay the per-layer spans out sequentially under the forward
    // span using their measured durations.
    int64_t layer_start = start_us;
    for (size_t i = 0; i < profile.profiles().size(); ++i) {
        const nn::LayerProfile &lp = profile.profiles()[i];
        telemetry::TraceEvent e;
        e.name = lp.name;
        e.category = "layer";
        e.track = track;
        e.traceId = spans->traceId;
        e.spanId = tracer.nextSpanId();
        e.parentSpanId = fwd_span;
        e.startUs = layer_start;
        e.durationUs = static_cast<int64_t>(lp.seconds * 1e6);
        e.args.emplace_back("kind", nn::layerKindName(lp.kind));
        e.args.emplace_back("flops", u64(lp.flops));
        e.args.emplace_back("activation_bytes",
                            u64(lp.activationBytes));
        if (i < profile.deltas().size() &&
            profile.deltas()[i].hardware) {
            const telemetry::CounterDelta &d = profile.deltas()[i];
            e.args.emplace_back("cycles", u64(d.cycles));
            e.args.emplace_back("instructions", u64(d.instructions));
            e.args.emplace_back("ipc", strprintf("%.3f", d.ipc()));
        }
        layer_start += e.durationUs;
        tracer.record(std::move(e));
    }
    return pass;
}

} // namespace core
} // namespace djinn
