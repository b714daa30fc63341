/**
 * @file
 * The forward pass as the batching executor runs it. runForward()
 * wraps Network::forward in a per-thread counter scope and, for a
 * traced pass, profiles every layer and records a `forward` span
 * with one `layer` child per executed layer.
 *
 * CountingProfileSink augments per-layer wall profiles with
 * hardware counter deltas: onLayerStart snapshots the executing
 * thread's perf group, onLayer closes the delta, so a profiled
 * forward pass yields cycles / instructions / IPC / cache misses
 * per layer alongside the usual seconds and FLOPs. Deltas are
 * parallel to profiles() by index. With counters unavailable the
 * deltas degrade to clock-only (hardware == false) and consumers
 * fall back to wall time, exactly like the phase accounting.
 *
 * Counter caveat (DESIGN.md "Cycle accounting"): the perf group
 * counts the thread running the forward pass. Work the compute
 * pool's workers do on behalf of a layer is attributed to the
 * sampling profiler's stacks, not to this sink's deltas — the
 * caller participates in every parallelFor, so the deltas remain a
 * consistent (per-thread) share of each layer's cost.
 */

#ifndef DJINN_CORE_PERF_SINK_HH
#define DJINN_CORE_PERF_SINK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/network.hh"
#include "nn/profile.hh"
#include "nn/tensor.hh"
#include "telemetry/perf_counters.hh"

namespace djinn {
namespace telemetry {
class Tracer;
} // namespace telemetry

namespace core {

/** VectorProfileSink plus per-layer counter deltas. */
class CountingProfileSink : public nn::VectorProfileSink
{
  public:
    void
    onLayerStart(const std::string &, nn::LayerKind) override
    {
        begin_ = telemetry::threadCounterSet().snapshot();
    }

    void
    onLayer(const nn::LayerProfile &profile) override
    {
        deltas_.push_back(telemetry::CounterSet::delta(
            begin_, telemetry::threadCounterSet().snapshot()));
        nn::VectorProfileSink::onLayer(profile);
    }

    /** Counter movement per layer, parallel to profiles(). */
    const std::vector<telemetry::CounterDelta> &
    deltas() const
    {
        return deltas_;
    }

  private:
    telemetry::CounterSet::Snapshot begin_;
    std::vector<telemetry::CounterDelta> deltas_;
};

/** Where a traced forward pass records its spans. */
struct ForwardSpans {
    /** Ring the spans are recorded into. */
    telemetry::Tracer *tracer = nullptr;

    /** Trace the spans belong to. */
    uint64_t traceId = 0;

    /** Parent of the `forward` span. */
    uint64_t parentSpanId = 0;

    /** Extra args on the `forward` span, in order. */
    std::vector<std::pair<std::string, std::string>> args;
};

/** What one forward pass produced. */
struct ForwardPass {
    nn::Tensor output;

    /** The calling thread's counter movement over the pass. */
    telemetry::CounterDelta counters;
};

/**
 * Run @p net on @p input. With @p spans the pass is profiled per
 * layer and recorded, on track `batch-<net name>`, as a `batch`
 * category `forward` span whose `layer` children are
 * laid out sequentially by their measured durations, each carrying
 * `kind`, `flops`, `activation_bytes` and, with hardware counters,
 * `cycles`, `instructions` and `ipc`. Null @p spans runs the pass
 * unprofiled.
 */
ForwardPass runForward(const nn::Network &net, const nn::Tensor &input,
                       const ForwardSpans *spans);

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_PERF_SINK_HH
