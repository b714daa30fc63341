/**
 * @file
 * Server-side query batching (paper Section 5.1): queries for the
 * same model are stacked into one larger input matrix so a single
 * forward pass serves many queries, raising accelerator occupancy.
 */

#ifndef DJINN_CORE_BATCHER_HH
#define DJINN_CORE_BATCHER_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hh"
#include "core/model_registry.hh"
#include "telemetry/metrics.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {
class Tracer;
} // namespace telemetry
} // namespace djinn

namespace djinn {
namespace core {

/** Batching policy. */
struct BatchOptions {
    /** Combine at most this many queries per forward pass. */
    int64_t maxQueries = 16;

    /**
     * Dispatch a partial batch after this long, so a lone query is
     * never stranded waiting for peers. Seconds.
     */
    double maxDelay = 2e-3;

    /**
     * Admission control: cap on queued queries per model. A submit
     * against a full queue is rejected immediately with an
     * Overloaded status instead of growing the queue without
     * bound. 0 derives the cap as 4 x maxQueries.
     */
    int64_t maxQueueDepth = 0;

    /**
     * The per-model queue cap when the live dispatch target is
     * @p currentBatch queries. An explicit maxQueueDepth always
     * wins; otherwise the cap tracks the *current* batch size —
     * not the static maxQueries — so an adaptive scheduler that
     * shrinks the batch also tightens admission instead of letting
     * the queue grow to a stale, larger cap. Floored at one
     * minimum batch's worth of slack.
     */
    int64_t
    queueDepthCapFor(int64_t currentBatch) const
    {
        if (maxQueueDepth > 0)
            return maxQueueDepth;
        return 4 * std::max<int64_t>(currentBatch, 1);
    }

    /** The queue cap at the static configured batch size. */
    int64_t
    queueDepthCap() const
    {
        return queueDepthCapFor(maxQueries);
    }
};

/** Result of one batched query. */
struct InferenceResult {
    Status status;
    std::vector<float> output;

    /** Total rows of the combined forward pass that served this
     * query (>= the query's own rows when batching took effect). */
    int64_t batchRows = 0;

    /** Queries combined into the serving batch. */
    int64_t batchQueries = 0;

    /** This query's position within the serving batch. */
    int64_t batchPosition = 0;

    /** Queue depth observed at enqueue, before this query joined
     * (sampled per request, so bursts shorter than the background
     * sampler interval still show in tail attribution). */
    int64_t admitQueueDepth = 0;

    /** Seconds this query waited between enqueue and dispatch. */
    double queueWaitSeconds = 0.0;

    /** Seconds of the combined forward pass that served it. */
    double forwardSeconds = 0.0;

    /** Counter movement of the passes this caller led while it
     * waited. The executor already charged it to `forward`, so a
     * caller timing its wait subtracts it. */
    telemetry::CounterDelta ledCounters{};
};

/**
 * Batches inference requests per model and runs the combined
 * forward passes on the callers' own threads (leader/follower; see
 * DESIGN.md §7). Thread-safe. A caller that finds a free leader
 * slot leads one pass over the front of its model's queue, and
 * leads again only while its own query is still queued; every
 * queued query's caller is either leading or waiting for a slot.
 * With maxQueries > 1 a model has one leader at a time; with
 * maxQueries == 1 batching cannot happen, so every caller leads its
 * own pass at once.
 */
class BatchingExecutor
{
  public:
    /**
     * @param registry the shared model registry.
     * @param options batching policy.
     * @param metrics optional telemetry destination; when set, the
     *        executor records per-model queue-wait and forward-pass
     *        histograms, per-pass batch sizes, and the live queue
     *        depth. Must outlive the executor.
     */
    BatchingExecutor(const ModelRegistry &registry,
                     const BatchOptions &options,
                     telemetry::MetricRegistry *metrics = nullptr);

    BatchingExecutor(const BatchingExecutor &) = delete;
    BatchingExecutor &operator=(const BatchingExecutor &) = delete;

    /**
     * Absolute per-query deadline on the steady clock; max() means
     * no deadline.
     */
    using Deadline = std::chrono::steady_clock::time_point;

    /** The no-deadline sentinel. */
    static constexpr Deadline
    noDeadline()
    {
        return Deadline::max();
    }

    /**
     * Run one query: @p rows inputs for @p model, flattened into
     * @p data (rows x sample elements). Blocks until the query is
     * answered; the caller may lead passes for other queries while
     * it waits, and @p data is read in place.
     *
     * Admission control applies: a submit against a full queue
     * returns at once with an Overloaded status (the query is
     * never executed). A query whose @p deadline has passed when
     * its batch is assembled is shed before the forward pass with
     * a DeadlineExceeded status. When @p trace is valid and a
     * tracer is attached, the leader emits queue-wait,
     * forward-pass, and per-layer spans linked back to @p trace
     * under @p parent_span (the server-side request span).
     */
    InferenceResult submit(const std::string &model, int64_t rows,
                           const std::vector<float> &data,
                           Deadline deadline = noDeadline(),
                           const telemetry::TraceContext &trace = {},
                           uint64_t parent_span = 0);

    /**
     * Attach a span destination. Call before serving traffic; the
     * tracer must outlive the executor.
     */
    void setTracer(telemetry::Tracer *tracer) { tracer_ = tracer; }

    /**
     * May @p model dispatch a batch right now? A leader whose gate
     * answers false parks (rechecking every millisecond and on
     * queue activity) with its queue intact — the fair-share
     * scheduler's deficit accounting hook. Called without the
     * queue lock, possibly by several leaders at once. Call before
     * serving traffic.
     */
    using DispatchGate = std::function<bool(const std::string &)>;
    void setDispatchGate(DispatchGate gate)
    {
        gate_ = std::move(gate);
    }

    /**
     * Called after every combined forward pass with the model, the
     * number of queries served, and the pass's service seconds —
     * the scheduler's service-time calibration and dispatch-charge
     * hook. Runs on the leader's thread; call before serving
     * traffic.
     */
    using BatchObserver = std::function<void(
        const std::string &, int64_t, double)>;
    void setBatchObserver(BatchObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Set @p model's live dispatch target (clamped to
     * [1, maxQueries]). Leaders assemble batches toward
     * the target instead of the static maxQueries, the admission
     * cap re-derives from it, and occupancy is reported against
     * it. Safe to call at any time; targets for models with no
     * queue yet apply when the queue is created.
     */
    void setBatchTarget(const std::string &model, int64_t target);

    /** The live dispatch target for @p model. */
    int64_t batchTarget(const std::string &model) const;

    /** Queries currently queued for @p model (0 when it has no
     * queue), for the scheduler's backlog-aware latency
     * prediction. */
    int64_t queueDepth(const std::string &model) const;

    /** Number of combined forward passes executed so far. */
    uint64_t batchesExecuted() const;

    /** Number of queries served so far. */
    uint64_t queriesServed() const;

    /** Queries rejected at enqueue because the queue was full. */
    uint64_t
    queueFullSheds() const
    {
        return shedQueueFull_.load(std::memory_order_relaxed);
    }

    /** Queries shed at dequeue because their deadline expired. */
    uint64_t
    deadlineSheds() const
    {
        return shedDeadline_.load(std::memory_order_relaxed);
    }

    /**
     * Queries currently queued across every model, for the
     * background sampler's `djinn_batch_queue_depth_total` gauge.
     * Maintained atomically on the submit/dispatch path so reading
     * it never takes a queue mutex.
     */
    int64_t
    queueDepthTotal() const
    {
        return pendingTotal_.load(std::memory_order_relaxed);
    }

  private:
    /** One caller's query; lives on the caller's stack. */
    struct Pending {
        int64_t rows;
        const std::vector<float> &data;
        std::chrono::steady_clock::time_point enqueued;

        /** Originating trace; invalid for untraced queries. */
        telemetry::TraceContext trace;

        /** Server-side request span the batch spans hang off. */
        uint64_t parentSpan = 0;

        /** Enqueue time on the tracer timeline (microseconds). */
        int64_t enqueuedUs = 0;

        /** Absolute deadline; max() when the query has none. */
        Deadline deadline = Deadline::max();

        /** Queue depth seen at enqueue, before this query joined. */
        int64_t admitDepth = 0;

        /** Dequeued by a leader, then answered (guarded by the
         * queue mutex). */
        enum State { Queued, Taken, Done } state = Queued;

        /** Written by the leader that serves or sheds the query. */
        InferenceResult result{};
    };

    struct ModelQueue {
        std::mutex mutex;

        /** Signalled on every enqueue, retarget and finished
         * pass: a leader waits on it for peers, a caller for its
         * answer or a free leader slot. */
        std::condition_variable cv;
        std::vector<Pending *> pending;

        /** Callers leading a pass right now. */
        int64_t leaders = 0;
        /** The served model name — the registry key, which for a
         * tenant instance differs from network->name() (instances
         * share the base network's weights; see
         * ModelRegistry::addInstance). The scheduler gate and
         * batch observer key on this, so per-tenant accounting
         * stays per-instance. */
        std::string name;
        std::shared_ptr<const nn::Network> network;

        /** Live dispatch target in [1, maxQueries]; atomic so the
         * scheduler can retarget without the queue mutex. */
        std::atomic<int64_t> target{1};

        // Cached telemetry instruments (null when telemetry is
        // off); resolved once at queue creation so the hot path
        // never takes the registry lookup mutex.
        telemetry::LogHistogram *queueWaitHist = nullptr;
        telemetry::LogHistogram *forwardHist = nullptr;
        telemetry::LogHistogram *batchRowsHist = nullptr;
        telemetry::LogHistogram *admitDepthHist = nullptr;
        telemetry::Gauge *depthGauge = nullptr;
        telemetry::Gauge *occupancyGauge = nullptr;
        telemetry::Counter *batchesCounter = nullptr;

        // Cycle accounting for the pass's forward phase, recorded
        // on the leader's thread (the thread that burns the
        // cycles; see DESIGN.md "Cycle accounting").
        telemetry::LogHistogram *forwardCyclesHist = nullptr;
        telemetry::LogHistogram *forwardInstructionsHist = nullptr;
        telemetry::LogHistogram *forwardIpcHist = nullptr;
        telemetry::LogHistogram *forwardCacheMissHist = nullptr;

        // Shed accounting (djinn_shed_total{model,reason}).
        telemetry::Counter *shedQueueFullCounter = nullptr;
        telemetry::Counter *shedDeadlineCounter = nullptr;
    };

    /**
     * Lead one pass over @p queue's front and answer every query it
     * takes; called and returns with @p lock held. Returns the
     * pass's counter movement (zero when no pass ran).
     */
    telemetry::CounterDelta lead(ModelQueue &queue,
                                 std::unique_lock<std::mutex> &lock);

    /** Shed the expired queries of @p taken and run one pass over
     * the rest, writing every result; no lock held. */
    telemetry::CounterDelta runBatch(ModelQueue &queue,
                                     const std::vector<Pending *> &taken,
                                     int64_t target);
    ModelQueue *queueFor(const std::string &model,
                         Status &error);

    const ModelRegistry &registry_;
    BatchOptions options_;
    telemetry::MetricRegistry *metrics_;
    telemetry::Tracer *tracer_ = nullptr;
    DispatchGate gate_;
    BatchObserver observer_;

    mutable std::mutex mapMutex_;
    std::map<std::string, std::unique_ptr<ModelQueue>> queues_;

    /** Targets set before a model's queue exists, applied at queue
     * creation. Guarded by mapMutex_. */
    std::map<std::string, int64_t> pendingTargets_;

    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> queries_{0};
    std::atomic<int64_t> pendingTotal_{0};
    std::atomic<uint64_t> shedQueueFull_{0};
    std::atomic<uint64_t> shedDeadline_{0};
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_BATCHER_HH
