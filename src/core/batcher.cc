#include "core/batcher.hh"

#include <chrono>
#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "core/perf_sink.hh"
#include "telemetry/trace.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

BatchingExecutor::BatchingExecutor(const ModelRegistry &registry,
                                   const BatchOptions &options,
                                   telemetry::MetricRegistry *metrics)
    : registry_(registry), options_(options), metrics_(metrics)
{
    if (options.maxQueries <= 0)
        fatal("BatchingExecutor: maxQueries must be positive");
    if (options.maxDelay < 0.0)
        fatal("BatchingExecutor: maxDelay must be non-negative");
    if (options.maxQueueDepth < 0)
        fatal("BatchingExecutor: maxQueueDepth must be "
              "non-negative");
}

BatchingExecutor::ModelQueue *
BatchingExecutor::queueFor(const std::string &model, Status &error)
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = queues_.find(model);
    if (it != queues_.end())
        return it->second.get();

    auto network = registry_.find(model);
    if (!network) {
        error = Status::notFound("unknown model '" + model + "'");
        return nullptr;
    }
    auto queue = std::make_unique<ModelQueue>();
    queue->name = model;
    queue->network = std::move(network);
    auto pending_target = pendingTargets_.find(model);
    queue->target.store(pending_target != pendingTargets_.end()
                            ? pending_target->second
                            : options_.maxQueries,
                        std::memory_order_relaxed);
    if (metrics_) {
        using telemetry::Phase;
        const telemetry::LabelMap model_label{{"model", model}};
        queue->queueWaitHist = &metrics_->histogram(
            telemetry::phaseMetricName,
            {{"model", model},
             {"phase", telemetry::phaseName(Phase::QueueWait)}});
        queue->forwardHist = &metrics_->histogram(
            telemetry::phaseMetricName,
            {{"model", model},
             {"phase", telemetry::phaseName(Phase::Forward)}});
        // Batch sizes are small integers; linear-ish buckets from 1
        // to 64k rows at 2x resolution.
        telemetry::HistogramOptions rows_opts;
        rows_opts.firstBound = 1.0;
        rows_opts.growth = 2.0;
        rows_opts.bucketCount = 16;
        queue->batchRowsHist = &metrics_->histogram(
            "djinn_batch_rows", model_label, rows_opts);
        // Admit-time queue depth, sampled per request at enqueue:
        // the background-sampler gauge aliases bursts shorter than
        // its interval; this histogram does not.
        queue->admitDepthHist = &metrics_->histogram(
            "djinn_admit_queue_depth", model_label, rows_opts);
        queue->depthGauge = &metrics_->gauge(
            "djinn_batch_queue_depth", model_label);
        queue->occupancyGauge = &metrics_->gauge(
            "djinn_batch_occupancy", model_label);
        queue->batchesCounter = &metrics_->counter(
            "djinn_batches_total", model_label);
        const telemetry::LabelMap forward_label{
            {"model", model},
            {"phase", telemetry::phaseName(Phase::Forward)}};
        queue->forwardCyclesHist = &metrics_->histogram(
            telemetry::phaseCyclesMetricName, forward_label);
        queue->forwardInstructionsHist = &metrics_->histogram(
            telemetry::phaseInstructionsMetricName, forward_label);
        queue->forwardIpcHist = &metrics_->histogram(
            telemetry::phaseIpcMetricName, forward_label);
        queue->forwardCacheMissHist = &metrics_->histogram(
            telemetry::phaseCacheMissMetricName, forward_label);
        queue->shedQueueFullCounter = &metrics_->counter(
            "djinn_shed_total",
            {{"model", model}, {"reason", "queue_full"}});
        queue->shedDeadlineCounter = &metrics_->counter(
            "djinn_shed_total",
            {{"model", model}, {"reason", "deadline"}});
    }
    ModelQueue *raw = queue.get();
    queues_.emplace(model, std::move(queue));
    return raw;
}

InferenceResult
BatchingExecutor::submit(const std::string &model, int64_t rows,
                         const std::vector<float> &data,
                         Deadline deadline,
                         const telemetry::TraceContext &trace,
                         uint64_t parent_span)
{
    Status error = Status::ok();
    ModelQueue *queue = queueFor(model, error);
    if (!queue)
        return {error, {}};

    int64_t sample_elems = queue->network->inputShape().sampleElems();
    if (rows <= 0 ||
        static_cast<int64_t>(data.size()) != rows * sample_elems) {
        return {Status::invalidArgument(strprintf(
                    "model '%s' expects %lld floats per row, got %zu "
                    "floats for %lld rows", model.c_str(),
                    static_cast<long long>(sample_elems), data.size(),
                    static_cast<long long>(rows))),
                {}};
    }

    std::unique_lock<std::mutex> lock(queue->mutex);
    // Admission control: reject at enqueue instead of queueing
    // without bound. The caller sees Overloaded and may retry after
    // backoff; the query was never executed. The cap is re-derived
    // from the live dispatch target on every submit, so a scheduler
    // that shrinks the batch tightens admission with it.
    int64_t admit_depth = static_cast<int64_t>(queue->pending.size());
    if (admit_depth >= options_.queueDepthCapFor(queue->target.load(
                          std::memory_order_relaxed))) {
        shedQueueFull_.fetch_add(1, std::memory_order_relaxed);
        if (queue->shedQueueFullCounter)
            queue->shedQueueFullCounter->inc();
        return {Status::overloaded(strprintf(
                    "model '%s' queue full (%lld queued)",
                    model.c_str(),
                    static_cast<long long>(admit_depth))),
                {}};
    }
    Pending self{rows, data, std::chrono::steady_clock::now(), trace,
                 parent_span, tracer_ ? telemetry::traceNowUs() : 0,
                 deadline, admit_depth};
    queue->pending.push_back(&self);
    pendingTotal_.fetch_add(1, std::memory_order_relaxed);
    if (queue->admitDepthHist)
        queue->admitDepthHist->record(static_cast<double>(admit_depth));
    if (queue->depthGauge)
        queue->depthGauge->set(static_cast<double>(admit_depth + 1));
    queue->cv.notify_all();

    // Leader/follower: lead while this query is still queued and a
    // slot is free, otherwise wait. A finished pass gives its slot
    // back and wakes every waiter: the callers it answered return,
    // and a caller whose query is still queued takes the slot.
    const int64_t slots = options_.maxQueries > 1 ? 1 : INT64_MAX;
    telemetry::CounterDelta led;
    while (true) {
        queue->cv.wait(lock, [&]() {
            return self.state == Pending::Done ||
                   (self.state == Pending::Queued &&
                    queue->leaders < slots);
        });
        if (self.state == Pending::Done)
            break;
        ++queue->leaders;
        led.add(lead(*queue, lock));
        --queue->leaders;
        queue->cv.notify_all();
    }
    self.result.ledCounters = led;
    return std::move(self.result);
}

telemetry::CounterDelta
BatchingExecutor::lead(ModelQueue &queue,
                       std::unique_lock<std::mutex> &lock)
{
    // Give peers a chance to join the batch, up to the live dispatch
    // target (re-read inside the predicate: a retarget mid-wait
    // takes effect immediately).
    int64_t target = queue.target.load(std::memory_order_relaxed);
    if (static_cast<int64_t>(queue.pending.size()) < target) {
        queue.cv.wait_for(
            lock, std::chrono::duration<double>(options_.maxDelay),
            [&]() {
                target = queue.target.load(std::memory_order_relaxed);
                return static_cast<int64_t>(queue.pending.size()) >=
                       target;
            });
    }
    // Fair-share gate: hold the assembled-but-undispatched batch
    // until the scheduler grants this model's tenant a dispatch
    // slot. The gate runs without the queue lock, so admission and
    // other leaders keep running while this one is parked.
    while (gate_) {
        lock.unlock();
        bool open = gate_(queue.name);
        lock.lock();
        if (open)
            break;
        queue.cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    target = queue.target.load(std::memory_order_relaxed);
    int64_t take = std::min<int64_t>(
        target, static_cast<int64_t>(queue.pending.size()));
    std::vector<Pending *> taken(queue.pending.begin(),
                                 queue.pending.begin() + take);
    queue.pending.erase(queue.pending.begin(),
                        queue.pending.begin() + take);
    for (Pending *p : taken)
        p->state = Pending::Taken;
    pendingTotal_.fetch_sub(take, std::memory_order_relaxed);
    if (queue.depthGauge)
        queue.depthGauge->set(static_cast<double>(queue.pending.size()));
    lock.unlock();
    telemetry::CounterDelta counters = runBatch(queue, taken, target);
    lock.lock();
    for (Pending *p : taken)
        p->state = Pending::Done;
    return counters;
}

telemetry::CounterDelta
BatchingExecutor::runBatch(ModelQueue &queue,
                           const std::vector<Pending *> &taken,
                           int64_t target)
{
    // Deadline enforcement at dequeue: shed expired queries BEFORE
    // the forward pass. Spending a batch slot on an answer nobody is
    // waiting for wastes compute exactly when the service is most
    // behind.
    auto dispatch_time = std::chrono::steady_clock::now();
    std::vector<Pending *> batch;
    for (Pending *p : taken) {
        if (p->deadline > dispatch_time) {
            batch.push_back(p);
            continue;
        }
        shedDeadline_.fetch_add(1, std::memory_order_relaxed);
        if (queue.shedDeadlineCounter)
            queue.shedDeadlineCounter->inc();
        p->result = {Status::deadlineExceeded(
                         "deadline expired before forward pass"),
                     {}};
    }
    if (batch.empty())
        return {};

    if (queue.queueWaitHist) {
        for (const Pending *p : batch) {
            queue.queueWaitHist->record(
                std::chrono::duration<double>(dispatch_time -
                                              p->enqueued)
                    .count());
        }
    }

    const nn::Network &net = *queue.network;
    int64_t total_rows = 0;
    for (const Pending *p : batch)
        total_rows += p->rows;

    // Trace when any query in the batch carries a sampled context;
    // the batch spans link back to every such trace.
    telemetry::Tracer *tracer = tracer_;
    const Pending *primary = nullptr;
    std::string trace_ids;
    if (tracer) {
        for (const Pending *p : batch) {
            if (!p->trace.valid() || !p->trace.sampled())
                continue;
            if (!primary)
                primary = p;
            if (!trace_ids.empty())
                trace_ids += ",";
            trace_ids += telemetry::traceIdToHex(p->trace.traceId);
        }
    }
    if (primary) {
        const std::string track = "batch-" + net.name();
        int64_t dispatch_us = telemetry::traceNowUs();
        for (const Pending *p : batch) {
            if (!p->trace.valid() || !p->trace.sampled())
                continue;
            telemetry::TraceEvent e;
            e.name = "queue_wait";
            e.category = "batch";
            e.track = track;
            e.traceId = p->trace.traceId;
            e.spanId = tracer->nextSpanId();
            e.parentSpanId = p->parentSpan;
            e.startUs = p->enqueuedUs;
            e.durationUs = dispatch_us - p->enqueuedUs;
            e.args.emplace_back(
                "rows",
                strprintf("%lld", static_cast<long long>(p->rows)));
            tracer->record(std::move(e));
        }
    }

    // Stack all queries into one combined input matrix.
    nn::Tensor input(net.inputShape().withBatch(total_rows));
    int64_t row = 0;
    for (const Pending *p : batch) {
        std::memcpy(input.sample(row), p->data.data(),
                    p->data.size() * sizeof(float));
        row += p->rows;
    }

    std::optional<ForwardSpans> spans;
    if (primary) {
        spans = ForwardSpans{
            tracer, primary->trace.traceId, primary->parentSpan,
            {{"batch_rows",
              strprintf("%lld", static_cast<long long>(total_rows))},
             {"queries", strprintf("%zu", batch.size())},
             {"trace_ids", trace_ids}}};
    }
    ForwardPass pass;
    try {
        pass = runForward(net, input, spans ? &*spans : nullptr);
    } catch (const FatalError &e) {
        for (Pending *p : batch)
            p->result = {Status::internal(e.what()), {}};
        return {};
    }
    int64_t out_elems = net.outputShape().sampleElems();

    // Timed from dispatch, so a query's queue wait plus the batch's
    // forward time covers its whole stay in the executor (batch
    // stacking included).
    double forward_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - dispatch_time).count();
    if (queue.forwardHist) {
        queue.forwardHist->record(forward_seconds);
        queue.batchRowsHist->record(static_cast<double>(total_rows));
        queue.batchesCounter->inc();
        // Occupancy against the *live* dispatch target: with an
        // adaptive scheduler the static maxQueries would read
        // misleadingly low after a shrink (and > 1.0 after a grow
        // past a stale denominator).
        queue.occupancyGauge->set(
            static_cast<double>(batch.size()) /
            static_cast<double>(std::max<int64_t>(target, 1)));
        queue.forwardCyclesHist->record(
            static_cast<double>(pass.counters.work()));
        if (pass.counters.hardware) {
            queue.forwardInstructionsHist->record(
                static_cast<double>(pass.counters.instructions));
            queue.forwardIpcHist->record(pass.counters.ipc());
            queue.forwardCacheMissHist->record(
                static_cast<double>(pass.counters.cacheMisses));
        }
    }

    if (observer_) {
        observer_(queue.name, static_cast<int64_t>(batch.size()),
                  forward_seconds);
    }

    // Count before answering: a caller must never observe its
    // result with stale counters.
    batches_.fetch_add(1, std::memory_order_relaxed);
    queries_.fetch_add(batch.size(), std::memory_order_relaxed);

    // Scatter results back to their queries, each annotated with
    // its own view of the batch (position, queue wait, admit depth)
    // for the flight recorder.
    row = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        Pending &p = *batch[i];
        InferenceResult &result = p.result;
        result.status = Status::ok();
        result.output.assign(
            pass.output.sample(row),
            pass.output.sample(row) + p.rows * out_elems);
        row += p.rows;
        result.batchRows = total_rows;
        result.batchQueries = static_cast<int64_t>(batch.size());
        result.batchPosition = static_cast<int64_t>(i);
        result.admitQueueDepth = p.admitDepth;
        result.queueWaitSeconds =
            std::chrono::duration<double>(dispatch_time - p.enqueued)
                .count();
        result.forwardSeconds = forward_seconds;
    }
    return pass.counters;
}
void
BatchingExecutor::setBatchTarget(const std::string &model,
                                 int64_t target)
{
    target = std::max<int64_t>(
        1, std::min(target, options_.maxQueries));
    std::lock_guard<std::mutex> lock(mapMutex_);
    pendingTargets_[model] = target;
    auto it = queues_.find(model);
    if (it == queues_.end())
        return;
    ModelQueue *queue = it->second.get();
    queue->target.store(target, std::memory_order_relaxed);
    // Wake the leader: a smaller target may make the current
    // backlog dispatchable right now.
    std::lock_guard<std::mutex> qlock(queue->mutex);
    queue->cv.notify_all();
}

int64_t
BatchingExecutor::batchTarget(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = queues_.find(model);
    if (it != queues_.end())
        return it->second->target.load(std::memory_order_relaxed);
    auto pending = pendingTargets_.find(model);
    return pending != pendingTargets_.end() ? pending->second
                                            : options_.maxQueries;
}

int64_t
BatchingExecutor::queueDepth(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = queues_.find(model);
    if (it == queues_.end())
        return 0;
    std::lock_guard<std::mutex> qlock(it->second->mutex);
    return static_cast<int64_t>(it->second->pending.size());
}

uint64_t
BatchingExecutor::batchesExecuted() const
{
    return batches_.load(std::memory_order_relaxed);
}

uint64_t
BatchingExecutor::queriesServed() const
{
    return queries_.load(std::memory_order_relaxed);
}

} // namespace core
} // namespace djinn
