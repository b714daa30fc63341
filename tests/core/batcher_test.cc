#include "core/batcher.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/metrics.hh"

namespace djinn {
namespace core {
namespace {

class BatcherTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 2 2\nlayer fc fc out 3\n");
        nn::initializeWeights(*net, 5);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    ModelRegistry registry_;
};

/** Run @p count queries at once, one caller thread each; the i-th
 * sends input(i). Results come back in caller order. */
std::vector<InferenceResult>
submitConcurrently(BatchingExecutor &executor, int count,
                   const std::function<std::vector<float>(int)> &input)
{
    std::vector<InferenceResult> results(count);
    std::vector<std::thread> callers;
    for (int i = 0; i < count; ++i) {
        callers.emplace_back([&, i]() {
            results[i] = executor.submit("tiny", 1, input(i));
        });
    }
    for (auto &c : callers)
        c.join();
    return results;
}

/** Poll @p cond for up to 10 s. */
bool
waitFor(const std::function<bool()> &cond)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!cond()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST_F(BatcherTest, SingleQueryCompletes)
{
    BatchOptions options;
    options.maxQueries = 4;
    options.maxDelay = 1e-3;
    BatchingExecutor executor(registry_, options);
    InferenceResult result = executor.submit("tiny", 1, {1, 2, 3, 4});
    ASSERT_TRUE(result.status.isOk()) << result.status.toString();
    EXPECT_EQ(result.output.size(), 3u);
    EXPECT_EQ(executor.queriesServed(), 1u);
}

TEST_F(BatcherTest, UnknownModelRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{});
    InferenceResult result =
        executor.submit("missing", 1, {1, 2, 3, 4});
    EXPECT_EQ(result.status.code(), StatusCode::NotFound);
}

TEST_F(BatcherTest, WrongPayloadSizeRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{});
    InferenceResult result = executor.submit("tiny", 1, {1, 2, 3});
    EXPECT_EQ(result.status.code(), StatusCode::InvalidArgument);
}

TEST_F(BatcherTest, ZeroRowsRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{});
    EXPECT_EQ(executor.submit("tiny", 0, {}).status.code(),
              StatusCode::InvalidArgument);
}

TEST_F(BatcherTest, ConcurrentQueriesGetCombined)
{
    BatchOptions options;
    options.maxQueries = 8;
    options.maxDelay = 200e-3; // generous window to coalesce even
                               // on a loaded machine
    BatchingExecutor executor(registry_, options);

    auto results = submitConcurrently(executor, 8, [](int i) {
        return std::vector<float>{static_cast<float>(i), 0, 0, 0};
    });
    for (const auto &r : results)
        ASSERT_TRUE(r.status.isOk());
    EXPECT_EQ(executor.queriesServed(), 8u);
    // Coalescing must beat one-batch-per-query.
    EXPECT_LT(executor.batchesExecuted(), 8u);
}

TEST_F(BatcherTest, BatchedResultsMatchUnbatched)
{
    auto net = registry_.find("tiny");
    BatchOptions options;
    options.maxQueries = 4;
    options.maxDelay = 10e-3;
    BatchingExecutor executor(registry_, options);

    std::vector<std::vector<float>> inputs = {
        {1, 2, 3, 4}, {5, 6, 7, 8}, {-1, 0, 1, 2}};
    auto results = submitConcurrently(
        executor, 3, [&](int i) { return inputs[i]; });

    for (size_t i = 0; i < inputs.size(); ++i) {
        const InferenceResult &result = results[i];
        ASSERT_TRUE(result.status.isOk());
        nn::Tensor in(nn::Shape(1, 1, 2, 2));
        std::copy(inputs[i].begin(), inputs[i].end(), in.data());
        nn::Tensor expected = net->forward(in);
        ASSERT_EQ(result.output.size(), 3u);
        for (int64_t j = 0; j < 3; ++j)
            EXPECT_NEAR(result.output[j], expected[j], 1e-5);
    }
}

TEST_F(BatcherTest, MultiRowQueryKeepsRowOrder)
{
    auto net = registry_.find("tiny");
    BatchingExecutor executor(registry_, BatchOptions{});
    std::vector<float> data = {1, 2, 3, 4, 5, 6, 7, 8};
    auto result = executor.submit("tiny", 2, data);
    ASSERT_TRUE(result.status.isOk());
    ASSERT_EQ(result.output.size(), 6u);

    nn::Tensor in(nn::Shape(2, 1, 2, 2));
    std::copy(data.begin(), data.end(), in.data());
    nn::Tensor expected = net->forward(in);
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_NEAR(result.output[i], expected[i], 1e-5);
}

TEST_F(BatcherTest, ManyThreadsStress)
{
    BatchOptions options;
    options.maxQueries = 16;
    options.maxDelay = 1e-3;
    BatchingExecutor executor(registry_, options);

    constexpr int threads = 8;
    constexpr int per_thread = 25;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&executor, &failures]() {
            for (int i = 0; i < per_thread; ++i) {
                auto result =
                    executor.submit("tiny", 1, {1, 1, 1, 1});
                if (!result.status.isOk())
                    ++failures;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(executor.queriesServed(),
              static_cast<uint64_t>(threads * per_thread));
}

TEST_F(BatcherTest, HandOffStrandsNoFollower)
{
    // One leader at a time (maxQueries > 1), and a gate that
    // refuses every third call so leaders park and hand off at
    // awkward moments. A follower left without a leader would hang
    // the test; a mixed-up scatter would fail the comparison.
    auto net = registry_.find("tiny");
    BatchOptions options;
    options.maxQueries = 2;
    options.maxDelay = 1e-3;
    BatchingExecutor executor(registry_, options);
    std::atomic<int> gate_calls{0};
    executor.setDispatchGate([&gate_calls](const std::string &) {
        return ++gate_calls % 3 != 0;
    });

    constexpr int threads = 8;
    constexpr int per_thread = 50;
    std::atomic<int> failures{0}, mismatches{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t]() {
            for (int i = 0; i < per_thread; ++i) {
                std::vector<float> in = {static_cast<float>(t),
                                         static_cast<float>(i), 1.0f,
                                         -0.5f};
                InferenceResult result = executor.submit("tiny", 1, in);
                if (!result.status.isOk() ||
                    result.output.size() != 3u) {
                    ++failures;
                    continue;
                }
                nn::Tensor x(nn::Shape(1, 1, 2, 2));
                std::copy(in.begin(), in.end(), x.data());
                nn::Tensor expected = net->forward(x);
                for (int64_t j = 0; j < 3; ++j) {
                    if (std::abs(result.output[j] - expected[j]) > 1e-5)
                        ++mismatches;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(executor.queriesServed(),
              static_cast<uint64_t>(threads * per_thread));
    EXPECT_EQ(executor.queueDepthTotal(), 0);
}

TEST_F(BatcherTest, SingleQueryBatchesRunConcurrently)
{
    // With maxQueries 1 every caller leads its own pass at once. The
    // gate opens only once two callers are inside it together, so
    // serialized passes of one model would time out here.
    BatchOptions options;
    options.maxQueries = 1;
    options.maxDelay = 0.0;
    BatchingExecutor executor(registry_, options);
    std::mutex mutex;
    std::condition_variable cv;
    int inside = 0;
    bool met = false;
    executor.setDispatchGate([&](const std::string &) {
        std::unique_lock<std::mutex> lock(mutex);
        if (++inside >= 2)
            met = true;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5),
                    [&]() { return met; });
        --inside;
        return true;
    });

    auto results = submitConcurrently(
        executor, 2, [](int) { return std::vector<float>{1, 2, 3, 4}; });
    for (const auto &r : results)
        EXPECT_TRUE(r.status.isOk());
    EXPECT_TRUE(met) << "same-model passes were serialized";
    EXPECT_EQ(executor.batchesExecuted(), 2u);
}

TEST_F(BatcherTest, InvalidOptionsFatal)
{
    BatchOptions options;
    options.maxQueries = 0;
    EXPECT_THROW(BatchingExecutor(registry_, options), FatalError);
    options.maxQueries = 4;
    options.maxDelay = -1.0;
    EXPECT_THROW(BatchingExecutor(registry_, options), FatalError);
    options.maxDelay = 1e-3;
    options.maxQueueDepth = -1;
    EXPECT_THROW(BatchingExecutor(registry_, options), FatalError);
}

TEST_F(BatcherTest, QueueDepthCapDerivesFromBatchSize)
{
    BatchOptions options;
    options.maxQueries = 16;
    EXPECT_EQ(options.queueDepthCap(), 64);
    options.maxQueueDepth = 5;
    EXPECT_EQ(options.queueDepthCap(), 5);
}

TEST_F(BatcherTest, FullQueueShedsWithOverloaded)
{
    // Admission control: with the leader stalled inside its
    // wait-for-peers window (giant maxDelay, giant batch size),
    // concurrent submits keep the queue populated, so the
    // D+1st..Nth submits must be rejected immediately with
    // Overloaded rather than growing the queue without bound.
    BatchOptions options;
    options.maxQueries = 64;   // never fills a batch in this test
    options.maxDelay = 0.5;    // the leader waits for peers
    options.maxQueueDepth = 4; // cap D
    BatchingExecutor executor(registry_, options);

    auto results = submitConcurrently(
        executor, 12, [](int) { return std::vector<float>{1, 2, 3, 4}; });

    int ok = 0, overloaded = 0;
    for (const auto &result : results) {
        if (result.status.isOk())
            ++ok;
        else if (result.status.code() == StatusCode::Overloaded)
            ++overloaded;
    }
    // A leader may drain the queue between two submits, so a few
    // extra admissions are possible; the bulk of the burst must
    // still shed.
    EXPECT_GE(overloaded, 4) << ok << " ok";
    EXPECT_GE(ok, 4);
    EXPECT_EQ(ok + overloaded, 12);
    EXPECT_EQ(executor.queueFullSheds(),
              static_cast<uint64_t>(overloaded));
}

TEST_F(BatcherTest, AdmissionCapTracksShrunkenBatchTarget)
{
    // The bug-1 regression: the derived queue cap (4 x batch) was
    // computed once from the static maxQueries. After the adaptive
    // scheduler shrinks the dispatch target, admission must
    // re-derive from the *current* target — with the stale cap
    // (4 x 16 = 64) none of the 40 submits below would shed.
    BatchOptions options;
    options.maxQueries = 16;
    options.maxDelay = 1.0; // the leader waits for peers
    BatchingExecutor executor(registry_, options);

    // Park the leader so nothing drains while the burst lands.
    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });
    executor.setBatchTarget("tiny", 4); // live cap: 4 x 4 = 16

    std::vector<InferenceResult> results(40);
    std::vector<std::thread> callers;
    for (int i = 0; i < 40; ++i) {
        callers.emplace_back([&executor, &results, i]() {
            results[i] = executor.submit("tiny", 1, {1, 2, 3, 4});
        });
    }
    // Every caller has either queued or been shed once the two
    // counts cover the burst.
    ASSERT_TRUE(waitFor([&]() {
        return executor.queueDepth("tiny") +
                   static_cast<int64_t>(executor.queueFullSheds()) ==
               40;
    }));
    EXPECT_EQ(executor.queueFullSheds(), 24u);

    open.store(true);
    for (auto &c : callers)
        c.join();
    int ok = 0, overloaded = 0;
    for (const auto &result : results) {
        if (result.status.isOk())
            ++ok;
        else if (result.status.code() == StatusCode::Overloaded)
            ++overloaded;
    }
    EXPECT_EQ(ok, 16);
    EXPECT_EQ(overloaded, 24);
}

TEST_F(BatcherTest, OccupancyReportsAgainstCurrentTarget)
{
    // The bug-2 regression: djinn_batch_occupancy divided by the
    // static tuned batch, so a full batch under a shrunken target
    // read 4/16 = 0.25 instead of 1.0.
    telemetry::MetricRegistry metrics;
    BatchOptions options;
    options.maxQueries = 16;
    options.maxDelay = 1.0;
    BatchingExecutor executor(registry_, options, &metrics);

    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });
    executor.setBatchTarget("tiny", 4);
    EXPECT_EQ(executor.batchTarget("tiny"), 4);

    std::vector<InferenceResult> results(4);
    std::vector<std::thread> callers;
    for (int i = 0; i < 4; ++i) {
        callers.emplace_back([&executor, &results, i]() {
            results[i] = executor.submit("tiny", 1, {1, 2, 3, 4});
        });
    }
    ASSERT_TRUE(
        waitFor([&]() { return executor.queueDepth("tiny") == 4; }));
    open.store(true);
    for (auto &c : callers)
        c.join();
    for (const auto &r : results)
        ASSERT_TRUE(r.status.isOk());

    double occupancy = -1.0;
    for (const telemetry::MetricSample &s : metrics.snapshot()) {
        if (s.name == std::string("djinn_batch_occupancy"))
            occupancy = s.value;
    }
    EXPECT_DOUBLE_EQ(occupancy, 1.0);
}

TEST_F(BatcherTest, ExpiredDeadlineShedsBeforeForward)
{
    // A query whose deadline has already passed when its batch is
    // assembled must be shed with DeadlineExceeded, not computed.
    BatchOptions options;
    options.maxQueries = 4;
    options.maxDelay = 20e-3;
    BatchingExecutor executor(registry_, options);

    auto past = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1);
    InferenceResult result =
        executor.submit("tiny", 1, {1, 2, 3, 4}, past);
    EXPECT_EQ(result.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(executor.deadlineSheds(), 1u);

    // A live query in the same queue still completes.
    auto live = executor.submit("tiny", 1, {1, 2, 3, 4});
    EXPECT_TRUE(live.status.isOk());
}

TEST_F(BatcherTest, FutureDeadlineDoesNotShed)
{
    BatchOptions options;
    options.maxQueries = 4;
    options.maxDelay = 1e-3;
    BatchingExecutor executor(registry_, options);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    auto result = executor.submit("tiny", 1, {1, 2, 3, 4}, deadline);
    EXPECT_TRUE(result.status.isOk());
    EXPECT_EQ(executor.deadlineSheds(), 0u);
}

} // namespace
} // namespace core
} // namespace djinn
