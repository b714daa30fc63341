/**
 * @file
 * tonic_bench: the load generator and measurement program of the
 * end-to-end Tonic serving benchmark.
 *
 * Loads a workload's zoo models into a core::ModelRegistry, starts
 * an in-process core::DjinnServer (batching on, every other
 * ServerConfig field at its default) and drives it over loopback
 * TCP through the public Tonic app classes from two closed-loop
 * load threads, one connection each. After the timed
 * phase a seeded sample of the replies is recomputed with a direct
 * nn::Network::forward; a wrong reply, a failed query or an empty
 * sample fails the run.
 *
 * Layers are measured only from outside: the program times calls
 * into public functions, diffs snapshots of the server's public
 * metrics() registry, and (with --trace 1) records its own spans.
 * The last stdout line is the JSON result; see README.md.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "perf/layer_cost.hh"
#include "queries.hh"
#include "report.hh"
#include "spans.hh"
#include "telemetry/trace.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------
// Options

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Untimed warm-up before the timed phase, seconds. */
constexpr double kWarmupSeconds = 0.5;

/** Replies per client kept for the correctness gate. */
constexpr int kCheckSample = 2;

/** Closed-loop load threads, one connection each. */
constexpr int kClients = 2;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Where --trace 1 writes its spans. */
    std::string traceOut;

    /** Gate self-test: alter one reply before checking it. */
    bool corruptReply = false;

    /** The app cycle each client steps through. */
    std::vector<App> apps;

    /** tail_ms: the percentile taken in each block of tailBlock
     * queries (in the order they were sent; 0 makes the phase one
     * block), median over blocks. */
    double tailPct = 99.0;
    int tailBlock = 0;
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(',', start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tonic_bench: %s\n"
                 "usage: tonic_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --apps a,b "
                 "[--tail-pct P] [--tail-block N] "
                 "[--trace-out PATH] [--corrupt-reply]\n",
                 why);
    std::exit(2);
}

/** Apply one "--flag value" pair; throws std::logic_error on a
 * malformed number. */
void
applyFlag(Options &o, const std::string &flag, const std::string &v)
{
    if (flag == "--workload") {
        o.workload = v;
    } else if (flag == "--seed") {
        o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
    } else if (flag == "--trace") {
        o.trace = v == "1";
    } else if (flag == "--trace-out") {
        o.traceOut = v;
    } else if (flag == "--apps") {
        for (const std::string &name : splitCommas(v)) {
            App app;
            if (!parseApp(name, app))
                usage(("unknown app " + name).c_str());
            o.apps.push_back(app);
        }
    } else if (flag == "--tail-pct") {
        o.tailPct = std::stod(v);
    } else if (flag == "--tail-block") {
        o.tailBlock = std::stoi(v);
    } else {
        usage(("unknown flag " + flag).c_str());
    }
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--corrupt-reply") {
            o.corruptReply = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        try {
            applyFlag(o, flag, v);
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (o.workload.empty() || o.apps.empty())
        usage("--workload and --apps are required");
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    if (o.tailPct <= 0.0 || o.tailPct > 100.0)
        usage("--tail-pct must lie in (0, 100]");
    if (o.tailBlock < 0)
        usage("--tail-block must not be negative");
    return o;
}

// ---------------------------------------------------------------
// Set-up

/** The served stack: registry plus the in-process server. */
struct Stack {
    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    std::unique_ptr<core::ModelRegistry> registry;
    std::unique_ptr<core::DjinnServer> server;

    ~Stack() { reset(); }

    void
    reset()
    {
        if (server)
            server->stop();
        server.reset();
        registry.reset();
    }
};

std::vector<nn::zoo::Model>
workloadModels(const Options &o)
{
    std::set<nn::zoo::Model> models;
    for (App app : o.apps)
        models.insert(modelFor(app));
    return {models.begin(), models.end()};
}

struct SetupTimes {
    double setupS = 0.0;
    double loadS = 0.0;
};

/** Load models, start the server, and wait for the first ping. */
SetupTimes
setUp(const Options &o, Stack &stack)
{
    SetupTimes t;
    auto t0 = Clock::now();
    stack.registry = std::make_unique<core::ModelRegistry>();
    for (nn::zoo::Model m : workloadModels(o)) {
        Status s = stack.registry->addZooModel(m);
        if (!s.isOk())
            fatal("addZooModel(%s): %s", nn::zoo::modelName(m),
                  s.toString().c_str());
    }
    t.loadS = secondsSince(t0);
    core::ServerConfig config;
    config.batching = true;
    stack.server =
        std::make_unique<core::DjinnServer>(*stack.registry, config);
    Status s = stack.server->start();
    if (!s.isOk())
        fatal("server start: %s", s.toString().c_str());
    core::DjinnClient client;
    for (;;) {
        if (client.connected() || client.connect("127.0.0.1",
                                                 stack.server->port())
                                      .isOk()) {
            if (client.ping().isOk())
                break;
            client.disconnect();
        }
        if (secondsSince(t0) > 60.0)
            fatal("server never answered a ping");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t.setupS = secondsSince(t0);
    return t;
}

// ---------------------------------------------------------------
// Load generation

/** One query as the generator saw it. */
struct Record {
    App app = App::Imc;
    bool ok = false;
    double latencyMs = 0.0;

    /** When it was sent, seconds from the start of its phase. */
    double sentS = 0.0;
    tonic::PhaseTimes times;
    uint64_t inputId = 0;
    int64_t wireBytes = 0;
};

/** A query kept for the correctness gate, with what came back. */
struct Kept {
    Query query;
    tonic::AppOutput output;
};

/** What one load thread produced in one phase. */
struct ThreadResult {
    std::vector<Record> records;
    std::vector<Kept> kept;
    double lastDoneS = 0.0;
};

/** Everything the timed part of a run needs from its threads. */
struct Load {
    const Options &options;
    const QueryFactory &factory;
    const core::ModelRegistry &registry;
    uint16_t port;

    /** Set in the traced phase only: spans and per-query bytes are
     * recorded then. */
    SpanRecorder *spans = nullptr;
};

/** A seeded reservoir sample of kCheckSample of one thread's
 * replies. */
class Keeper
{
  public:
    explicit Keeper(uint64_t seed) : rng_(seed) {}

    void
    offer(const Query &query, const tonic::AppOutput &output)
    {
        ++seen_;
        if (static_cast<int>(reservoir_.size()) < kCheckSample) {
            reservoir_.push_back({query, output});
            return;
        }
        int64_t slot = rng_.uniformInt(0, seen_ - 1);
        if (slot < kCheckSample)
            reservoir_[static_cast<size_t>(slot)] = {query, output};
    }

    void
    flush(ThreadResult &out)
    {
        for (Kept &k : reservoir_)
            out.kept.push_back(std::move(k));
        reservoir_.clear();
    }

  private:
    Rng rng_;
    int64_t seen_ = 0;
    std::vector<Kept> reservoir_;
};

/** Run one query and record it (and, when tracing, its spans). */
void
runQuery(const Load &load, AppClient &client, const Query &query,
         Clock::time_point phase_t0, ThreadResult &out, Keeper &keeper)
{
    auto sent = Clock::now();
    double start_us = load.spans ? nowUs() : 0.0;
    auto result = client.run(query);
    auto done = Clock::now();

    Record r;
    r.app = query.app;
    r.ok = result.isOk();
    r.latencyMs = std::chrono::duration<double, std::milli>(done - sent)
                      .count();
    r.sentS = std::chrono::duration<double>(sent - phase_t0).count();
    r.inputId = query.inputId;
    if (load.spans)
        r.wireBytes = wireBytes(load.registry, query);
    if (r.ok) {
        r.times = result.value().times;
        keeper.offer(query, result.value());
    }
    out.records.push_back(r);

    if (load.spans && r.ok) {
        // The app reports its phase durations; they run back to
        // back inside the call, so lay them out from its start.
        double end_us = nowUs();
        uint64_t root = load.spans->newId();
        double at = start_us;
        const std::pair<const char *, double> phases[] = {
            {"tonic.pre", r.times.preprocess},
            {"core.service", r.times.service},
            {"tonic.post", r.times.postprocess}};
        for (const auto &[name, seconds] : phases) {
            Span s;
            s.id = load.spans->newId();
            s.parent = root;
            s.trace = root;
            s.name = name;
            s.startUs = at;
            s.endUs = at + seconds * 1e6;
            at = s.endUs;
            load.spans->record(s);
        }
        Span q;
        q.id = root;
        q.trace = root;
        q.name = "tonic.query";
        q.startUs = start_us;
        q.endUs = end_us;
        load.spans->record(q);
    }
}

AppClient &
connectClient(std::unique_ptr<AppClient> &slot, uint16_t port)
{
    if (!slot) {
        slot = std::make_unique<AppClient>();
        Status s = slot->connect(port);
        if (!s.isOk())
            fatal("client connect: %s", s.toString().c_str());
    }
    return *slot;
}

/** Untimed warm-up: each client cycles its apps for a while. */
void
warmUp(const Load &load, std::vector<std::unique_ptr<AppClient>> &clients)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            AppClient &client = connectClient(clients[c], load.port);
            Rng rng(mix64(load.options.seed) ^ 0x7761726dULL ^ c);
            auto t0 = Clock::now();
            // Index 0 picks the shortest ASR stratum.
            for (size_t i = 0;
                 i < load.options.apps.size() ||
                 secondsSince(t0) < kWarmupSeconds;
                 ++i) {
                App app = load.options.apps[(i + c) %
                                            load.options.apps.size()];
                auto r = client.run(load.factory.make(app, rng, 0));
                if (!r.isOk())
                    fatal("warm-up query failed: %s",
                          r.status().toString().c_str());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/** Closed loop: each client sends its next query as soon as the
 * previous one returns, until @p seconds have passed. */
std::vector<ThreadResult>
closedLoop(const Load &load, std::vector<std::unique_ptr<AppClient>> &clients,
           double seconds, uint64_t phase_seed)
{
    const Options &o = load.options;
    std::vector<ThreadResult> results(kClients);
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            AppClient &client = connectClient(clients[c], load.port);
            Rng rng = Rng(phase_seed).split(static_cast<uint64_t>(c) + 1);
            Keeper keeper(rng.next());
            ThreadResult &out = results[static_cast<size_t>(c)];
            // Clients start at different points of the app cycle
            // (one place apart) and of the ASR length strata (about
            // half the strata apart).
            for (uint64_t i = 0; secondsSince(t0) < seconds; ++i) {
                App app = o.apps[(i + c) % o.apps.size()];
                Query q = load.factory.make(
                    app, rng,
                    i + c * (std::size(kUtteranceFrames) / 2 + 1));
                runQuery(load, client, q, t0, out, keeper);
            }
            out.lastDoneS = secondsSince(t0);
            keeper.flush(out);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return results;
}

// ---------------------------------------------------------------
// Phase results

/** A phase's queries, merged over its load threads. */
struct Summary {
    long long attempted = 0;
    long long ok = 0;
    long long errors = 0;

    /** Start to last completion, seconds. */
    double wallS = 0.0;
    std::vector<double> latencyMs;
    std::vector<Record> records;
    std::vector<Kept> kept;
};

/** The timed phase's user-visible numbers. */
struct PhaseResult {
    Summary all;
    double p50Ms = 0.0;
    double tailMs = 0.0;
    double throughputQps = 0.0;
};

PhaseResult
runPhase(const Load &load, std::vector<std::unique_ptr<AppClient>> &clients,
         double seconds, uint64_t phase_seed)
{
    PhaseResult p;
    Summary &s = p.all;
    for (ThreadResult &r : closedLoop(load, clients, seconds, phase_seed)) {
        s.wallS = std::max(s.wallS, r.lastDoneS);
        for (const Record &rec : r.records) {
            ++s.attempted;
            if (rec.ok) {
                ++s.ok;
                s.latencyMs.push_back(rec.latencyMs);
            } else {
                ++s.errors;
            }
            s.records.push_back(rec);
        }
        for (Kept &k : r.kept)
            s.kept.push_back(std::move(k));
    }
    p.p50Ms = percentile(s.latencyMs, 50.0);
    std::vector<const Record *> sent;
    for (const Record &rec : s.records) {
        if (rec.ok)
            sent.push_back(&rec);
    }
    std::stable_sort(sent.begin(), sent.end(),
                     [](const Record *a, const Record *b) {
                         return a->sentS < b->sentS;
                     });
    std::vector<double> in_order;
    for (const Record *rec : sent)
        in_order.push_back(rec->latencyMs);
    p.tailMs = blockPercentile(in_order, load.options.tailPct,
                               static_cast<size_t>(load.options.tailBlock));
    p.throughputQps = static_cast<double>(s.ok) / s.wallS;
    return p;
}

// ---------------------------------------------------------------
// Correctness gate

struct GateResult {
    long long checked = 0;
    long long wrong = 0;
    std::vector<std::string> why;
};

GateResult
runGate(const core::ModelRegistry &registry, uint16_t port,
        std::vector<Kept> &kept, bool corrupt)
{
    if (corrupt && !kept.empty()) {
        std::vector<int> &labels = kept.front().output.labels;
        if (labels.empty())
            labels.push_back(0);
        else
            labels[0] += 1;
    }
    GateResult g;
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&]() {
            core::DjinnClient client;
            if (!client.connect("127.0.0.1", port).isOk())
                fatal("gate: connect failed");
            for (size_t i; (i = next.fetch_add(1)) < kept.size();) {
                const Kept &k = kept[i];
                Check c = checkQuery(registry, k.query, k.output, client);
                std::lock_guard<std::mutex> lock(mutex);
                ++g.checked;
                if (!c.ok) {
                    ++g.wrong;
                    if (g.why.size() < 5)
                        g.why.push_back(c.why);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return g;
}

// ---------------------------------------------------------------
// Per-layer measurements (--trace 1)

/** Mean busy share of the compute pool, sampled every 2 ms. */
class PoolSampler
{
  public:
    PoolSampler()
        : thread_([this]() {
              common::ThreadPool &pool = common::computePool();
              while (!stop_.load()) {
                  sum_ += static_cast<double>(pool.activeWorkers()) /
                          std::max(pool.size(), 1);
                  ++n_;
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(2));
              }
          })
    {}

    PoolSampler(const PoolSampler &) = delete;
    PoolSampler &operator=(const PoolSampler &) = delete;

    ~PoolSampler() { finish(); }

    /** Stop sampling and return the mean. */
    double
    finish()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        return n_ ? sum_ / static_cast<double>(n_) : 0.0;
    }

  private:
    std::atomic<bool> stop_{false};
    double sum_ = 0.0;
    long long n_ = 0;
    std::thread thread_;
};

struct Probe {
    std::string model;
    int64_t rows = 0;
    double forwardMs = 0.0;
    double gflops = 0.0;
};

/** Time Network::forward of each served model at the mean batch
 * rows the run formed; FLOPs from perf::analyzeNetwork. */
std::vector<Probe>
probeForward(const Options &o, const core::ModelRegistry &registry,
             const MetricDelta &delta, SpanRecorder &spans)
{
    std::vector<Probe> probes;
    Rng rng(mix64(o.seed ^ 0x70726f6265ULL));
    for (nn::zoo::Model m : workloadModels(o)) {
        Probe p;
        p.model = nn::zoo::modelName(m);
        auto rows = delta.histogram("djinn_batch_rows", {{"model", p.model}});
        p.rows = rows.count ? std::max<int64_t>(
                                  1, std::llround(rows.sum / rows.count))
                            : 1;
        auto net = registry.find(p.model);
        nn::Tensor input(net->inputShape().withBatch(p.rows));
        for (int64_t i = 0; i < input.elems(); ++i)
            input.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        net->forward(input);
        std::vector<double> ms;
        for (int rep = 0; rep < 3; ++rep) {
            Span s;
            s.id = spans.newId();
            s.trace = s.id;
            s.name = "nn.forward";
            s.startUs = nowUs();
            net->forward(input);
            s.endUs = nowUs();
            spans.record(s);
            ms.push_back((s.endUs - s.startUs) / 1e3);
        }
        p.forwardMs = percentile(ms, 50.0);
        p.gflops = perf::analyzeNetwork(*net, p.rows).totalFlops() /
                   (p.forwardMs * 1e-3) / 1e9;
        probes.push_back(p);
    }
    return probes;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        fatal("cannot write %s", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    setLogLevel(LogLevel::Warn);

    // Set-up, repeated; the median is setup_s. The last stack is
    // the one measured.
    Stack stack;
    std::vector<double> setup_s, load_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        stack.reset();
        SetupTimes t = setUp(o, stack);
        setup_s.push_back(t.setupS);
        load_s.push_back(t.loadS);
    }
    const core::ModelRegistry &registry = *stack.registry;
    core::DjinnServer &server = *stack.server;

    QueryFactory factory(o.apps, o.seed);
    std::vector<std::unique_ptr<AppClient>> clients(kClients);
    SpanRecorder spans;
    Load load{o, factory, registry, server.port(), nullptr};
    warmUp(load, clients);

    // With --trace 1 the timed time is split: an untraced half,
    // then a traced half measured the same way; their difference
    // is the tracing overhead.
    double phase_s = o.trace ? o.seconds / 2.0 : o.seconds;
    PhaseResult untraced;
    if (o.trace)
        untraced = runPhase(load, clients, phase_s, mix64(o.seed) ^ 1);
    if (o.trace)
        load.spans = &spans;
    auto before = server.metrics().snapshot();
    std::unique_ptr<PoolSampler> pool;
    if (o.trace)
        pool = std::make_unique<PoolSampler>();
    PhaseResult phase = runPhase(load, clients, phase_s, mix64(o.seed));
    double pool_busy = pool ? pool->finish() : 0.0;
    MetricDelta delta(before, server.metrics().snapshot());
    double peak_rss_mb = peakRssMb();

    std::vector<Kept> kept = std::move(phase.all.kept);
    for (Kept &k : untraced.all.kept)
        kept.push_back(std::move(k));
    GateResult gate = runGate(registry, server.port(), kept,
                              o.corruptReply);

    // Every query of both halves counts; the run passes only if
    // none failed, the gate checked at least one reply, and every
    // checked reply was right.
    long long errors = phase.all.errors + untraced.all.errors;
    long long failed = errors + gate.wrong;
    long long attempted = std::max<long long>(
        phase.all.attempted + untraced.all.attempted, 1);
    bool correct = gate.wrong == 0 && gate.checked > 0;
    bool pass = correct && errors == 0;

    // Human-readable report; the JSON result is the last line.
    std::printf("workload %s seed %llu clients %d trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                kClients, o.trace ? 1 : 0);
    for (App app : std::set<App>(o.apps.begin(), o.apps.end())) {
        std::vector<double> ms;
        for (const Record &r : phase.all.records) {
            if (r.app == app && r.ok)
                ms.push_back(r.latencyMs);
        }
        std::printf("  app %-4s n %5zu  p50 %8.2f ms  p95 %8.2f ms\n",
                    appName(app), ms.size(), percentile(ms, 50.0),
                    percentile(ms, 95.0));
    }
    std::set<uint64_t> distinct;
    for (const Record &r : phase.all.records)
        distinct.insert(r.inputId);
    double repeat_share =
        phase.all.records.empty()
            ? 0.0
            : 1.0 - static_cast<double>(distinct.size()) /
                        static_cast<double>(phase.all.records.size());
    size_t samples = phase.all.latencyMs.size();
    size_t block = static_cast<size_t>(o.tailBlock);
    if (block > 0 && block < samples) {
        std::printf("  tail p%g of each block of %zu queries in send "
                    "order, median over %zu blocks (whole-phase p95 "
                    "%.2f ms)\n",
                    o.tailPct, block, samples / block,
                    percentile(phase.all.latencyMs, 95.0));
    } else {
        std::printf("  tail p%g over %zu samples (%lld beyond)\n",
                    o.tailPct, samples,
                    static_cast<long long>(std::floor(
                        (1.0 - o.tailPct / 100.0) *
                        static_cast<double>(samples))));
    }
    std::printf("  input repeat share %.4f over %zu queries\n",
                repeat_share, phase.all.records.size());
    std::printf("  gate: %lld replies checked, %lld wrong\n", gate.checked,
                gate.wrong);
    for (const std::string &why : gate.why)
        std::printf("  gate: WRONG %s\n", why.c_str());
    std::printf("  fail_frac %.6f (%lld of %lld: %lld errors, %lld wrong)\n",
                static_cast<double>(failed) / attempted, failed, attempted,
                errors, gate.wrong);

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", percentile(setup_s, 50.0), "s"},
            {"p50_ms", phase.p50Ms, "ms"},
            {"tail_ms", phase.tailMs, "ms"},
            {"throughput_qps", phase.throughputQps, "1/s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
    } else {
        double pre = 0, svc = 0, post = 0, bytes = 0;
        for (const Record &r : phase.all.records) {
            if (!r.ok)
                continue;
            pre += r.times.preprocess;
            svc += r.times.service;
            post += r.times.postprocess;
            bytes += static_cast<double>(r.wireBytes);
        }
        double ok = std::max<double>(static_cast<double>(phase.all.ok), 1);
        auto phase_hist = [&](const char *name) {
            return delta.histogram(telemetry::phaseMetricName,
                                   {{"phase", name}});
        };
        auto hist_mean_ms = [](const HistogramSnapshot &h) {
            return h.count ? h.sum / static_cast<double>(h.count) * 1e3
                           : 0.0;
        };
        HistogramSnapshot queue_wait = phase_hist("queue_wait");
        HistogramSnapshot service = phase_hist("service");
        HistogramSnapshot batch_rows = delta.histogram("djinn_batch_rows");
        double batches = delta.counter("djinn_batches_total");
        double served = delta.counter("djinn_requests_total");
        double client_infer_ms = svc / ok * 1e3;

        // Per-request forward time: each request waits for its
        // batch's whole pass, so weight a model's mean pass by its
        // requests.
        double forward_s = 0.0;
        for (nn::zoo::Model m : workloadModels(o)) {
            const char *name = nn::zoo::modelName(m);
            HistogramSnapshot f = delta.histogram(
                telemetry::phaseMetricName,
                {{"phase", "forward"}, {"model", name}});
            double b = delta.counter("djinn_batches_total", {{"model", name}});
            if (b > 0)
                forward_s += f.sum / b *
                             delta.counter("djinn_requests_total",
                                           {{"model", name}});
        }
        double query_s = 0.0;
        for (double ms : phase.all.latencyMs)
            query_s += ms / 1e3;

        std::vector<Probe> probes =
            probeForward(o, registry, delta, spans);
        std::vector<Span> all_spans = spans.spans();
        auto self_us = layerSelfUs(all_spans);
        std::string trace_out =
            o.traceOut.empty() ? o.workload + ".spans.json" : o.traceOut;
        writeFile(trace_out,
                  spansJson(all_spans, self_us, o.workload, o.seed));
        std::printf("  spans: %zu written to %s\n", all_spans.size(),
                    trace_out.c_str());
        for (const auto &[layer, us] : self_us)
            std::printf("  self time %-6s %.1f ms\n", layer.c_str(),
                        us / 1e3);

        double overhead =
            untraced.throughputQps / phase.throughputQps - 1.0;

        metrics = {
            {"tonic.pre_ms", pre / ok * 1e3, "ms"},
            {"tonic.post_ms", post / ok * 1e3, "ms"},
            {"tonic.pre_share", pre / std::max(pre + svc + post, 1e-12),
             "frac"},
        };
        for (App app : kAllApps) {
            std::string name = nn::zoo::modelName(modelFor(app));
            Probe found;
            for (const Probe &p : probes) {
                if (p.model == name)
                    found = p;
            }
            metrics.push_back({"nn.forward_ms." + name, found.forwardMs, "ms"});
            metrics.push_back({"nn.gflops." + name, found.gflops, "GFLOP/s"});
        }
        metrics.push_back({"nn.forward_share",
                           query_s > 0 ? forward_s / query_s : 0.0, "frac"});
        metrics.push_back({"core.batcher.queue_wait_ms",
                           hist_mean_ms(queue_wait), "ms"});
        metrics.push_back({"core.batcher.queue_wait_p99_ms",
                           queue_wait.quantile(0.99) * 1e3, "ms"});
        metrics.push_back({"core.batcher.queries_per_batch",
                           batches > 0 ? served / batches : 0.0, "count"});
        metrics.push_back({"core.batcher.rows_per_batch",
                           batch_rows.count ? batch_rows.sum /
                                                  static_cast<double>(
                                                      batch_rows.count)
                                            : 0.0,
                           "count"});
        metrics.push_back({"core.client.infer_ms", client_infer_ms, "ms"});
        metrics.push_back({"core.client.bytes_per_query", bytes / ok, "B"});
        metrics.push_back({"core.server.decode_ms",
                           hist_mean_ms(phase_hist("decode")), "ms"});
        metrics.push_back({"core.server.encode_ms",
                           hist_mean_ms(phase_hist("encode")), "ms"});
        metrics.push_back({"core.server.service_ms", hist_mean_ms(service),
                           "ms"});
        metrics.push_back({"core.transport_ms",
                           client_infer_ms - hist_mean_ms(service), "ms"});
        metrics.push_back({"core.server.shed",
                           delta.counter("djinn_shed_total"), "count"});
        metrics.push_back({"core.server.errors",
                           delta.counter("djinn_request_errors_total"),
                           "count"});
        metrics.push_back({"core.registry.load_s", percentile(load_s, 50.0),
                           "s"});
        metrics.push_back({"core.registry.weight_mb",
                           static_cast<double>(registry.totalWeightBytes()) /
                               1e6,
                           "MB"});
        metrics.push_back({"common.pool_busy", pool_busy, "frac"});
        metrics.push_back({"gen.sent", static_cast<double>(attempted),
                           "count"});
        metrics.push_back({"gen.ok",
                           static_cast<double>(phase.all.ok +
                                               untraced.all.ok),
                           "count"});
        metrics.push_back({"gen.failed", static_cast<double>(failed),
                           "count"});
        metrics.push_back({"trace.overhead_frac", overhead, "frac"});
        metrics.push_back({"trace.spans",
                           static_cast<double>(all_spans.size()), "count"});
        metrics.push_back({"trace.self_ms.tonic",
                           self_us["tonic"] / 1e3 / ok, "ms"});
        metrics.push_back({"trace.self_ms.core",
                           self_us["core"] / 1e3 / ok, "ms"});
        metrics.push_back({"trace.self_ms.nn",
                           self_us["nn"] / 1e3 /
                               std::max<double>(3.0 * probes.size(), 1.0),
                           "ms"});
    }
    for (const Metric &m : metrics)
        std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n",
                resultJson(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    stack.reset();
    return pass ? 0 : 1;
}
