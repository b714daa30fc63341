/**
 * @file
 * The benchmark's own span recorder. Spans are taken around calls
 * into public functions from the benchmark's code only, kept in
 * memory, and written out as JSON when the run ends; nothing in the
 * serving stack is instrumented, so a change to telemetry::Tracer
 * cannot change what the benchmark measures.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One timed interval. Times are steady-clock microseconds. */
struct Span {
    uint64_t id = 0;

    /** Enclosing span's id; 0 for a root. */
    uint64_t parent = 0;

    /** Shared by every span of one query (or one probe). */
    uint64_t trace = 0;

    /** "<layer>.<step>", e.g. "tonic.pre"; the layer is the part
     * before the first dot. Must point at a string literal. */
    const char *name = "";

    double startUs = 0.0;
    double endUs = 0.0;
};

/** Thread-safe in-memory span sink. */
class SpanRecorder
{
  public:
    /** A fresh span id (so a parent's id exists before its
     * children are recorded). */
    uint64_t newId() { return next_.fetch_add(1) + 1; }

    void record(const Span &span);

    /** Everything recorded so far. */
    std::vector<Span> spans() const;

  private:
    std::atomic<uint64_t> next_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Steady-clock now, microseconds. */
double nowUs();

/**
 * Self time summed per layer, microseconds: each span's duration
 * minus the part of it its direct children cover.
 */
std::map<std::string, double> layerSelfUs(const std::vector<Span> &spans);

/** Render spans and per-layer self times as one JSON document. */
std::string spansJson(const std::vector<Span> &spans,
                      const std::map<std::string, double> &self_us,
                      const std::string &workload, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
