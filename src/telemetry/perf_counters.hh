/**
 * @file
 * Hardware cycle accounting via perf_event_open: a per-thread
 * counter group (cycles, instructions, cache-references,
 * cache-misses, task-clock) read at phase boundaries so every
 * sampled request yields a Figure-4-style breakdown of where its
 * cycles went, plus per-phase and per-layer IPC.
 *
 * perf_event_open is frequently unavailable (containers, seccomp,
 * perf_event_paranoid >= 3, missing PMU); every interface here
 * degrades gracefully to clock-only accounting: deltas keep their
 * wall-clock and thread-CPU nanoseconds, hardware fields read as
 * zero, and CounterDelta::work() reports nanoseconds instead of
 * cycles. Availability is probed once per process
 * (perfCountersAvailable()) and exported as the
 * `djinn_perf_counters_available` gauge so dashboards know which
 * unit `djinn_phase_cycles` carries.
 */

#ifndef DJINN_TELEMETRY_PERF_COUNTERS_HH
#define DJINN_TELEMETRY_PERF_COUNTERS_HH

#include <chrono>
#include <cstdint>

namespace djinn {
namespace telemetry {

/** Gauge name: 1 when hardware counters drive cycle accounting. */
inline const char *const perfAvailableMetricName =
    "djinn_perf_counters_available";

/**
 * Counter movement between two snapshots of one thread's group.
 * Hardware fields are zero when the group could not be opened.
 */
struct CounterDelta {
    /** CPU cycles retired by the thread. */
    uint64_t cycles = 0;

    /** Instructions retired by the thread. */
    uint64_t instructions = 0;

    /** Last-level cache references. */
    uint64_t cacheRefs = 0;

    /** Last-level cache misses. */
    uint64_t cacheMisses = 0;

    /** Thread CPU time (perf task-clock, or
     * CLOCK_THREAD_CPUTIME_ID when the software event is also
     * unavailable), nanoseconds. */
    uint64_t taskClockNs = 0;

    /** Wall time between the snapshots, nanoseconds. Always set. */
    uint64_t wallNs = 0;

    /** True when the hardware fields come from real counters. */
    bool hardware = false;

    /** Instructions per cycle; 0 when counters are unavailable. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * The phase-breakdown unit: cycles when hardware counters are
     * live, wall nanoseconds otherwise (the fallback unit the
     * `djinn_perf_counters_available` gauge disambiguates).
     */
    uint64_t
    work() const
    {
        return hardware ? cycles : wallNs;
    }

    /** Accumulate another delta (for per-layer -> per-phase sums). */
    void add(const CounterDelta &other);

    /** Remove a nested delta (a span's work charged elsewhere);
     * each field stops at zero. */
    void subtract(const CounterDelta &other);
};

/**
 * One thread's counter group. The perf fds count the opening
 * thread only, so a CounterSet must be created and read on the
 * same thread (enforced in debug by the owner's discipline, not a
 * runtime check — perf itself returns zeros for foreign threads).
 *
 * Construction never fails: when any perf fd cannot be opened the
 * set silently runs in fallback mode (hardware() == false) and
 * snapshots carry clock values only.
 */
class CounterSet
{
  public:
    /** Event configuration, overridable to force the fallback
     * path in tests (a bogus type makes perf_event_open fail with
     * EINVAL exactly like a restricted container fails with
     * EACCES). */
    struct Config {
        /** perf event type for the hardware group leader;
         * PERF_TYPE_HARDWARE normally, a bogus value in tests. */
        uint32_t leaderType = 0; // PERF_TYPE_HARDWARE

        /** Force fallback without touching the syscall at all. */
        bool disabled = false;
    };

    CounterSet();
    explicit CounterSet(const Config &config);

    /** Closes the perf fds. */
    ~CounterSet();

    CounterSet(const CounterSet &) = delete;
    CounterSet &operator=(const CounterSet &) = delete;

    /** True when the hardware group opened and is counting. */
    bool hardware() const { return groupFd_ >= 0; }

    /** Point-in-time reading used to form deltas. */
    struct Snapshot {
        uint64_t values[4] = {0, 0, 0, 0}; ///< hw counters, scaled
        uint64_t taskClockNs = 0;
        std::chrono::steady_clock::time_point wall;
        bool hardware = false;
    };

    /** Read the group now. Cheap: one read(2) when hardware. */
    Snapshot snapshot() const;

    /** Counter movement from @p begin to @p end. */
    static CounterDelta delta(const Snapshot &begin,
                              const Snapshot &end);

  private:
    int groupFd_ = -1;      ///< leader (cycles); -1 in fallback
    int memberFds_[3] = {-1, -1, -1};
    int taskClockFd_ = -1;  ///< software task-clock; own group
};

/**
 * The calling thread's lazily created CounterSet. Worker and HTTP
 * threads all account through this so scopes
 * never pay an open() on the hot path.
 */
CounterSet &threadCounterSet();

/**
 * RAII accounting scope: snapshots the calling thread's counters
 * at construction, and stop() (or destruction) yields the delta.
 * Scopes nest like trace spans — each keeps its own begin
 * snapshot, so an inner scope's delta is a subset of its
 * enclosing scope's delta on the same thread.
 */
class CounterScope
{
  public:
    CounterScope() : begin_(threadCounterSet().snapshot()) {}

    CounterScope(const CounterScope &) = delete;
    CounterScope &operator=(const CounterScope &) = delete;

    /** Delta since construction. Idempotent: the snapshot is
     * taken on the first call; later calls return the same
     * delta. */
    const CounterDelta &stop();

    /** stop() without needing the result. */
    ~CounterScope()
    {
        if (!done_)
            stop();
    }

  private:
    CounterSet::Snapshot begin_;
    CounterDelta delta_;
    bool done_ = false;
};

/**
 * Whether this process can use hardware counters, probed once on
 * first call (by opening a throwaway group on the calling thread)
 * and cached. Export the result as the
 * `djinn_perf_counters_available` gauge at startup.
 */
bool perfCountersAvailable();

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_PERF_COUNTERS_HH
