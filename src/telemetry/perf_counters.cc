#include "telemetry/perf_counters.hh"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace djinn {
namespace telemetry {

namespace {

long
perfEventOpen(perf_event_attr *attr, pid_t pid, int cpu,
              int group_fd, unsigned long flags)
{
    return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                     flags);
}

/** Open one counter on the calling thread, any CPU. */
int
openCounter(uint32_t type, uint64_t config, int group_fd,
            bool leader)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = leader ? 1 : 0;
    attr.exclude_kernel = 1; // paranoid >= 2 still allows user
    attr.exclude_hv = 1;
    if (leader) {
        attr.read_format = PERF_FORMAT_GROUP |
                           PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
    }
    return static_cast<int>(
        perfEventOpen(&attr, 0, -1, group_fd, 0));
}

/** Thread CPU time in nanoseconds (always available). */
uint64_t
threadCpuNs()
{
    timespec ts;
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0;
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // namespace

void
CounterDelta::add(const CounterDelta &other)
{
    cycles += other.cycles;
    instructions += other.instructions;
    cacheRefs += other.cacheRefs;
    cacheMisses += other.cacheMisses;
    taskClockNs += other.taskClockNs;
    wallNs += other.wallNs;
    hardware = hardware || other.hardware;
}

void
CounterDelta::subtract(const CounterDelta &other)
{
    cycles -= std::min(cycles, other.cycles);
    instructions -= std::min(instructions, other.instructions);
    cacheRefs -= std::min(cacheRefs, other.cacheRefs);
    cacheMisses -= std::min(cacheMisses, other.cacheMisses);
    taskClockNs -= std::min(taskClockNs, other.taskClockNs);
    wallNs -= std::min(wallNs, other.wallNs);
}

CounterSet::CounterSet() : CounterSet(Config{}) {}

CounterSet::CounterSet(const Config &config)
{
    if (config.disabled)
        return;

    // The hardware group: cycles leads; instructions and the two
    // cache counters join it so all four are scheduled (and
    // multiplex-scaled) together.
    groupFd_ = openCounter(config.leaderType,
                           PERF_COUNT_HW_CPU_CYCLES, -1, true);
    if (groupFd_ >= 0) {
        static const uint64_t members[3] = {
            PERF_COUNT_HW_INSTRUCTIONS,
            PERF_COUNT_HW_CACHE_REFERENCES,
            PERF_COUNT_HW_CACHE_MISSES,
        };
        bool ok = true;
        for (int i = 0; i < 3; ++i) {
            memberFds_[i] = openCounter(config.leaderType,
                                        members[i], groupFd_,
                                        false);
            if (memberFds_[i] < 0)
                ok = false;
        }
        if (ok) {
            ::ioctl(groupFd_, PERF_EVENT_IOC_RESET,
                    PERF_IOC_FLAG_GROUP);
            ::ioctl(groupFd_, PERF_EVENT_IOC_ENABLE,
                    PERF_IOC_FLAG_GROUP);
        } else {
            // Partial groups would skew IPC; all or nothing.
            for (int i = 0; i < 3; ++i) {
                if (memberFds_[i] >= 0) {
                    ::close(memberFds_[i]);
                    memberFds_[i] = -1;
                }
            }
            ::close(groupFd_);
            groupFd_ = -1;
        }
    }

    // Task-clock is a software event and schedules independently
    // of the PMU, so it gets its own single-member group; when even
    // that fails, snapshots fall back to CLOCK_THREAD_CPUTIME_ID.
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = config.leaderType == 0 ? PERF_TYPE_SOFTWARE
                                       : config.leaderType;
    attr.config = PERF_COUNT_SW_TASK_CLOCK;
    attr.exclude_hv = 1;
    taskClockFd_ = static_cast<int>(
        perfEventOpen(&attr, 0, -1, -1, 0));
}

CounterSet::~CounterSet()
{
    for (int i = 0; i < 3; ++i) {
        if (memberFds_[i] >= 0)
            ::close(memberFds_[i]);
    }
    if (groupFd_ >= 0)
        ::close(groupFd_);
    if (taskClockFd_ >= 0)
        ::close(taskClockFd_);
}

CounterSet::Snapshot
CounterSet::snapshot() const
{
    Snapshot snap;
    snap.wall = std::chrono::steady_clock::now();

    if (groupFd_ >= 0) {
        // PERF_FORMAT_GROUP layout: nr, time_enabled,
        // time_running, then one value per member in open order.
        struct {
            uint64_t nr;
            uint64_t timeEnabled;
            uint64_t timeRunning;
            uint64_t values[4];
        } data;
        ssize_t n = ::read(groupFd_, &data, sizeof(data));
        if (n >= static_cast<ssize_t>(sizeof(uint64_t) * 7) &&
            data.nr == 4) {
            // Multiplex scaling: when the PMU was oversubscribed
            // the group only ran for part of the enabled window.
            double scale = 1.0;
            if (data.timeRunning > 0 &&
                data.timeRunning < data.timeEnabled) {
                scale = static_cast<double>(data.timeEnabled) /
                        static_cast<double>(data.timeRunning);
            }
            for (int i = 0; i < 4; ++i) {
                snap.values[i] = static_cast<uint64_t>(
                    static_cast<double>(data.values[i]) * scale);
            }
            snap.hardware = true;
        }
    }

    if (taskClockFd_ >= 0) {
        uint64_t ns = 0;
        if (::read(taskClockFd_, &ns, sizeof(ns)) ==
            static_cast<ssize_t>(sizeof(ns))) {
            snap.taskClockNs = ns;
        }
    }
    if (snap.taskClockNs == 0)
        snap.taskClockNs = threadCpuNs();
    return snap;
}

CounterDelta
CounterSet::delta(const Snapshot &begin, const Snapshot &end)
{
    CounterDelta d;
    d.wallNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            end.wall - begin.wall)
            .count());
    d.taskClockNs = end.taskClockNs >= begin.taskClockNs
                        ? end.taskClockNs - begin.taskClockNs
                        : 0;
    if (begin.hardware && end.hardware) {
        d.hardware = true;
        uint64_t v[4];
        for (int i = 0; i < 4; ++i) {
            v[i] = end.values[i] >= begin.values[i]
                       ? end.values[i] - begin.values[i]
                       : 0;
        }
        d.cycles = v[0];
        d.instructions = v[1];
        d.cacheRefs = v[2];
        d.cacheMisses = v[3];
    }
    return d;
}

CounterSet &
threadCounterSet()
{
    thread_local CounterSet set;
    return set;
}

const CounterDelta &
CounterScope::stop()
{
    if (!done_) {
        done_ = true;
        delta_ = CounterSet::delta(begin_,
                                   threadCounterSet().snapshot());
    }
    return delta_;
}

bool
perfCountersAvailable()
{
    static const bool available = []() {
        CounterSet probe;
        return probe.hardware();
    }();
    return available;
}

} // namespace telemetry
} // namespace djinn
