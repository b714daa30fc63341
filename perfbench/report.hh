/**
 * @file
 * Measurement helpers for the benchmark: order statistics, deltas
 * of the server's public metric registry over a timed phase, peak
 * memory, and the result line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hh"

namespace perfbench {

using djinn::telemetry::HistogramSnapshot;
using djinn::telemetry::LabelMap;
using djinn::telemetry::MetricSample;

/** The @p pct-th percentile (0..100) of @p values, interpolating
 * linearly between order statistics; 0 when empty. */
double percentile(std::vector<double> values, double pct);

/**
 * Cut @p values, kept in their given order, into consecutive blocks
 * of @p block (a short last block is dropped unless it is the only
 * one; 0 makes all of @p values one block) and return the median
 * over blocks of each block's @p pct-th percentile. A tail taken
 * this way follows what most blocks see, so a burst of slow
 * queries in a few blocks does not move it.
 */
double blockPercentile(const std::vector<double> &values, double pct,
                       size_t block);

/**
 * The change in a metric registry between two snapshots. Series of
 * one name are summed (counters) or merged bucket-wise (histograms)
 * across every label set that contains @p match.
 */
class MetricDelta
{
  public:
    MetricDelta(std::vector<MetricSample> before,
                std::vector<MetricSample> after);

    double counter(const std::string &name,
                   const LabelMap &match = {}) const;

    HistogramSnapshot histogram(const std::string &name,
                                const LabelMap &match = {}) const;

  private:
    const MetricSample *find(const std::vector<MetricSample> &in,
                             const MetricSample &like) const;

    std::vector<MetricSample> before_;
    std::vector<MetricSample> after_;
};

/** Peak resident set size of this process, MB (VmHWM). */
double peakRssMb();

/** One named metric of the result line. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, long long attempted,
                       long long failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
