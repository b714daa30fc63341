#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

bool
labelsContain(const LabelMap &labels, const LabelMap &match)
{
    for (const auto &[key, value] : match) {
        auto it = labels.find(key);
        if (it == labels.end() || it->second != value)
            return false;
    }
    return true;
}

} // namespace

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
blockPercentile(const std::vector<double> &values, double pct, size_t block)
{
    if (block == 0 || block >= values.size())
        return percentile(values, pct);
    std::vector<double> tails;
    for (size_t at = 0; at + block <= values.size(); at += block) {
        tails.push_back(percentile(
            std::vector<double>(values.begin() + at,
                                values.begin() + at + block),
            pct));
    }
    return percentile(tails, 50.0);
}

MetricDelta::MetricDelta(std::vector<MetricSample> before,
                         std::vector<MetricSample> after)
    : before_(std::move(before)), after_(std::move(after))
{}

const MetricSample *
MetricDelta::find(const std::vector<MetricSample> &in,
                  const MetricSample &like) const
{
    for (const MetricSample &s : in) {
        if (s.name == like.name && s.labels == like.labels)
            return &s;
    }
    return nullptr;
}

double
MetricDelta::counter(const std::string &name, const LabelMap &match) const
{
    double total = 0.0;
    for (const MetricSample &s : after_) {
        if (s.name != name || !labelsContain(s.labels, match))
            continue;
        const MetricSample *b = find(before_, s);
        total += s.value - (b ? b->value : 0.0);
    }
    return total;
}

HistogramSnapshot
MetricDelta::histogram(const std::string &name, const LabelMap &match) const
{
    HistogramSnapshot out;
    bool first = true;
    for (const MetricSample &s : after_) {
        if (s.name != name || !labelsContain(s.labels, match))
            continue;
        const HistogramSnapshot &a = s.histogram;
        const MetricSample *b = find(before_, s);
        if (first) {
            out.options = a.options;
            out.buckets.assign(a.buckets.size(), 0);
            first = false;
        }
        if (out.buckets.size() != a.buckets.size())
            continue;
        for (size_t i = 0; i < a.buckets.size(); ++i) {
            out.buckets[i] += a.buckets[i] -
                              (b ? b->histogram.buckets[i] : 0);
        }
        out.count += a.count - (b ? b->histogram.count : 0);
        out.sum += a.sum - (b ? b->histogram.sum : 0.0);
        out.max = std::max(out.max, a.max);
    }
    return out;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::string
resultJson(bool correct, long long attempted, long long failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
        out += buf;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
