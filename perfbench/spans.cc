#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

void
SpanRecorder::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::map<std::string, double>
layerSelfUs(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, double> self;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<double, double>> cover;
        auto it = children.find(s.id);
        if (it != children.end()) {
            for (const Span *c : it->second) {
                double lo = std::max(c->startUs, s.startUs);
                double hi = std::min(c->endUs, s.endUs);
                if (hi > lo)
                    cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0, reach = s.startUs;
        for (const auto &[lo, hi] : cover) {
            double from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        self[layer] += (s.endUs - s.startUs) - covered;
    }
    return self;
}

std::string
spansJson(const std::vector<Span> &spans,
          const std::map<std::string, double> &self_us,
          const std::string &workload, uint64_t seed)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"%s\", \"seed\": %" PRIu64
                  ", \"self_ms\": {",
                  workload.c_str(), seed);
    out += buf;
    bool first = true;
    for (const auto &[layer, us] : self_us) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f",
                      first ? "" : ", ", layer.c_str(), us / 1e3);
        out += buf;
        first = false;
    }
    out += "},\n \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "  {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                      ", \"trace\": %" PRIu64
                      ", \"name\": \"%s\", \"start_us\": %.1f, "
                      "\"end_us\": %.1f}%s\n",
                      s.id, s.parent, s.trace, s.name, s.startUs,
                      s.endUs, i + 1 < spans.size() ? "," : "");
        out += buf;
    }
    out += " ]}\n";
    return out;
}

} // namespace perfbench
