/**
 * @file
 * Statistics, span recording and reconciliation for the benchmark.
 */

#include "bench.hh"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
resetResidentPeak()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
residentPeakMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::uint32_t
Tracer::open(const char *name, std::uint64_t key, std::uint32_t parent)
{
    if (!_enabled)
        return 0;
    Span span;
    span.name = name;
    span.parent = parent;
    span.key = key;
    span.start = Clock::now();
    span.end = span.start;
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(span);
    return static_cast<std::uint32_t>(_spans.size());
}

void
Tracer::close(std::uint32_t id)
{
    if (id == 0)
        return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[id - 1].end = now;
}

std::uint32_t
Tracer::record(const char *name, std::uint64_t key, std::uint32_t parent,
               Clock::time_point start, Clock::time_point end)
{
    if (!_enabled)
        return 0;
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(Span{name, parent, key, start, end});
    return static_cast<std::uint32_t>(_spans.size());
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = microsBetween(spans[i].start, spans[i].end);
    for (const Span &span : spans) {
        if (span.parent != 0)
            self[span.parent - 1] -= microsBetween(span.start, span.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

double
Reconciliation::unattributedShare() const
{
    if (wallUs <= 0)
        return 0;
    double attributed = 0;
    for (const auto &[name, us] : selfUs)
        attributed += us;
    return (wallUs - attributed) / wallUs;
}

std::string
Reconciliation::toJson() const
{
    auto members = [](const std::map<std::string, double> &values) {
        std::string out = "{";
        for (const auto &[name, us] : values) {
            if (out.size() > 1)
                out += ", ";
            out += "\"" + name + "\": " + jsonNumber(us);
        }
        return out + "}";
    };
    return "{\"load\": \"" + load + "\", \"wall_us\": " +
           jsonNumber(wallUs) + ", \"self_us\": " + members(selfUs) +
           ", \"unattributed_share\": " + jsonNumber(unattributedShare()) +
           ", \"derived_us\": " + members(derivedUs) +
           ", \"e2e_metric\": \"" + e2eMetric + "\", \"untraced\": " +
           jsonNumber(e2eUntraced) + ", \"traced\": " +
           jsonNumber(e2eTraced) + ", \"tracing_overhead\": " +
           jsonNumber(e2eTraced - e2eUntraced) + "}";
}

} // namespace perfbench
