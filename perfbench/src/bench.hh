/**
 * @file
 * Shared pieces of the repository benchmark: clocks, statistics, the
 * in-memory span recorder, the allocation counter, and the result a
 * load hands back to main.cc.
 *
 * The benchmark has three loads — the paper matrix (paper.cc), the
 * soundness hammer (hammer.cc) and rexd (rexd.cc). An untraced run
 * measures the load its workload names; a traced run traces all three,
 * so that every layer reports.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/** splitmix64: derives independent input streams from one seed. */
std::uint64_t mix(std::uint64_t x);

/** Fisher-Yates shuffle of @p items, deterministic in @p seed. */
template <typename T>
void
seededShuffle(std::vector<T> &items, std::uint64_t seed)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        seed = mix(seed);
        std::swap(items[i - 1], items[seed % i]);
    }
}

/** Linearly interpolated quantile (q in [0,1]); 0 for no values. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** @p value as a JSON number with all its digits ("null" if not finite). */
std::string jsonNumber(double value);

/** Give freed heap back and restart the resident-set high-water mark
 *  (Linux; elsewhere the mark keeps the whole run's peak). */
void resetResidentPeak();

/** Resident-set high-water mark since the last reset, in MB. */
double residentPeakMb();

/** Allocation counting (alloc.cc). Counts only while switched on. */
void setAllocCounting(bool on);
std::uint64_t allocatedBytes();

/** One recorded span. Parent and id are 1-based span indices. */
struct Span {
    const char *name = "";
    std::uint32_t parent = 0;
    std::uint64_t key = 0;  //!< seed, cell or request id
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * In-memory span recorder. A disabled tracer records nothing and
 * returns span id 0. Thread-safe: the rexd load records from its
 * connection threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span starting now; returns its id (0 when disabled). */
    std::uint32_t open(const char *name, std::uint64_t key,
                       std::uint32_t parent = 0);

    /** End span @p id now (no-op for id 0). */
    void close(std::uint32_t id);

    /** Record a finished span with explicit times. */
    std::uint32_t record(const char *name, std::uint64_t key,
                         std::uint32_t parent, Clock::time_point start,
                         Clock::time_point end);

    std::vector<Span> spans() const;

  private:
    bool _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;  //!< guarded by _mutex
};

/** Scoped span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::uint64_t key,
          std::uint32_t parent = 0)
        : _tracer(tracer), _id(tracer.open(name, key, parent))
    {}
    ~Scope() { _tracer.close(_id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return _id; }

  private:
    Tracer &_tracer;
    std::uint32_t _id;
};

/** Run @p work inside a leaf span; returns its duration in µs (timed
 *  whether or not the tracer records). */
template <typename Work>
double
timedSpan(Tracer &tracer, const char *name, std::uint64_t key,
          std::uint32_t parent, Work &&work)
{
    const Clock::time_point start = Clock::now();
    work();
    const Clock::time_point end = Clock::now();
    tracer.record(name, key, parent, start, end);
    return microsBetween(start, end);
}

/** Per-name self time (span duration minus direct children), µs. */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans);

/** A named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The reconciliation of one load's traced phase: span self-times
 * against the phase's wall clock, and the end-to-end value measured
 * with and without tracing.
 */
struct Reconciliation {
    std::string load;
    double wallUs = 0;  //!< wall clock the spans are measured against
    std::map<std::string, double> selfUs;
    /** Derived split of the end-to-end timed work, µs (may be empty). */
    std::map<std::string, double> derivedUs;
    std::string e2eMetric;
    double e2eUntraced = 0;
    double e2eTraced = 0;

    double unattributedShare() const;
    std::string toJson() const;
};

/** What a load hands back to main.cc. */
struct LoadResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Correctness problems beyond counted failures (empty = correct). */
    std::vector<std::string> problems;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Resident-set high-water mark of each check on its first visit,
     *  MB (untraced runs). */
    std::vector<double> checkPeakMb;
    Reconciliation report;
    std::vector<Span> spans;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
