/**
 * @file
 * The benchmark's main program.
 *
 *   perfbench --workload paper_matrix|hammer_random|hammer_cycle
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Set-up (registry build, catc compile warm-up, cycle inventory, server
 * start and cache warm-up) runs once in this process. An untraced run
 * then measures the workload's own load in slices, with a cold set-up
 * in a child process after each; setup_s is the fastest set-up. It
 * prints the end-to-end metrics.
 * A traced run traces every load — the workload's own for the largest
 * share of the time — prints the per-layer metrics, and writes its
 * spans and a reconciliation report per load to DIR.
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, and the metrics by name with their units.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "loads.hh"

namespace perfbench {

namespace {

/** The untraced measurement runs in this many slices, each followed by
 *  one cold set-up: the set-up samples are spread over the run, as the
 *  checks are, so the fastest is not set by one stretch of a shared
 *  machine. */
constexpr int kSlices = 12;

/** Share of a traced run's time for the rexd load; the workload's own
 *  load takes two thirds of the rest and the other load one third. */
constexpr double kTracedRexdShare = 0.35;

/** Share of the traced hammer's time in the mode the workload names
 *  (random mode when the workload is paper_matrix). */
constexpr double kTracedOwnModeShare = 0.7;

const char *const kWorkloads[] = {"paper_matrix", "hammer_random",
                                  "hammer_cycle"};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool traced = false;
    std::string outDir = "perfbench/out";
};

/** Everything set-up builds. */
struct Setup {
    PaperInputs paper;
    HammerInputs hammer;
    std::unique_ptr<RexdServer> rexd;
};

Setup
setUp(std::uint64_t seed)
{
    Setup setup;
    setup.paper = paperSetup();
    setup.hammer = hammerSetup(seed);
    setup.rexd = rexdSetup(seed);
    return setup;
}

/** Write all @p size bytes of @p data to @p fd; false on an error. */
bool
writeAll(int fd, const void *data, std::size_t size)
{
    const char *at = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = write(fd, at, size);
        if (n <= 0)
            return false;
        at += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Time one set-up in a child process; its seconds, or a negative
 *  number if it failed. */
double
childSetupSeconds(std::uint64_t seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1;
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        close(fds[0]);
        double seconds = -1;
        try {
            const Clock::time_point start = Clock::now();
            const Setup setup = setUp(seed);
            seconds = secondsSince(start);
            // Exit before the server's drain, which can wait a second
            // for its timer.
            _exit(writeAll(fds[1], &seconds, sizeof seconds) ? 0 : 1);
        } catch (...) {
        }
        _exit(writeAll(fds[1], &seconds, sizeof seconds) ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1;
    if (read(fds[0], &seconds, sizeof seconds) != sizeof seconds)
        seconds = -1;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        seconds = -1;
    return seconds;
}

/**
 * Cold set-ups on request, at any point of the run. The probe forks a
 * helper process before this one builds anything; the registry and
 * the compiled models are cached process-wide once built, and the
 * helper never builds them, so each child it forks sets up as cold as
 * this process's first set-up.
 */
class SetupProbe
{
  public:
    explicit SetupProbe(std::uint64_t seed)
    {
        int request[2], reply[2];
        if (pipe(request) != 0)
            throw std::runtime_error("pipe failed");
        if (pipe(reply) != 0) {
            close(request[0]);
            close(request[1]);
            throw std::runtime_error("pipe failed");
        }
        _helper = fork();
        if (_helper == 0) {
            close(request[1]);
            close(reply[0]);
            char byte;
            while (read(request[0], &byte, 1) == 1) {
                const double seconds = childSetupSeconds(seed);
                if (write(reply[1], &seconds, sizeof seconds) !=
                        sizeof seconds)
                    break;
            }
            _exit(0);
        }
        close(request[0]);
        close(reply[1]);
        _request = request[1];
        _reply = reply[0];
        if (_helper < 0) {
            close(_request);
            close(_reply);
            throw std::runtime_error("fork failed");
        }
    }

    /** Ends the helper (end of file on its request pipe) and waits. */
    ~SetupProbe()
    {
        close(_request);
        close(_reply);
        waitpid(_helper, nullptr, 0);
    }

    SetupProbe(const SetupProbe &) = delete;
    SetupProbe &operator=(const SetupProbe &) = delete;

    /** One cold set-up's seconds. */
    double
    sample()
    {
        const char byte = 1;
        double seconds = -1;
        if (write(_request, &byte, 1) != 1 ||
                read(_reply, &seconds, sizeof seconds) != sizeof seconds ||
                seconds < 0)
            throw std::runtime_error("a cold set-up failed");
        return seconds;
    }

  private:
    pid_t _helper = -1;
    int _request = -1;  //!< one byte asks for a sample
    int _reply = -1;    //!< the sample's seconds
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_matrix|hammer_random|hammer_cycle --seed N "
                 "--seconds S "
                 "--trace 0|1 [--out DIR]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have[4] = {false, false, false, false};
    for (int arg = 1; arg < argc; ++arg) {
        const std::string flag = argv[arg];
        if (arg + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++arg];
        if (flag == "--workload") {
            options.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
            have[1] = true;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
            have[2] = options.seconds > 0;
        } else if (flag == "--trace") {
            options.traced = value == "1";
            have[3] = value == "0" || value == "1";
        } else if (flag == "--out") {
            options.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  options.workload) == std::end(kWorkloads))
        usage(("unknown workload " + options.workload).c_str());
    return options;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &metric : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + metric.name + "\": {\"value\": " +
               jsonNumber(metric.value) + ", \"unit\": \"" + metric.unit +
               "\"}";
    }
    return out + "}";
}

void
writeTrace(const Options &options, Clock::time_point epoch,
           const std::vector<const LoadResult *> &loads)
{
    std::filesystem::create_directories(options.outDir);
    const std::string stem = options.outDir + "/" + options.workload + "-" +
                             std::to_string(options.seed);
    std::ofstream spans(stem + ".spans.jsonl");
    std::ofstream report(stem + ".report.json");
    if (!spans || !report)
        throw std::runtime_error("cannot write traces under " +
                                 options.outDir);
    report << "[\n";
    for (std::size_t l = 0; l < loads.size(); ++l) {
        const LoadResult &load = *loads[l];
        for (std::size_t i = 0; i < load.spans.size(); ++i) {
            const Span &span = load.spans[i];
            spans << "{\"load\": \"" << load.report.load
                  << "\", \"span\": " << i + 1
                  << ", \"parent\": " << span.parent << ", \"name\": \""
                  << span.name << "\", \"id\": " << span.key
                  << ", \"start_us\": "
                  << jsonNumber(microsBetween(epoch, span.start))
                  << ", \"end_us\": "
                  << jsonNumber(microsBetween(epoch, span.end)) << "}\n";
        }
        report << "  " << load.report.toJson()
               << (l + 1 < loads.size() ? ",\n" : "\n");

        const Reconciliation &r = load.report;
        std::fprintf(stderr, "reconciliation %s: wall %.0f us, "
                     "unattributed_share %.4f, %s untraced %.6g traced "
                     "%.6g (tracing overhead %.6g)\n",
                     r.load.c_str(), r.wallUs, r.unattributedShare(),
                     r.e2eMetric.c_str(), r.e2eUntraced, r.e2eTraced,
                     r.e2eTraced - r.e2eUntraced);
        for (const auto &[name, us] : r.selfUs)
            std::fprintf(stderr, "  self    %-28s %14.0f us\n",
                         name.c_str(), us);
        for (const auto &[name, us] : r.derivedUs)
            std::fprintf(stderr, "  derived %-28s %14.0f us\n",
                         name.c_str(), us);
    }
    report << "]\n";
}

int
run(const Options &options)
{
    const Clock::time_point epoch = Clock::now();

    // The probe's helper is forked before this process builds anything.
    std::optional<SetupProbe> probe;
    if (!options.traced)
        probe.emplace(options.seed);
    std::vector<double> setup_s;
    const Clock::time_point setup_start = Clock::now();
    Setup setup = setUp(options.seed);
    setup_s.push_back(secondsSince(setup_start));

    // Untimed inputs and references.
    LoadResult rexd_result;
    paperReference(setup.paper);
    rexdReference(*setup.rexd, rexd_result);
    const double setup_peak_mb = residentPeakMb();

    const bool paper_own = options.workload == "paper_matrix";
    LoadResult paper_result, hammer_result;
    std::vector<const LoadResult *> loads;
    std::vector<Metric> metrics;
    if (!options.traced) {
        // The workload's own load, untraced. Peak memory is set-up's or
        // a check's at the 99th percentile, whichever is larger: the
        // largest single check would measure which tests the seed drew.
        LoadResult &result = paper_own ? paper_result : hammer_result;
        PaperLoad paper_load(setup.paper, mix(options.seed ^ 1));
        HammerLoad hammer_load(options.workload == "hammer_random"
                                   ? *setup.hammer.random
                                   : *setup.hammer.cycle);
        if (paper_own)
            paper_load.takePeaks(result);
        const Clock::time_point start = Clock::now();
        for (int slice = 1; slice <= kSlices; ++slice) {
            const Clock::time_point until =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                options.seconds * slice / kSlices));
            if (paper_own)
                paper_load.measure(until, result);
            else
                hammer_load.measure(until, result);
            setup_s.push_back(probe->sample());
        }
        if (paper_own)
            paper_load.endToEnd(result);
        else
            hammer_load.endToEnd(result);
        loads = {&result, &rexd_result};
        metrics = result.endToEnd;
        metrics.push_back({"setup_s",
                           *std::min_element(setup_s.begin(), setup_s.end()),
                           "s"});
        metrics.push_back(
            {"peak_rss_mb",
             std::max(setup_peak_mb, quantile(result.checkPeakMb, 0.99)),
             "MB"});
    } else {
        const double rexd_seconds = options.seconds * kTracedRexdShare;
        const double rest = options.seconds - rexd_seconds;
        const double own_mode_share = options.workload == "hammer_cycle"
                                          ? 1 - kTracedOwnModeShare
                                          : kTracedOwnModeShare;
        PaperLoad paper_load(setup.paper, mix(options.seed ^ 1));
        paper_load.trace(rest * (paper_own ? 2.0 / 3 : 1.0 / 3),
                         paper_result);
        traceHammer(setup.hammer, rest * (paper_own ? 1.0 / 3 : 2.0 / 3),
                    own_mode_share, hammer_result);
        traceRexd(*setup.rexd, options.seed, rexd_seconds, rexd_result);
        loads = {&paper_result, &hammer_result, &rexd_result};
        for (const LoadResult *load : loads)
            metrics.insert(metrics.end(), load->perLayer.begin(),
                           load->perLayer.end());
    }
    setup.rexd.reset();
    probe.reset();

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    for (const LoadResult *load : loads) {
        attempted += load->attempted;
        failed += load->failed;
        problems.insert(problems.end(), load->problems.begin(),
                        load->problems.end());
    }
    for (const std::string &problem : problems)
        std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    if (options.traced) {
        metrics.push_back({"fail_share",
                           static_cast<double>(failed) /
                               static_cast<double>(attempted),
                           "ratio"});
        writeTrace(options, epoch, loads);
    }

    const bool correct = failed == 0 && problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options options =
        perfbench::parseOptions(argc, argv);
    try {
        return perfbench::run(options);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
