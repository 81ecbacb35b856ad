/**
 * @file
 * paper_matrix: the paper's test-oracle evaluation (§5) — every builtin
 * litmus test under every paper model variant, through
 * Engine::verdictRecord at jobs 1 with the verdict cache off. Each pass
 * visits all cells in a seed-shuffled order.
 *
 * The traced phase wraps each verdict in a span and, after each timed
 * pass, replays every cell's layers: the whole check (checkTest), the
 * thread semantics (the CandidateEnumerator's trace computation) and a
 * staged walk over exactly as many candidates as the check visited.
 * The model's self time is the check minus those two.
 */

#include <algorithm>
#include <numeric>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "catc/cache.hh"
#include "catc/compile.hh"
#include "catc/exec.hh"
#include "engine/batch.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "loads.hh"

namespace perfbench {

using namespace rex;

namespace {

/** Traced passes are capped: their spans are kept in memory. */
constexpr std::size_t kMaxTracedPasses = 8;

std::vector<std::size_t>
shuffled(std::size_t count, std::uint64_t seed)
{
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    seededShuffle(order, seed);
    return order;
}

/** Count @p record against the cell's expected verdict. */
void
tally(const PaperInputs &inputs, std::size_t cell,
      const engine::JobRecord &record, LoadResult &out)
{
    ++out.attempted;
    if (record.verdict != (inputs.expected[cell] ? "Allowed" : "Forbidden"))
        ++out.failed;
}

} // namespace

PaperInputs
paperSetup()
{
    PaperInputs inputs;
    const TestRegistry &registry = TestRegistry::instance();
    for (const std::string &name : registry.names())
        inputs.tests.push_back(parseLitmus(registry.sourceText(name)));
    inputs.variants = ModelParams::paperVariants();
    for (const ModelParams &params : inputs.variants) {
        catc::Program program = catc::compileNative(params, false);
        catc::FoldPlan plan(program);
        (void)catc::planForCheck(params);
    }
    return inputs;
}

void
paperReference(PaperInputs &inputs)
{
    inputs.expected.clear();
    for (const LitmusTest &test : inputs.tests) {
        for (const ModelParams &params : inputs.variants) {
            const std::string name = params.name();
            if (name == "base")
                inputs.expected.push_back(test.expectedAllowed);
            else if (test.variantAllowed.count(name))
                inputs.expected.push_back(test.variantAllowed.at(name));
            else
                inputs.expected.push_back(
                    checkTest(test, params, true, false).observable);
        }
    }
}

PaperLoad::PaperLoad(const PaperInputs &inputs, std::uint64_t seed)
    : _inputs(inputs), _seed(seed)
{
    engine::EngineConfig config;
    config.jobs = 1;
    config.cacheEnabled = false;
    _engine = std::make_unique<engine::Engine>(config);
}

PaperLoad::~PaperLoad() = default;

double
PaperLoad::pass(LoadResult &out)
{
    const std::size_t num_variants = _inputs.variants.size();
    const std::vector<std::size_t> order =
        shuffled(_inputs.tests.size() * num_variants, mix(_seed ^ _pass++));
    const Clock::time_point start = Clock::now();
    for (std::size_t cell : order) {
        tally(_inputs, cell,
              _engine->verdictRecord(_inputs.tests[cell / num_variants],
                                     _inputs.variants[cell % num_variants]),
              out);
    }
    return microsBetween(start, Clock::now());
}

void
PaperLoad::takePeaks(LoadResult &out)
{
    const std::size_t num_variants = _inputs.variants.size();
    for (std::size_t cell = 0; cell < _inputs.expected.size(); ++cell) {
        resetResidentPeak();
        tally(_inputs, cell,
              _engine->verdictRecord(_inputs.tests[cell / num_variants],
                                     _inputs.variants[cell % num_variants]),
              out);
        out.checkPeakMb.push_back(residentPeakMb());
    }
}

void
PaperLoad::measure(Clock::time_point until, LoadResult &out)
{
    do {
        _fastestUs = std::min(_fastestUs, pass(out));
    } while (Clock::now() < until);
}

void
PaperLoad::endToEnd(LoadResult &out) const
{
    out.endToEnd.push_back(
        {"checks_per_s", checksPerS(_fastestUs), "1/s"});
}

double
PaperLoad::checksPerS(double pass_us) const
{
    return static_cast<double>(_inputs.tests.size() *
                               _inputs.variants.size()) /
           (pass_us / 1e6);
}

void
PaperLoad::trace(double seconds, LoadResult &out)
{
    const PaperInputs &inputs = _inputs;
    engine::Engine &engine = *_engine;
    const std::size_t num_variants = inputs.variants.size();
    const std::size_t cells = inputs.tests.size() * num_variants;
    Tracer tracer(true);
    std::uint64_t traces = 0, combinations = 0, candidates = 0,
                  coherent = 0, traced_cells = 0;
    std::vector<double> untraced_pass_us, traced_pass_us;
    const Clock::time_point phase = Clock::now();
    do {
        // An untraced pass next to each traced one measures the tracing
        // overhead under the same machine conditions.
        untraced_pass_us.push_back(pass(out));

        const std::vector<std::size_t> order =
            shuffled(cells, mix(_seed ^ _pass++));
        const Clock::time_point start = Clock::now();
        std::vector<engine::JobRecord> records(cells);
        for (std::size_t cell : order) {
            Scope span(tracer, "paper.cell", cell);
            Scope verdict(tracer, "engine.verdict", cell, span.id());
            records[cell] = engine.verdictRecord(
                inputs.tests[cell / num_variants],
                inputs.variants[cell % num_variants]);
        }
        traced_pass_us.push_back(microsBetween(start, Clock::now()));

        // The replays run after the timed pass, so they do not disturb
        // the caches the verdicts run in.
        for (std::size_t cell : order) {
            const LitmusTest &test = inputs.tests[cell / num_variants];
            const ModelParams &params = inputs.variants[cell % num_variants];
            const engine::JobRecord &record = records[cell];
            tally(inputs, cell, record, out);
            ++traced_cells;
            Scope span(tracer, "paper.replay", cell);
            {
                Scope replayed(tracer, "axiomatic.check", cell, span.id());
                const bool allowed =
                    checkTest(test, params, true, false).observable;
                if (allowed != (record.verdict == "Allowed"))
                    out.problems.push_back("paper: checkTest replay of " +
                                           test.name + " disagrees");
            }
            std::uint32_t traces_span =
                tracer.open("sem.traces", cell, span.id());
            CandidateEnumerator enumerator(test);
            tracer.close(traces_span);
            std::uint64_t combos = 1;
            for (const auto &thread : enumerator.traces()) {
                traces += thread.size();
                combos *= thread.size();
            }
            combinations += combos;
            if (record.candidates > 0) {
                Scope walk(tracer, "axiomatic.enum", cell, span.id());
                std::uint64_t visited = 0;
                enumerator.forEachStaged(
                    [&](CandidateExecution &,
                        const CandidateEnumerator::StagedInfo &info) {
                        ++visited;
                        if (info.coherent)
                            ++coherent;
                        return visited < record.candidates;
                    });
                candidates += visited;
                if (visited != record.candidates)
                    out.problems.push_back("paper: staged walk of " +
                                           test.name +
                                           " visited a different count");
            }
        }
    } while ((secondsSince(phase) < seconds &&
              traced_pass_us.size() < kMaxTracedPasses) ||
             traced_pass_us.empty());
    // The untraced passes are not part of the traced work.
    double phase_us = microsBetween(phase, Clock::now());
    for (double us : untraced_pass_us)
        phase_us -= us;

    out.spans = tracer.spans();
    std::map<std::string, double> total;
    for (const Span &span : out.spans)
        total[span.name] += microsBetween(span.start, span.end);
    const double n = static_cast<double>(traced_cells);
    const double passes = static_cast<double>(traced_pass_us.size());
    const double model_us = total["axiomatic.check"] -
                            total["sem.traces"] - total["axiomatic.enum"];

    out.perLayer = {
        {"sem.traces_us", total["sem.traces"] / n, "us"},
        {"sem.traces", static_cast<double>(traces) / passes, "count"},
        {"sem.combinations", static_cast<double>(combinations) / passes,
         "count"},
        {"axiomatic.enum_us", total["axiomatic.enum"] / n, "us"},
        {"axiomatic.candidates", static_cast<double>(candidates) / passes,
         "count"},
        {"axiomatic.coherent_share",
         candidates ? static_cast<double>(coherent) /
                          static_cast<double>(candidates)
                    : 0,
         "ratio"},
        {"axiomatic.check_us", total["axiomatic.check"] / n, "us"},
        {"axiomatic.model_self_us", model_us / n, "us"},
    };

    Reconciliation &report = out.report;
    report.load = "paper";
    report.wallUs = phase_us;
    report.selfUs = selfTimes(out.spans);
    // The verdict spans are the end-to-end timed work; the replays
    // split them into layers.
    report.derivedUs = {
        {"sem.traces", total["sem.traces"]},
        {"axiomatic.enum", total["axiomatic.enum"]},
        {"axiomatic.model", model_us},
        {"engine", total["engine.verdict"] - total["axiomatic.check"]},
    };
    report.e2eMetric = "checks_per_s";
    report.e2eUntraced = checksPerS(median(untraced_pass_us));
    report.e2eTraced = checksPerS(median(traced_pass_us));
}

} // namespace perfbench
