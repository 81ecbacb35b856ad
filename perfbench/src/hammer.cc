/**
 * @file
 * hammer_random and hammer_cycle: the soundness hammer at jobs 1 — a
 * random-mode or a cycle-mode seed range from a seed-derived offset,
 * run through Hammer::checkSeed in repeated passes.
 *
 * Random-mode seeds spend most of their time in op::explore; cycle
 * tests are small, so synthesis, parsing and explorer set-up weigh
 * more there. A change that buys per-state speed with per-test set-up
 * shows up as a hammer_cycle loss.
 *
 * The traced phase checks fresh seeds of both modes through the same
 * layers as gen::soundnessCheck, each call in its own span, and
 * requires every seed's outcome and the campaign summary to equal
 * Hammer::checkSeed's.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "engine/governor.hh"
#include "isa/register.hh"
#include "litmus/parser.hh"
#include "loads.hh"
#include "operational/explorer.hh"
#include "operational/profile.hh"

namespace perfbench {

using namespace rex;

namespace {

/** Seeds of one random-mode pass. Random seeds vary widely in cost
 *  (coefficient of variation ~1.2), so a pass needs many of them for
 *  one seed's range to cost about what another's does. */
constexpr std::uint64_t kRandomSeeds = 1000;

/** The operational machine's outcome key of a candidate (the same
 *  projection gen/hammer.cc compares against op::explore). */
std::string
outcomeKey(const LitmusTest &test, const CandidateExecution &cand)
{
    std::map<std::string, std::uint64_t> values;
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        values[std::to_string(atom.tid) + ":" + isa::regName(atom.reg)] =
            cand.finalRegs[static_cast<std::size_t>(atom.tid)][atom.reg];
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc)
        values["*" + test.locations[loc]] = cand.finalMemValue(loc);
    std::string out;
    for (const auto &[name, value] : values)
        out += name + "=" + std::to_string(value) + ";";
    return out;
}

/** Hammer::run's per-seed accumulation. */
void
accumulate(gen::CampaignSummary &summary, const gen::SeedResult &result)
{
    ++summary.tested;
    summary.features.merge(result.features);
    switch (result.outcome) {
      case gen::SeedOutcome::Sound: ++summary.sound; break;
      case gen::SeedOutcome::Skipped: ++summary.skipped; break;
      case gen::SeedOutcome::Violation:
        summary.violationSeeds.push_back(result.seed);
        break;
    }
    summary.nextSeed = result.seed + 1;
    summary.seedEnd = summary.nextSeed;
}

bool
sameResult(const gen::SeedResult &a, const gen::SeedResult &b)
{
    return a.seed == b.seed && a.outcome == b.outcome &&
           a.violating == b.violating &&
           a.features.toString() == b.features.toString();
}

/** Layer totals of the traced phase, per mode. */
struct LayerTotals {
    std::uint64_t seeds = 0;
    std::uint64_t explored = 0;  //!< seeds that reached op::explore
    double seedUs = 0, synthUs = 0, parseUs = 0, modelUs = 0,
           exploreUs = 0;
    std::uint64_t states = 0, heapBytes = 0;
};

gen::SeedResult
tracedSeed(const gen::Hammer &hammer, std::uint64_t seed, Tracer &tracer,
           LayerTotals &totals)
{
    const gen::HammerConfig &config = hammer.config();
    const Clock::time_point seed_start = Clock::now();
    const std::uint32_t root = tracer.open(
        config.mode == gen::Mode::Random ? "hammer.random" : "hammer.cycle",
        seed);

    gen::GeneratedTest generated;
    totals.synthUs += timedSpan(tracer, "gen.synth", seed, root, [&] {
        generated = hammer.testForSeed(seed);
    });
    LitmusTest test;
    totals.parseUs += timedSpan(tracer, "litmus.parse", seed, root, [&] {
        test = parseLitmus(generated.source);
    });

    gen::SeedResult result;
    result.seed = seed;
    result.features = generated.features;

    engine::Governor governor(config.budget);
    const engine::CancelToken *token = governor.token();
    std::set<std::string> allowed;
    bool aborted = false;
    std::optional<std::uint64_t> skeleton_combo;
    SkeletonRelations skeleton;
    double model_us = 0;

    const std::uint32_t axiomatic =
        tracer.open("axiomatic.enumerate", seed, root);
    std::optional<CandidateEnumerator> enumerator;
    timedSpan(tracer, "sem.traces", seed, axiomatic,
              [&] { enumerator.emplace(test, token); });
    const Clock::time_point walk_start = Clock::now();
    enumerator->forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (!governor.admit()) {
                aborted = true;
                return false;
            }
            if (!info.coherent)
                return true;
            const Clock::time_point model_start = Clock::now();
            if (!skeleton_combo || *skeleton_combo != info.comboIndex) {
                skeleton = computeSkeleton(cand, config.params);
                skeleton_combo = info.comboIndex;
            }
            ModelResult model = checkConsistent(
                cand, config.params, skeleton,
                /*internal_prechecked=*/true, token);
            model_us += microsBetween(model_start, Clock::now());
            if (model.aborted) {
                aborted = true;
                return false;
            }
            if (model.consistent)
                allowed.insert(outcomeKey(test, cand));
            return true;
        },
        token);
    // The model's time is spread over the walk; it is recorded as one
    // aggregated child span of that length.
    tracer.record("axiomatic.native_model", seed, axiomatic, walk_start,
                  walk_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       model_us)));
    tracer.close(axiomatic);
    totals.modelUs += model_us;
    ++totals.seeds;

    if (aborted || governor.tripped()) {
        result.outcome = gen::SeedOutcome::Skipped;
    } else {
        op::ExploreResult explored;
        const std::uint64_t bytes = allocatedBytes();
        setAllocCounting(true);
        totals.exploreUs +=
            timedSpan(tracer, "operational.explore", seed, root, [&] {
                explored = op::explore(test, op::CoreProfile::maxRelaxed(),
                                       config.maxStates);
            });
        setAllocCounting(false);
        totals.heapBytes += allocatedBytes() - bytes;
        totals.states += explored.statesVisited;
        ++totals.explored;

        timedSpan(tracer, "hammer.compare", seed, root, [&] {
            if (explored.truncated) {
                result.outcome = gen::SeedOutcome::Skipped;
                return;
            }
            for (const std::string &key : explored.outcomes) {
                if (!allowed.count(key))
                    result.violating.push_back(key);
            }
            result.outcome = result.violating.empty()
                                 ? gen::SeedOutcome::Sound
                                 : gen::SeedOutcome::Violation;
        });
    }
    tracer.close(root);
    totals.seedUs += microsBetween(seed_start, Clock::now());
    return result;
}

} // namespace

HammerInputs
hammerSetup(std::uint64_t seed)
{
    HammerInputs inputs;
    gen::HammerConfig config;
    config.seedBegin = mix(seed ^ 0x72616e646f6dull) % 1000000000ull;
    config.seedEnd = config.seedBegin;
    inputs.random = std::make_unique<gen::Hammer>(config);
    config.mode = gen::Mode::Cycle;
    config.seedBegin = mix(seed ^ 0x6379636c65ull) % 1000000000ull;
    config.seedEnd = config.seedBegin;
    inputs.cycle = std::make_unique<gen::Hammer>(config);
    return inputs;
}

void
HammerLoad::measure(Clock::time_point until, LoadResult &out)
{
    const gen::HammerConfig &config = _hammer.config();
    const std::uint64_t per_pass = config.mode == gen::Mode::Random
                                       ? kRandomSeeds
                                       : _hammer.inventorySize();
    if (_fastestUs.empty())
        _fastestUs.assign(per_pass, 1e300);
    do {
        const std::uint64_t i = _checked % per_pass;
        // The first pass also takes each seed's resident-set peak,
        // outside the timed check.
        const bool first = _checked++ < per_pass;
        if (first)
            resetResidentPeak();
        const Clock::time_point start = Clock::now();
        const gen::SeedResult result =
            _hammer.checkSeed(config.seedBegin + i);
        _fastestUs[i] =
            std::min(_fastestUs[i], microsBetween(start, Clock::now()));
        if (first)
            out.checkPeakMb.push_back(residentPeakMb());
        ++out.attempted;
        if (result.outcome != gen::SeedOutcome::Sound)
            ++out.failed;
    } while (_checked < per_pass || Clock::now() < until);
}

void
HammerLoad::endToEnd(LoadResult &out) const
{
    double us = 0;
    for (double fastest : _fastestUs)
        us += fastest;
    out.endToEnd.push_back(
        {"checks_per_s",
         static_cast<double>(_fastestUs.size()) / (us / 1e6), "1/s"});
}

void
traceHammer(const HammerInputs &inputs, double seconds, double random_share,
            LoadResult &out)
{
    Tracer tracer(true);
    LayerTotals totals[2];
    double untraced_us[2] = {0, 0};
    const Clock::time_point phase = Clock::now();
    const gen::Hammer *hammers[2] = {inputs.random.get(),
                                     inputs.cycle.get()};
    const double mode_seconds[2] = {seconds * random_share,
                                    seconds * (1 - random_share)};
    for (int mode = 0; mode < 2; ++mode) {
        const gen::Hammer &hammer = *hammers[mode];
        gen::CampaignSummary untraced, traced;
        untraced.seedBegin = traced.seedBegin = hammer.config().seedBegin;
        std::uint64_t seed = hammer.config().seedBegin;
        const Clock::time_point begin = Clock::now();
        do {
            // Each seed is checked untraced right before its traced
            // check, so the tracing overhead is measured under the same
            // machine conditions.
            const Clock::time_point start = Clock::now();
            const gen::SeedResult expected = hammer.checkSeed(seed);
            untraced_us[mode] += microsBetween(start, Clock::now());
            const gen::SeedResult result =
                tracedSeed(hammer, seed++, tracer, totals[mode]);
            out.attempted += 2;
            if (result.outcome != gen::SeedOutcome::Sound)
                ++out.failed;
            if (expected.outcome != gen::SeedOutcome::Sound)
                ++out.failed;
            if (!sameResult(result, expected)) {
                out.problems.push_back(
                    "hammer: traced seed " + std::to_string(result.seed) +
                    " differs from Hammer::checkSeed");
            }
            accumulate(untraced, expected);
            accumulate(traced, result);
        } while (secondsSince(begin) < mode_seconds[mode]);
        if (untraced.render() != traced.render())
            out.problems.push_back("hammer: traced campaign summary differs");
    }
    // The untraced checks are not part of the traced work.
    const double phase_us = microsBetween(phase, Clock::now()) -
                            untraced_us[0] - untraced_us[1];
    out.spans = tracer.spans();

    LayerTotals all;
    for (const LayerTotals &t : totals) {
        all.seeds += t.seeds;
        all.explored += t.explored;
        all.seedUs += t.seedUs;
        all.parseUs += t.parseUs;
        all.exploreUs += t.exploreUs;
        all.states += t.states;
        all.heapBytes += t.heapBytes;
    }
    const double states = static_cast<double>(all.states);
    out.perLayer = {
        {"litmus.parse_us", all.parseUs / static_cast<double>(all.seeds),
         "us"},
        {"gen.synth_us",
         totals[1].synthUs / static_cast<double>(totals[1].seeds), "us"},
        {"axiomatic.native_model_us",
         totals[0].modelUs / static_cast<double>(totals[0].seeds), "us"},
        {"operational.explore_us",
         all.exploreUs / static_cast<double>(all.explored), "us"},
        {"operational.states", states / static_cast<double>(all.explored),
         "count"},
        {"operational.states_per_s", states / (all.exploreUs / 1e6), "1/s"},
        {"operational.heap_bytes_per_state",
         static_cast<double>(all.heapBytes) / states, "B"},
        {"operational.explore_share", all.exploreUs / all.seedUs, "ratio"},
    };

    Reconciliation &report = out.report;
    report.load = "hammer";
    report.wallUs = phase_us;
    report.selfUs = selfTimes(out.spans);
    report.e2eMetric = "random seeds per s";
    report.e2eUntraced = static_cast<double>(totals[0].seeds) /
                         (untraced_us[0] / 1e6);
    report.e2eTraced =
        static_cast<double>(totals[0].seeds) / (totals[0].seedUs / 1e6);
}

} // namespace perfbench
