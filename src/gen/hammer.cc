/**
 * @file
 * Soundness-hammer campaign driver.
 */

#include "gen/hammer.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "base/fsync.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "litmus/litmus.hh"
#include "operational/explorer.hh"
#include "operational/machine.hh"
#include "operational/profile.hh"

namespace rex::gen {

namespace {

// ---------------------------------------------------------------------
// Config fingerprinting (FNV-1a 64).
// ---------------------------------------------------------------------

struct Fnv {
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
    void
    str(const std::string &value)
    {
        u64(value.size());
        bytes(value.data(), value.size());
    }
};

} // namespace

Hammer::Hammer(HammerConfig config) : _config(std::move(config))
{
    rexAssert(_config.seedBegin <= _config.seedEnd,
              "hammer: seed range is inverted");
    rexAssert(_config.chunk > 0, "hammer: chunk size must be positive");
    if (_config.mode == Mode::Cycle) {
        _inventory = enumerateCycles(_config.cycle);
        rexAssert(!_inventory.empty(), "hammer: empty cycle inventory");
    }
}

std::uint64_t
Hammer::fingerprint() const
{
    Fnv fnv;
    fnv.u64(kGeneratorRevision);
    fnv.str(engine::kModelRevision);
    fnv.u64(_config.seedBegin);
    fnv.u64(_config.seedEnd);
    fnv.u64(static_cast<std::uint64_t>(_config.mode));

    const GenConfig &g = _config.gen;
    fnv.u64(g.threeThreadPercent);
    fnv.u64(g.maxOpsPerThread);
    fnv.u64(g.maxLoadsPerThread);
    fnv.u64(g.maxStoresPerThread);
    fnv.u64(g.exceptionPercent);
    fnv.u64((g.svc ? 1 : 0) | (g.interrupts ? 2 : 0) | (g.eret ? 4 : 0) |
            (g.rmw ? 8 : 0) | (g.pairs ? 16 : 0) | (g.acqRel ? 32 : 0) |
            (g.deps ? 64 : 0));

    fnv.u64(_config.cycle.maxEdges);
    fnv.u64(_config.cycle.maxThreads);
    fnv.u64(_config.cycle.maxLocations);

    fnv.str(_config.params.name());
    fnv.u64(_config.budget.deadlineMicros);
    fnv.u64(_config.budget.maxCandidates);
    fnv.u64(_config.budget.maxHeapBytes);
    fnv.u64(_config.maxStates);
    return fnv.hash;
}

TestSpec
Hammer::specForSeed(std::uint64_t seed) const
{
    if (_config.mode == Mode::Cycle)
        return cycleSpec(_inventory[seed % _inventory.size()]);
    return generateSpec(seed, _config.gen);
}

GeneratedTest
Hammer::testForSeed(std::uint64_t seed) const
{
    return packageSpec(specForSeed(seed));
}

SeedResult
Hammer::checkSeed(std::uint64_t seed) const
{
    SeedResult result = soundnessCheck(specForSeed(seed), _config);
    result.seed = seed;
    return result;
}

SeedResult
soundnessCheck(const TestSpec &spec, const HammerConfig &config)
{
    const LitmusTest test = lower(spec);

    SeedResult result;
    result.features = specFeatures(spec);
    result.outcome = SeedOutcome::Skipped;

    // The governor bounds pathological seeds; a trip means Skipped, not
    // a verdict. The candidate ceiling is decided up front from the
    // exact candidate count, so a seed is Skipped exactly when walking
    // all of its candidates would trip it.
    engine::Governor governor(config.budget);
    const engine::CancelToken *token = governor.token();
    CandidateEnumerator enumerator(test, token);
    const std::uint64_t ceiling = config.budget.maxCandidates;
    const bool over = ceiling != 0 && enumerator.count(token) > ceiling;
    if (over || governor.tripped())
        return result;

    // Operational side on the most relaxed profile (subsumes the
    // stricter profiles' reorderings).
    op::ExploreResult explored =
        op::explore(test, op::CoreProfile::maxRelaxed(), config.maxStates);
    if (explored.truncated)
        return result;

    std::optional<std::vector<std::string>> violating = unwitnessedOutcomes(
        test, enumerator, explored.outcomes, config.params, governor);
    if (!violating)
        return result;
    result.violating = std::move(*violating);
    result.outcome = result.violating.empty() ? SeedOutcome::Sound
                                              : SeedOutcome::Violation;
    return result;
}

std::optional<std::vector<std::string>>
unwitnessedOutcomes(const LitmusTest &test,
                    const CandidateEnumerator &enumerator,
                    const std::set<std::string> &outcomes,
                    const ModelParams &params, engine::Governor &governor)
{
    // Each outcome as a row of slot values; the candidates project onto
    // the same slots.
    const std::vector<op::OutcomeSlot> slots = op::outcomeSlots(test);
    const std::size_t width = slots.size();
    std::vector<std::uint64_t> rows;
    for (const std::string &key : outcomes) {
        const std::vector<std::uint64_t> values =
            op::outcomeValues(slots, key);
        rows.insert(rows.end(), values.begin(), values.end());
    }
    std::vector<bool> witnessed(outcomes.size(), false);
    std::size_t open = outcomes.size();

    // A combination fixes the final registers: skip it unless they are
    // those of an outcome still without a witness.
    auto keep = [&](const std::vector<const sem::ThreadTrace *> &combo) {
        for (std::size_t i = 0; i < witnessed.size(); ++i) {
            if (witnessed[i])
                continue;
            bool match = true;
            for (std::size_t s = 0; s < width && match; ++s) {
                const op::OutcomeSlot &slot = slots[s];
                match = slot.kind != op::OutcomeSlot::Kind::Register ||
                        combo[slot.tid]->finalRegs[slot.reg] ==
                            rows[i * width + s];
            }
            if (match)
                return true;
        }
        return false;
    };

    const engine::CancelToken *token = governor.token();
    bool aborted = false;
    std::optional<std::uint64_t> skeleton_combo;
    SkeletonRelations skeleton;
    std::vector<std::uint64_t> projection(width);

    enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (!governor.admit()) {
                aborted = true;
                return false;
            }
            if (!info.coherent)
                return true;  // internal axiom rejects; no witness
            // The candidate's outcome: its final registers and memory.
            for (std::size_t s = 0; s < width; ++s) {
                const op::OutcomeSlot &slot = slots[s];
                projection[s] =
                    slot.kind == op::OutcomeSlot::Kind::Register
                        ? cand.finalRegs[slot.tid][slot.reg]
                        : cand.finalMemValue(slot.loc);
            }
            std::size_t i = 0;
            while (i < witnessed.size() &&
                   (witnessed[i] ||
                    !std::equal(projection.begin(), projection.end(),
                                rows.begin() + i * width)))
                ++i;
            if (i == witnessed.size())
                return true;  // its outcome is not pending

            if (skeleton_combo != info.comboIndex) {
                skeleton = computeSkeleton(cand, params);
                skeleton_combo = info.comboIndex;
            }
            ModelResult model = checkConsistent(
                cand, params, skeleton, /*internal_prechecked=*/true, token);
            if (model.aborted) {
                aborted = true;
                return false;
            }
            if (model.consistent) {
                witnessed[i] = true;
                --open;
            }
            return open != 0;
        },
        token, keep);

    if (aborted || governor.tripped())
        return std::nullopt;
    std::vector<std::string> unwitnessed;
    std::size_t i = 0;
    for (const std::string &key : outcomes) {
        if (!witnessed[i++])
            unwitnessed.push_back(key);
    }
    return unwitnessed;
}

CampaignSummary
Hammer::run(engine::Engine &engine) const
{
    std::uint64_t print = fingerprint();

    CampaignSummary summary;
    summary.seedBegin = _config.seedBegin;
    summary.seedEnd = _config.seedEnd;
    summary.nextSeed = _config.seedBegin;

    if (!_config.checkpointPath.empty()) {
        CampaignSummary resumed;
        if (loadCheckpoint(_config.checkpointPath, print, resumed))
            summary = resumed;
    }

    while (summary.nextSeed < summary.seedEnd) {
        if (_config.cancel && _config.cancel->cancelled())
            break;

        std::uint64_t begin = summary.nextSeed;
        std::uint64_t count =
            std::min<std::uint64_t>(_config.chunk, summary.seedEnd - begin);
        std::vector<SeedResult> results = engine.map(
            static_cast<std::size_t>(count), [&](std::size_t i) {
                return checkSeed(begin + static_cast<std::uint64_t>(i));
            });

        for (const SeedResult &result : results) {
            ++summary.tested;
            summary.features.merge(result.features);
            switch (result.outcome) {
              case SeedOutcome::Sound: ++summary.sound; break;
              case SeedOutcome::Skipped: ++summary.skipped; break;
              case SeedOutcome::Violation:
                summary.violationSeeds.push_back(result.seed);
                break;
            }
        }
        summary.nextSeed = begin + count;

        if (!_config.checkpointPath.empty())
            saveCheckpoint(_config.checkpointPath, print, summary);
    }
    return summary;
}

std::string
CampaignSummary::render() const
{
    std::string out = "rex-hammer campaign: seeds [" +
                      std::to_string(seedBegin) + ", " +
                      std::to_string(seedEnd) + ")";
    out += complete() ? "\n"
                      : " (partial: next seed " +
                            std::to_string(nextSeed) + ")\n";
    out += "tested " + std::to_string(tested) + ", sound " +
           std::to_string(sound) + ", skipped " + std::to_string(skipped) +
           ", violations " + std::to_string(violationSeeds.size()) + "\n";
    out += "features: " + features.toString() + "\n";
    if (!violationSeeds.empty()) {
        out += "violation seeds:";
        for (std::uint64_t seed : violationSeeds)
            out += concat({" ", std::to_string(seed)});
        out += "\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------

namespace {

constexpr const char *kCheckpointMagic = "rex-hammer-checkpoint-v1";

} // namespace

bool
loadCheckpoint(const std::string &path, std::uint64_t fingerprint,
               CampaignSummary &out)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;

    auto malformed = [&]() {
        fatal("hammer: malformed checkpoint '" + path + "'");
    };

    std::string magic;
    if (!std::getline(in, magic))
        malformed();
    if (magic != kCheckpointMagic) {
        fatal("hammer: checkpoint '" + path +
              "' has unknown format '" + magic + "'");
    }

    std::string word;
    std::uint64_t stored_print = 0;
    if (!(in >> word >> stored_print) || word != "fingerprint")
        malformed();
    if (stored_print != fingerprint) {
        fatal("hammer: checkpoint '" + path +
              "' was written by a different campaign configuration");
    }

    CampaignSummary summary;
    if (!(in >> word >> summary.seedBegin >> summary.seedEnd) ||
            word != "range") {
        malformed();
    }
    if (!(in >> word >> summary.nextSeed) || word != "next")
        malformed();
    if (!(in >> word >> summary.tested >> summary.sound >>
            summary.skipped) ||
            word != "counts") {
        malformed();
    }

    Features &f = summary.features;
    if (!(in >> word >> f.svc >> f.eret >> f.interrupt >> f.handler >>
            f.barrier >> f.acqRel >> f.rmw >> f.dep >> f.pair >>
            f.threads3) ||
            word != "features") {
        malformed();
    }

    std::uint64_t violations = 0;
    if (!(in >> word >> violations) || word != "violations")
        malformed();
    for (std::uint64_t i = 0; i < violations; ++i) {
        std::uint64_t seed = 0;
        if (!(in >> seed))
            malformed();
        summary.violationSeeds.push_back(seed);
    }

    out = summary;
    return true;
}

void
saveCheckpoint(const std::string &path, std::uint64_t fingerprint,
               const CampaignSummary &summary)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.is_open())
            fatal("hammer: cannot write checkpoint '" + tmp + "'");
        out << kCheckpointMagic << "\n";
        out << "fingerprint " << fingerprint << "\n";
        out << "range " << summary.seedBegin << " " << summary.seedEnd
            << "\n";
        out << "next " << summary.nextSeed << "\n";
        out << "counts " << summary.tested << " " << summary.sound << " "
            << summary.skipped << "\n";
        const Features &f = summary.features;
        out << "features " << f.svc << " " << f.eret << " " << f.interrupt
            << " " << f.handler << " " << f.barrier << " " << f.acqRel
            << " " << f.rmw << " " << f.dep << " " << f.pair << " "
            << f.threads3 << "\n";
        out << "violations " << summary.violationSeeds.size();
        for (std::uint64_t seed : summary.violationSeeds)
            out << " " << seed;
        out << "\n";
        out.flush();
        if (!out.good())
            fatal("hammer: write to checkpoint '" + tmp + "' failed");
    }
    // Make the data durable before the rename can point at it, and the
    // rename durable before run() treats this chunk as committed — a
    // host crash after an unsynced rename silently rewinds the
    // campaign to the previous checkpoint (or none at all).
    fsyncPath(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("hammer: cannot rename checkpoint into '" + path + "'");
    fsyncParentDir(path);
}

} // namespace rex::gen
