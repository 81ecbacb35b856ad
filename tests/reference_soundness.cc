#include "reference_soundness.hh"

#include <map>
#include <optional>
#include <set>
#include <string>

#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "isa/register.hh"
#include "litmus/parser.hh"
#include "operational/explorer.hh"
#include "operational/profile.hh"

namespace rex::gen::reference {

namespace {

/**
 * The operational machine's Outcome::key() projection of a candidate:
 * the condition's registers plus every memory location, sorted by name.
 */
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

} // namespace

SeedResult
soundnessCheck(const GeneratedTest &generated, const HammerConfig &config)
{
    LitmusTest test = parseLitmus(generated.source);

    SeedResult result;
    result.features = generated.features;

    // Axiomatic side: every consistent candidate's outcome key.
    engine::Governor governor(config.budget);
    const engine::CancelToken *token = governor.token();

    std::set<std::string> allowed;
    bool aborted = false;
    std::optional<std::uint64_t> skeleton_combo;
    SkeletonRelations skeleton;

    CandidateEnumerator enumerator(test, token);
    enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (!governor.admit()) {
                aborted = true;
                return false;
            }
            if (!info.coherent)
                return true;
            if (!skeleton_combo || *skeleton_combo != info.comboIndex) {
                skeleton = computeSkeleton(cand, config.params);
                skeleton_combo = info.comboIndex;
            }
            ModelResult model = checkConsistent(
                cand, config.params, skeleton,
                /*internal_prechecked=*/true, token);
            if (model.aborted) {
                aborted = true;
                return false;
            }
            if (model.consistent)
                allowed.insert(outcomeKey(test, cand));
            return true;
        },
        token);

    if (aborted || governor.tripped()) {
        result.outcome = SeedOutcome::Skipped;
        return result;
    }

    // Operational side on the most relaxed profile.
    op::ExploreResult explored =
        op::explore(test, op::CoreProfile::maxRelaxed(), config.maxStates);
    if (explored.truncated) {
        result.outcome = SeedOutcome::Skipped;
        return result;
    }

    for (const std::string &key : explored.outcomes) {
        if (!allowed.count(key))
            result.violating.push_back(key);
    }
    result.outcome = result.violating.empty() ? SeedOutcome::Sound
                                              : SeedOutcome::Violation;
    return result;
}

} // namespace rex::gen::reference
