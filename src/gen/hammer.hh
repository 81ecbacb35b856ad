/**
 * @file
 * The soundness hammer: a campaign driver that pushes seed ranges of
 * generated litmus tests through both semantics and cross-checks them.
 *
 * Soundness here is the repo's north-star invariant: every outcome the
 * operational simulator can reach (op::explore on the most relaxed
 * core profile) must be allowed by the axiomatic model. For each seed
 * the hammer synthesizes a spec (gen/generator.hh random mode, or the
 * gen/cycle.hh inventory indexed by seed), lowers it straight to a
 * LitmusTest (no litmus text in between), skips it when its exact
 * candidate count exceeds the per-seed budget's ceiling
 * (engine/governor.hh), explores it operationally, and then searches
 * the candidates on the staged path for one consistent witness per
 * explored outcome, and no more: trace combinations whose final
 * registers match no outcome still without a witness are never
 * assembled, and the model runs only on coherent candidates whose
 * outcome still lacks one. An explored outcome left without a witness
 * is operationally reachable but axiomatically forbidden: a Violation.
 *
 * Campaigns fan seed chunks over the engine's deterministic ordered
 * map(), so a campaign's summary is identical across REX_JOBS values.
 * Progress checkpoints to disk after every chunk (versioned text,
 * atomic tmp+rename, config-fingerprinted), which makes a campaign
 * resumable after SIGKILL with a final summary byte-identical to an
 * uninterrupted run — provided the budget stays schedule-independent
 * (candidate/state ceilings; a wall-clock deadline trades that
 * determinism for latency bounds).
 */

#ifndef REX_GEN_HAMMER_HH
#define REX_GEN_HAMMER_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "axiomatic/params.hh"
#include "engine/governor.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"

namespace rex {
class CandidateEnumerator;
struct LitmusTest;
} // namespace rex
namespace rex::engine { class Engine; }

namespace rex::gen {

/** What the hammer feeds itself with. */
enum class Mode : std::uint8_t {
    Random,  //!< gen::generate(seed)
    Cycle,   //!< cycle inventory entry seed % inventorySize
};

/** One campaign's configuration. */
struct HammerConfig {
    /** Seed range [seedBegin, seedEnd). */
    std::uint64_t seedBegin = 0;
    std::uint64_t seedEnd = 0;

    Mode mode = Mode::Random;
    GenConfig gen;
    CycleConfig cycle;

    /** Model parameters for the axiomatic side. */
    ModelParams params = ModelParams::base();

    /** Per-seed resource budget. The default candidate ceiling keeps
     *  pathological seeds bounded: a seed with more candidates is
     *  Skipped, deterministically. The deadline and memory axes span
     *  the whole seed from trace enumeration on, operational
     *  exploration included: exploration is bounded by maxStates and
     *  never interrupted, but its time and heap growth count against
     *  the witness search that follows.
     *  Setting deadlineMicros makes skips schedule-dependent — resume
     *  identity is only guaranteed without it. */
    engine::Budget budget = defaultBudget();

    /** State cap for operational exploration; hitting it skips the
     *  seed (deterministically). */
    std::size_t maxStates = 300000;

    /** Seeds per engine.map() batch (also the checkpoint interval). */
    std::uint64_t chunk = 256;

    /** Checkpoint path; empty disables checkpointing. */
    std::string checkpointPath;

    /** External cancellation, polled between chunks only (so a
     *  cancelled campaign still resumes deterministically). */
    const engine::CancelToken *cancel = nullptr;

    static engine::Budget
    defaultBudget()
    {
        engine::Budget budget;
        budget.maxCandidates = 150000;
        return budget;
    }
};

/** Per-seed verdict. */
enum class SeedOutcome : std::uint8_t {
    Sound,      //!< operational outcomes ⊆ axiomatic outcomes
    Skipped,    //!< budget/state ceiling hit before a full answer
    Violation,  //!< some operational outcome the model forbids
};

/** Result of soundness-checking one seed. */
struct SeedResult {
    std::uint64_t seed = 0;
    SeedOutcome outcome = SeedOutcome::Sound;
    Features features;

    /** The offending outcome keys (Violation only). */
    std::vector<std::string> violating;
};

/** Accumulated campaign state — also the checkpoint payload. */
struct CampaignSummary {
    std::uint64_t seedBegin = 0;
    std::uint64_t seedEnd = 0;

    /** First seed not yet processed (== seedEnd when complete). */
    std::uint64_t nextSeed = 0;

    std::uint64_t tested = 0;
    std::uint64_t sound = 0;
    std::uint64_t skipped = 0;
    std::vector<std::uint64_t> violationSeeds;

    /** Per-feature counts over all tested seeds. */
    Features features;

    bool complete() const { return nextSeed == seedEnd; }

    /** Deterministic human-readable report (identical for resumed and
     *  uninterrupted campaigns over the same config). */
    std::string render() const;
};

/**
 * The hammer. Construction is cheap in Random mode; Cycle mode builds
 * the cycle inventory once up front.
 */
class Hammer
{
  public:
    explicit Hammer(HammerConfig config);

    /** The spec of @p seed (deterministic). */
    TestSpec specForSeed(std::uint64_t seed) const;

    /** specForSeed(seed), packaged with its source. */
    GeneratedTest testForSeed(std::uint64_t seed) const;

    /** Soundness-check one seed. */
    SeedResult checkSeed(std::uint64_t seed) const;

    /**
     * Run the campaign: resume from the checkpoint when one exists
     * (fatal() if it was written by a different configuration), fan
     * chunks over @p engine, checkpoint after each chunk. Returns the
     * summary — partial (complete() == false) only when the external
     * cancel token tripped.
     */
    CampaignSummary run(engine::Engine &engine) const;

    /** Cycle-mode inventory size (0 in Random mode). */
    std::size_t inventorySize() const { return _inventory.size(); }

    const HammerConfig &config() const { return _config; }

    /** Fingerprint of everything that determines per-seed results:
     *  config, generator revision, model revision. */
    std::uint64_t fingerprint() const;

  private:
    HammerConfig _config;
    std::vector<Cycle> _inventory;
};

/**
 * Soundness-check one already-synthesized spec under @p config's
 * params/budget — the per-seed machinery minus the synthesis. The spec
 * is lowered straight to its LitmusTest (gen/spec.hh lower()), never
 * rendered or parsed. The minimizer's oracle re-enters here after
 * every shrink.
 */
SeedResult soundnessCheck(const TestSpec &spec, const HammerConfig &config);

/**
 * The axiomatic half of soundnessCheck(): the keys of @p outcomes
 * (Outcome::key()s of runs of @p test) that no candidate of
 * @p enumerator consistent under @p params witnesses, in @p outcomes
 * order. Skips the trace combinations whose final registers match no
 * outcome still without a witness, runs the model only on coherent
 * candidates whose outcome still lacks one, and stops once every
 * outcome has one. Every visited candidate is admitted by @p governor;
 * nullopt when its budget stopped the walk.
 */
std::optional<std::vector<std::string>> unwitnessedOutcomes(
    const LitmusTest &test, const CandidateEnumerator &enumerator,
    const std::set<std::string> &outcomes, const ModelParams &params,
    engine::Governor &governor);

/** Load a checkpoint; false when @p path does not exist. fatal() on a
 *  malformed file or a fingerprint mismatch. Exposed for tests. */
bool loadCheckpoint(const std::string &path, std::uint64_t fingerprint,
                    CampaignSummary &out);

/** Atomically (tmp + rename) write @p summary to @p path. */
void saveCheckpoint(const std::string &path, std::uint64_t fingerprint,
                    const CampaignSummary &summary);

} // namespace rex::gen

#endif // REX_GEN_HAMMER_HH
