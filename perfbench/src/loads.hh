/**
 * @file
 * The three loads of the benchmark. Each has a set-up step (timed into
 * setup_s by main.cc), an untimed input and reference step, and a load
 * object. An untraced run measures the workload's own load; a traced
 * run traces every load, so that every layer reports.
 */

#ifndef PERFBENCH_LOADS_HH
#define PERFBENCH_LOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "axiomatic/params.hh"
#include "bench.hh"
#include "gen/hammer.hh"
#include "litmus/litmus.hh"

namespace rex::engine { class Engine; }
namespace rex::server { class RexServer; }

namespace perfbench {

// ---------------------------------------------------------------------
// paper_matrix: 102 builtins × the paper's five model variants.
// ---------------------------------------------------------------------

struct PaperInputs {
    std::vector<rex::LitmusTest> tests;
    std::vector<rex::ModelParams> variants;
    /** Expected verdict per cell (test-major), filled by paperReference. */
    std::vector<bool> expected;
};

/** Registry build (a re-parse of every builtin) and catc warm-up. */
PaperInputs paperSetup();

/** Untimed: the registry's expectation per cell; cells the registry
 *  leaves open take an in-process checkTest reference. */
void paperReference(PaperInputs &inputs);

/** The paper matrix at jobs 1, verdict cache off. */
class PaperLoad
{
  public:
    PaperLoad(const PaperInputs &inputs, std::uint64_t seed);
    ~PaperLoad();

    /** Untimed: one pass that takes each cell's resident-set peak. */
    void takePeaks(LoadResult &out);

    /** Passes until @p until (at least one). */
    void measure(Clock::time_point until, LoadResult &out);

    /** checks_per_s from the fastest pass: every pass does the same
     *  work, and interference from the rest of the machine only ever
     *  adds time. */
    void endToEnd(LoadResult &out) const;

    /** Traced passes for about @p seconds, then the per-layer metrics
     *  and the reconciliation. */
    void trace(double seconds, LoadResult &out);

  private:
    /** One untraced pass in a fresh seed-shuffled order; its µs. */
    double pass(LoadResult &out);
    double checksPerS(double pass_us) const;

    const PaperInputs &_inputs;
    std::uint64_t _seed;
    std::unique_ptr<rex::engine::Engine> _engine;
    std::uint64_t _pass = 0;
    double _fastestUs = 1e300;
};

// ---------------------------------------------------------------------
// hammer_random, hammer_cycle: the soundness hammer at jobs 1.
// ---------------------------------------------------------------------

struct HammerInputs {
    std::unique_ptr<rex::gen::Hammer> random;
    std::unique_ptr<rex::gen::Hammer> cycle;  //!< owns the inventory
};

/** Builds both hammers (the cycle inventory); offsets come from @p seed. */
HammerInputs hammerSetup(std::uint64_t seed);

/**
 * One hammer mode's seeds, checked in passes through Hammer::checkSeed.
 * A random-mode pass is kRandomSeeds consecutive seeds from the
 * seed-derived offset; a cycle-mode pass is one visit of every
 * inventory test. Every pass checks the same tests, so each test's
 * fastest check is its cost: a slow stretch of the shared machine only
 * ever adds time.
 */
class HammerLoad
{
  public:
    explicit HammerLoad(const rex::gen::Hammer &hammer) : _hammer(hammer) {}

    /** Checks until @p until, continuing the passes of earlier calls;
     *  the first call completes at least the first pass. */
    void measure(Clock::time_point until, LoadResult &out);

    /** checks_per_s: seeds of one pass over the sum of their fastest
     *  checks. */
    void endToEnd(LoadResult &out) const;

  private:
    const rex::gen::Hammer &_hammer;
    std::vector<double> _fastestUs;  //!< per seed of a pass
    std::uint64_t _checked = 0;
};

/**
 * Traced hammer: fresh seeds of both modes for about @p seconds,
 * @p random_share of it in random mode. Each seed is checked untraced
 * through Hammer::checkSeed and then through the same layers as
 * gen::soundnessCheck, each call in its own span; outcomes and campaign
 * summaries must be equal.
 */
void traceHammer(const HammerInputs &inputs, double seconds,
                 double random_share, LoadResult &out);

// ---------------------------------------------------------------------
// rexd: an in-process rexd, one request class at a time (traced runs).
// ---------------------------------------------------------------------

/** A builtin the rexd load requests, with its reference verdicts. */
struct RexdBuiltin {
    std::string name;
    std::string body;   //!< POST /check request body (hit class)
    std::string path;   //!< GET /check/<name>?variants=paper
    std::string etag;   //!< from the warm-up request
    /** Verdicts of the warm-up answer, which a 304 stands for. */
    std::vector<std::string> warmVerdicts;
    std::vector<std::string> expected;  //!< verdict per paper variant
};

/** The server, its engine, and the warm cache. */
struct RexdServer {
    std::unique_ptr<rex::engine::Engine> engine;
    std::unique_ptr<rex::server::RexServer> server;
    std::vector<RexdBuiltin> hits;
    std::vector<RexdBuiltin> revalidations;

    RexdServer();
    ~RexdServer();  // drains and joins the server
    RexdServer(const RexdServer &) = delete;
    RexdServer &operator=(const RexdServer &) = delete;
};

/** Server start and cache warm-up (hits stored, ETags fetched). */
std::unique_ptr<RexdServer> rexdSetup(std::uint64_t seed);

/** Untimed: reference verdicts for the builtins, and the warm-up
 *  answers checked against them (a mismatch is a problem in @p out). */
void rexdReference(RexdServer &server, LoadResult &out);

/**
 * The rexd load, traced: each request class on its own, open loop at
 * rising offered rates for about @p seconds in all; then the in-process
 * engine timings, the per-layer metrics and the reconciliation.
 */
void traceRexd(RexdServer &server, std::uint64_t seed, double seconds,
               LoadResult &out);

} // namespace perfbench

#endif // PERFBENCH_LOADS_HH
