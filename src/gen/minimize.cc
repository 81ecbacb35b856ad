/**
 * @file
 * Delta-debugging passes over the TestSpec IR.
 */

#include "gen/minimize.hh"

#include <array>

#include "axiomatic/checker.hh"
#include "base/logging.hh"
#include "litmus/parser.hh"

namespace rex::gen {

namespace {

/** Try one candidate shrink: keep it when the oracle still fires. */
bool
tryShrink(TestSpec &spec, TestSpec candidate, const Oracle &violates,
          MinimizeStats &stats)
{
    ++stats.attempts;
    if (!violates(candidate))
        return false;
    spec = std::move(candidate);
    ++stats.accepted;
    return true;
}

/** Drop whole threads (last first), fixing up condition tids. */
bool
passDropThreads(TestSpec &spec, const Oracle &violates,
                MinimizeStats &stats)
{
    bool progress = false;
    for (int t = static_cast<int>(spec.threads.size()) - 1;
         t >= 0 && spec.threads.size() > 1; --t) {
        TestSpec candidate = spec;
        candidate.threads.erase(candidate.threads.begin() + t);
        std::vector<SpecCond> kept;
        for (SpecCond atom : candidate.condition) {
            if (!atom.memory) {
                if (atom.tid == t)
                    continue;
                if (atom.tid > t)
                    --atom.tid;
            }
            kept.push_back(atom);
        }
        candidate.condition = std::move(kept);
        progress |= tryShrink(spec, std::move(candidate), violates, stats);
    }
    return progress;
}

/** Strip exception machinery per thread: first the whole boundary
 *  (handler code folded away), then just the ERET tail. */
bool
passDropExceptions(TestSpec &spec, const Oracle &violates,
                   MinimizeStats &stats)
{
    bool progress = false;
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const ThreadSpec &thread = spec.threads[t];
        if (thread.svc || thread.interrupt) {
            // Drop the boundary entirely: handler ops join the body,
            // the after-tail follows them (straight-line thread).
            TestSpec candidate = spec;
            ThreadSpec &flat = candidate.threads[t];
            flat.body.insert(flat.body.end(), flat.handler.begin(),
                             flat.handler.end());
            flat.body.insert(flat.body.end(), flat.after.begin(),
                             flat.after.end());
            flat.handler.clear();
            flat.after.clear();
            flat.svc = flat.interrupt = flat.eret = false;
            progress |=
                tryShrink(spec, std::move(candidate), violates, stats);
        }
        if (spec.threads[t].eret) {
            // Keep the boundary but drop the return: the after-tail
            // moves into the handler so no op is silently lost.
            TestSpec candidate = spec;
            ThreadSpec &noret = candidate.threads[t];
            noret.handler.insert(noret.handler.end(), noret.after.begin(),
                                 noret.after.end());
            noret.after.clear();
            noret.eret = false;
            progress |=
                tryShrink(spec, std::move(candidate), violates, stats);
        }
    }
    return progress;
}

/** Drop individual ops, last-to-first within each section. */
bool
passDropOps(TestSpec &spec, const Oracle &violates, MinimizeStats &stats)
{
    bool progress = false;
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const std::array<std::vector<Op> ThreadSpec::*, 3> sections = {
            &ThreadSpec::body, &ThreadSpec::after, &ThreadSpec::handler};
        for (auto section : sections) {
            for (int i = static_cast<int>(
                     (spec.threads[t].*section).size()) - 1;
                 i >= 0; --i) {
                TestSpec candidate = spec;
                std::vector<Op> &ops = candidate.threads[t].*section;
                ops.erase(ops.begin() + i);
                progress |=
                    tryShrink(spec, std::move(candidate), violates, stats);
            }
        }
    }
    return progress;
}

/** Weaken op annotations: acquire/release colouring, dependencies,
 *  pair/RMW ops down to their plain single-access forms. */
bool
passWeakenOps(TestSpec &spec, const Oracle &violates, MinimizeStats &stats)
{
    bool progress = false;
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const std::array<std::vector<Op> ThreadSpec::*, 3> sections = {
            &ThreadSpec::body, &ThreadSpec::after, &ThreadSpec::handler};
        for (auto section : sections) {
            for (std::size_t i = 0; i < (spec.threads[t].*section).size();
                 ++i) {
                const Op &op = (spec.threads[t].*section)[i];
                std::vector<Op> weaker;
                if (op.acquire || op.acquirePc || op.release) {
                    Op plain = op;
                    plain.acquire = plain.acquirePc = plain.release =
                        false;
                    weaker.push_back(plain);
                }
                if (op.dep != Op::Dep::None) {
                    Op undep = op;
                    undep.dep = Op::Dep::None;
                    weaker.push_back(undep);
                }
                if (op.kind == Op::Kind::Rmw ||
                        op.kind == Op::Kind::LoadPair) {
                    Op load = op;
                    load.kind = Op::Kind::Load;
                    weaker.push_back(load);
                }
                if (op.kind == Op::Kind::StorePair) {
                    Op store = op;
                    store.kind = Op::Kind::Store;
                    weaker.push_back(store);
                }
                for (const Op &replacement : weaker) {
                    TestSpec candidate = spec;
                    (candidate.threads[t].*section)[i] = replacement;
                    progress |= tryShrink(spec, std::move(candidate),
                                          violates, stats);
                }
            }
        }
    }
    return progress;
}

/** Drop condition atoms (render falls back to *x=0 when empty). */
bool
passDropCondition(TestSpec &spec, const Oracle &violates,
                  MinimizeStats &stats)
{
    bool progress = false;
    for (int i = static_cast<int>(spec.condition.size()) - 1; i >= 0;
         --i) {
        TestSpec candidate = spec;
        candidate.condition.erase(candidate.condition.begin() + i);
        progress |= tryShrink(spec, std::move(candidate), violates, stats);
    }
    return progress;
}

/** Compact away locations no op or condition atom references. */
bool
passCompactLocations(TestSpec &spec, const Oracle &violates,
                     MinimizeStats &stats)
{
    std::array<bool, 3> used = {false, false, false};
    auto scan = [&](const std::vector<Op> &ops) {
        for (const Op &op : ops) {
            used[static_cast<std::size_t>(op.loc)] = true;
            // A pair op's second element lands on the next location.
            if (op.kind == Op::Kind::LoadPair ||
                    op.kind == Op::Kind::StorePair) {
                std::size_t second =
                    static_cast<std::size_t>(op.loc) + 1;
                if (second < used.size())
                    used[second] = true;
            }
        }
    };
    for (const ThreadSpec &thread : spec.threads) {
        scan(thread.body);
        scan(thread.after);
        scan(thread.handler);
    }
    for (const SpecCond &atom : spec.condition) {
        if (atom.memory)
            used[static_cast<std::size_t>(atom.loc)] = true;
    }

    // Only trailing unused locations can go: interior renumbering would
    // change every op's cell assignment (and pair spill targets).
    int compact = spec.numLocations;
    while (compact > 1 && !used[static_cast<std::size_t>(compact - 1)])
        --compact;
    if (compact == spec.numLocations)
        return false;
    TestSpec candidate = spec;
    candidate.numLocations = compact;
    return tryShrink(spec, std::move(candidate), violates, stats);
}

} // namespace

Oracle
makeSoundnessOracle(HammerConfig config)
{
    return [config = std::move(config)](const TestSpec &spec) {
        return soundnessCheck(spec, config).outcome ==
               SeedOutcome::Violation;
    };
}

TestSpec
minimize(TestSpec spec, const Oracle &violates, MinimizeStats *stats)
{
    if (!violates(spec))
        fatal("minimize: input does not satisfy the oracle");

    MinimizeStats local;
    MinimizeStats &s = stats ? *stats : local;
    bool progress = true;
    while (progress) {
        ++s.rounds;
        progress = false;
        progress |= passDropThreads(spec, violates, s);
        progress |= passDropExceptions(spec, violates, s);
        progress |= passDropOps(spec, violates, s);
        progress |= passWeakenOps(spec, violates, s);
        progress |= passDropCondition(spec, violates, s);
        progress |= passCompactLocations(spec, violates, s);
    }
    return spec;
}

std::string
promote(const TestSpec &spec, const std::string &name)
{
    TestSpec named = spec;
    named.name = name;
    std::string source = render(named);

    LitmusTest test = parseLitmus(source);
    bool base_allowed =
        checkTest(test, ModelParams::base(), /*stop_at_first=*/true,
                  /*capture_witness=*/false)
            .observable;

    // render() always writes "allowed: <cond>"; rewrite the keyword to
    // the computed base verdict.
    const std::string allowed_prefix = "allowed: ";
    std::size_t cond_at = source.rfind(allowed_prefix);
    rexAssert(cond_at != std::string::npos,
              "promote: rendered source has no condition line");
    if (!base_allowed) {
        source = source.substr(0, cond_at) + "forbidden: " +
                 source.substr(cond_at + allowed_prefix.size());
    }

    for (const ModelParams &params : ModelParams::paperVariants()) {
        std::string variant = params.name();
        if (variant == "base")
            continue;
        bool variant_allowed =
            checkTest(test, params, /*stop_at_first=*/true,
                      /*capture_witness=*/false)
                .observable;
        source += "variant " + variant + ": " +
                  (variant_allowed ? "allowed" : "forbidden") + "\n";
    }
    return source;
}

} // namespace rex::gen
