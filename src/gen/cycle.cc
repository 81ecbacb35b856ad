/**
 * @file
 * Cycle enumeration and diy-style synthesis.
 */

#include "gen/cycle.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "base/logging.hh"

namespace rex::gen {

namespace {

const EdgeInfo kEdgeInfo[] = {
    // name        external srcW  dstW
    {"Rfe",        true,  true,  false},
    {"Fre",        true,  false, true},
    {"Coe",        true,  true,  true},
    {"PodRR",      false, false, false},
    {"PodRW",      false, false, true},
    {"PodWR",      false, true,  false},
    {"PodWW",      false, true,  true},
    {"DmbdRR",     false, false, false},
    {"DmbdRW",     false, false, true},
    {"DmbdWR",     false, true,  false},
    {"DmbdWW",     false, true,  true},
    {"DpAddrdRR",  false, false, false},
    {"DpAddrdRW",  false, false, true},
    {"DpDatadRW",  false, false, true},
    {"DpCtrldRW",  false, false, true},
    {"SvcdRR",     false, false, false},
    {"SvcdRW",     false, false, true},
    {"SvcdWR",     false, true,  false},
    {"SvcdWW",     false, true,  true},
    {"EretdRR",    false, false, false},
    {"EretdWW",    false, true,  true},
    {"IntdRR",     false, false, false},
    {"IntdRW",     false, false, true},
    {"IntdWR",     false, true,  false},
    {"IntdWW",     false, true,  true},
};

constexpr std::size_t kNumEdgeKinds =
    sizeof(kEdgeInfo) / sizeof(kEdgeInfo[0]);

bool
isSvcEdge(EdgeKind kind)
{
    return kind >= EdgeKind::SvcdRR && kind <= EdgeKind::SvcdWW;
}

bool
isEretEdge(EdgeKind kind)
{
    return kind == EdgeKind::EretdRR || kind == EdgeKind::EretdWW;
}

bool
isIntEdge(EdgeKind kind)
{
    return kind >= EdgeKind::IntdRR && kind <= EdgeKind::IntdWW;
}

bool
isDepEdge(EdgeKind kind)
{
    return kind >= EdgeKind::DpAddrdRR && kind <= EdgeKind::DpCtrldRW;
}

bool
isDmbEdge(EdgeKind kind)
{
    return kind >= EdgeKind::DmbdRR && kind <= EdgeKind::DmbdWW;
}

/** Thread section the walk is in, between edges. */
enum class Section : std::uint8_t { Body, Handler, After };

/**
 * Walk @p edges checking per-thread structural validity (section
 * order, one exception entry per thread). Type-chaining, thread and
 * location counts are checked by the caller.
 * @return false when some edge is structurally invalid.
 */
bool
sectionsValid(const std::vector<EdgeKind> &edges)
{
    Section section = Section::Body;
    bool entry_used = false;
    for (EdgeKind kind : edges) {
        const EdgeInfo &info = edgeInfo(kind);
        if (info.external) {
            section = Section::Body;
            entry_used = false;
            continue;
        }
        if (isSvcEdge(kind) || isIntEdge(kind)) {
            if (section != Section::Body || entry_used)
                return false;
            section = Section::Handler;
            entry_used = true;
        } else if (isEretEdge(kind)) {
            if (section != Section::Handler)
                return false;
            section = Section::After;
        }
        // Plain internal edges stay wherever they are.
    }
    return true;
}

/** Lexicographically minimal rotation of the edge sequence — the
 *  dedup key for cycles that differ only in starting point. */
std::vector<EdgeKind>
canonicalRotation(const std::vector<EdgeKind> &edges)
{
    std::vector<EdgeKind> best = edges;
    std::vector<EdgeKind> rotated = edges;
    for (std::size_t i = 1; i < edges.size(); ++i) {
        std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
        if (rotated < best)
            best = rotated;
    }
    return best;
}

/** One event of the synthesized execution cycle. */
struct CycleEvent {
    int thread = 0;
    int loc = 0;
    bool isWrite = false;
    Section section = Section::Body;
    std::uint64_t value = 0;  //!< assigned to writes (co order per loc)
    int opIndex = -1;         //!< index into the per-thread op list
    int slot = -1;            //!< load destination slot (reads)
};

/** The witness-ready layout of a cycle: events with positions, read
 *  writers, and write values assigned in a coherence order satisfying
 *  the cycle's com edges and po-loc. */
struct CycleLayout {
    std::vector<CycleEvent> events;
    std::vector<int> writerOf;  //!< per event: Rfe source, or -1 (init)

    /** False when the required coherence order is cyclic — no
     *  execution witnesses such a cycle as intended (e.g. a closing
     *  Coe back into a po-loc-ordered write pair). */
    bool coTotal = true;
};

/** Lay out @p edges (thread/location walk, sections, read writers, co
 *  values). @p num_locations is the internal-edge count. */
CycleLayout
layoutCycle(const std::vector<EdgeKind> &edges, int num_locations)
{
    std::size_t n = edges.size();
    CycleLayout layout;
    std::vector<CycleEvent> &events = layout.events;
    events.resize(n);

    // External edges advance the thread (same location), internal
    // edges advance the location (same thread).
    events[0].thread = 0;
    events[0].loc = 0;
    events[0].isWrite = edgeInfo(edges.front()).srcIsWrite;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const EdgeInfo &info = edgeInfo(edges[i]);
        CycleEvent &next = events[i + 1];
        next.isWrite = info.dstIsWrite;
        if (info.external) {
            next.thread = events[i].thread + 1;
            next.loc = events[i].loc;
        } else {
            next.thread = events[i].thread;
            next.loc = (events[i].loc + 1) % num_locations;
        }
    }

    // Sections: replay the walk to place each event.
    {
        Section section = Section::Body;
        events[0].section = section;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            EdgeKind kind = edges[i];
            if (edgeInfo(kind).external)
                section = Section::Body;
            else if (isSvcEdge(kind) || isIntEdge(kind))
                section = Section::Handler;
            else if (isEretEdge(kind))
                section = Section::After;
            events[i + 1].section = section;
        }
    }

    // Each read's writer: the source of its incoming Rfe (the closing
    // edge feeds event 0), or the initial write (-1).
    layout.writerOf.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        EdgeKind incoming = i == 0 ? edges.back() : edges[i - 1];
        if (incoming == EdgeKind::Rfe)
            layout.writerOf[i] = static_cast<int>((i + n - 1) % n);
    }

    // Coherence constraints — NOT chain order: the closing edge can
    // place thread 0's write co-last even though it is chain-first.
    //  - Coe src→dst: src co-before dst;
    //  - Fre r→w: r's writer co-before w;
    //  - po-loc: same-thread same-location writes keep program order
    //    (SC per location; bites when the cycle has one location).
    std::vector<std::vector<int>> co_before(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = (i + 1) % n;
        if (edges[i] == EdgeKind::Coe) {
            co_before[j].push_back(static_cast<int>(i));
        } else if (edges[i] == EdgeKind::Fre && layout.writerOf[i] >= 0) {
            co_before[j].push_back(layout.writerOf[i]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (events[i].isWrite && events[j].isWrite &&
                    events[i].thread == events[j].thread &&
                    events[i].loc == events[j].loc) {
                co_before[j].push_back(static_cast<int>(i));
            }
        }
    }

    // Values 1, 2, ... per location in co order: Kahn's walk with
    // chain-order tie-break (deterministic). An unplaceable write
    // means the constraints are cyclic — the cycle is un-witnessable.
    for (int loc = 0; loc < num_locations; ++loc) {
        std::vector<int> writes;
        for (std::size_t i = 0; i < n; ++i) {
            if (events[i].isWrite && events[i].loc == loc)
                writes.push_back(static_cast<int>(i));
        }
        std::vector<bool> placed(n, false);
        std::uint64_t value = 0;
        for (std::size_t done = 0; done < writes.size(); ++done) {
            int pick = -1;
            for (int w : writes) {
                if (placed[static_cast<std::size_t>(w)])
                    continue;
                bool ready = true;
                for (int before : co_before[static_cast<std::size_t>(w)])
                    ready &= placed[static_cast<std::size_t>(before)];
                if (ready) {
                    pick = w;
                    break;
                }
            }
            if (pick < 0) {
                layout.coTotal = false;
                return layout;
            }
            placed[static_cast<std::size_t>(pick)] = true;
            events[static_cast<std::size_t>(pick)].value = ++value;
        }
    }
    return layout;
}

} // namespace

const EdgeInfo &
edgeInfo(EdgeKind kind)
{
    std::size_t index = static_cast<std::size_t>(kind);
    rexAssert(index < kNumEdgeKinds, "gen: bad edge kind");
    return kEdgeInfo[index];
}

std::string
cycleName(const Cycle &cycle)
{
    std::string out = "cyc";
    for (EdgeKind kind : cycle.edges)
        out += std::string("-") + edgeInfo(kind).name;
    return out;
}

std::vector<Cycle>
enumerateCycles(const CycleConfig &config)
{
    std::vector<Cycle> out;
    std::set<std::vector<EdgeKind>> seen;
    std::vector<EdgeKind> stack;

    // DFS over edge sequences. The first event's type is the src type
    // of the first edge; closure requires the last edge's dst type to
    // match it. Only sequences ending on an external edge are emitted
    // (any valid cycle has one, so every equivalence class is found).
    auto consider = [&]() {
        unsigned external = 0, internal = 0;
        for (EdgeKind kind : stack)
            external += edgeInfo(kind).external ? 1 : 0;
        internal = static_cast<unsigned>(stack.size()) - external;
        if (external < 2 || external > config.maxThreads)
            return;
        if (internal < 1 || internal > config.maxLocations)
            return;
        if (!edgeInfo(stack.back()).external)
            return;
        if (edgeInfo(stack.back()).dstIsWrite !=
                edgeInfo(stack.front()).srcIsWrite) {
            return;
        }
        if (!sectionsValid(stack))
            return;
        if (!seen.insert(canonicalRotation(stack)).second)
            return;
        // Reject cycles whose coherence constraints are cyclic: no
        // execution could witness them as intended.
        if (!layoutCycle(stack, static_cast<int>(internal)).coTotal)
            return;
        out.push_back(Cycle{stack});
    };

    std::function<void(void)> extend = [&]() {
        if (!stack.empty())
            consider();
        if (stack.size() >= config.maxEdges)
            return;
        for (std::size_t k = 0; k < kNumEdgeKinds; ++k) {
            EdgeKind kind = static_cast<EdgeKind>(k);
            if (!stack.empty() &&
                    edgeInfo(stack.back()).dstIsWrite !=
                        edgeInfo(kind).srcIsWrite) {
                continue;
            }
            stack.push_back(kind);
            extend();
            stack.pop_back();
        }
    };
    extend();
    return out;
}

TestSpec
cycleSpec(const Cycle &cycle)
{
    const std::vector<EdgeKind> &edges = cycle.edges;
    rexAssert(!edges.empty() && edgeInfo(edges.back()).external,
              "gen: cycle must end on an external edge");

    unsigned internal = 0;
    for (EdgeKind kind : edges)
        internal += edgeInfo(kind).external ? 0 : 1;
    rexAssert(internal >= 1, "gen: cycle needs an internal edge");
    int num_locations = static_cast<int>(internal);

    std::size_t n = edges.size();
    CycleLayout layout = layoutCycle(edges, num_locations);
    rexAssert(layout.coTotal,
              "gen: cycle has cyclic coherence constraints");
    std::vector<CycleEvent> &events = layout.events;
    const std::vector<int> &writer_of = layout.writerOf;

    TestSpec spec;
    spec.name = cycleName(cycle);
    spec.numLocations = num_locations;
    int num_threads = events.back().thread + 1;
    spec.threads.resize(static_cast<std::size_t>(num_threads));

    // Emit the ops thread by thread (events of one thread are
    // consecutive). Internal edge decorations (fence, dependency,
    // boundary) attach between/onto the ops they relate.
    std::vector<int> load_slots(static_cast<std::size_t>(num_threads), 0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        CycleEvent &event = events[i];
        ThreadSpec &thread =
            spec.threads[static_cast<std::size_t>(event.thread)];

        Op op;
        op.loc = event.loc;
        if (event.isWrite) {
            op.kind = Op::Kind::Store;
            op.value = event.value;
        } else {
            op.kind = Op::Kind::Load;
            op.dst = load_slots[static_cast<std::size_t>(event.thread)]++;
            event.slot = op.dst;
        }

        // The incoming edge (from the previous event on this thread)
        // may decorate this op with a dependency.
        if (i > 0 && !edgeInfo(edges[i - 1]).external) {
            EdgeKind in = edges[i - 1];
            if (isDepEdge(in)) {
                const CycleEvent &src = events[i - 1];
                rexAssert(src.slot >= 0,
                          "gen: dependency source must be a load");
                op.depOn = src.slot;
                if (in == EdgeKind::DpAddrdRR ||
                        in == EdgeKind::DpAddrdRW) {
                    op.dep = Op::Dep::Addr;
                } else if (in == EdgeKind::DpDatadRW) {
                    op.dep = Op::Dep::Data;
                } else {
                    op.dep = Op::Dep::Ctrl;
                }
            }
        }

        std::vector<Op> *section_ops = &thread.body;
        if (event.section == Section::Handler)
            section_ops = &thread.handler;
        else if (event.section == Section::After)
            section_ops = &thread.after;

        // A DMB between two internal events renders as a fence op
        // emitted just before the destination op (same section: Dmb
        // edges never cross a boundary).
        if (i > 0 && isDmbEdge(edges[i - 1])) {
            Op fence;
            fence.kind = Op::Kind::Fence;
            fence.fence = Op::Fence::DmbSy;
            fence.loc = 0;
            section_ops->push_back(fence);
        }

        event.opIndex = static_cast<int>(section_ops->size());
        section_ops->push_back(op);
    }

    // Boundary flags from the edges themselves.
    {
        int thread_index = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            EdgeKind kind = edges[i];
            ThreadSpec &thread =
                spec.threads[static_cast<std::size_t>(thread_index)];
            if (isSvcEdge(kind))
                thread.svc = true;
            else if (isIntEdge(kind))
                thread.interrupt = true;
            else if (isEretEdge(kind))
                thread.eret = true;
            if (edgeInfo(kind).external)
                ++thread_index;
        }
    }

    // Condition: every read with a com role is pinned to its writer's
    // value — Rfe destinations read their writer, Fre sources read
    // their writer (0 for init), which sits co-before the Fre target.
    // Each written location's final value pins the co-last write,
    // which also witnesses the closing edge's co placement.
    for (std::size_t i = 0; i < n; ++i) {
        EdgeKind kind = edges[i];
        std::size_t j = (i + 1) % n;
        const CycleEvent *reader = nullptr;
        if (kind == EdgeKind::Rfe)
            reader = &events[j];
        else if (kind == EdgeKind::Fre)
            reader = &events[i];
        if (!reader)
            continue;
        int writer = writer_of[static_cast<std::size_t>(
            reader - events.data())];
        SpecCond atom;
        atom.tid = reader->thread;
        atom.slot = reader->slot;
        atom.value =
            writer >= 0 ? events[static_cast<std::size_t>(writer)].value
                        : 0;
        spec.condition.push_back(atom);
    }
    for (int loc = 0; loc < num_locations; ++loc) {
        std::uint64_t last = 0;
        for (const CycleEvent &event : events) {
            if (event.isWrite && event.loc == loc)
                last = std::max(last, event.value);
        }
        if (last > 0) {
            SpecCond atom;
            atom.memory = true;
            atom.loc = loc;
            atom.value = last;
            spec.condition.push_back(atom);
        }
    }

    // A read can be constrained twice (e.g. as an Rfe destination and
    // an Fre source); drop exact duplicates.
    std::vector<SpecCond> unique;
    for (const SpecCond &atom : spec.condition) {
        bool seen = false;
        for (const SpecCond &prior : unique) {
            if (prior.memory == atom.memory && prior.tid == atom.tid &&
                    prior.slot == atom.slot && prior.loc == atom.loc &&
                    prior.value == atom.value) {
                seen = true;
                break;
            }
        }
        if (!seen)
            unique.push_back(atom);
    }
    spec.condition = std::move(unique);
    return spec;
}

GeneratedTest
synthesizeCycle(const Cycle &cycle)
{
    return packageSpec(cycleSpec(cycle));
}

} // namespace rex::gen
