#include "operational/explorer.hh"

#include <cstddef>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

namespace rex::op {

namespace {

/** The 64-bit word at @p p (a byte load, free of aliasing rules). */
std::uint64_t
wordAt(const std::byte *p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
}

/** A 64-bit hash of @p n bytes (a multiple of 8): four independent
 *  multiply chains, so consecutive words hash in parallel, then a final
 *  mix. */
std::uint64_t
hashState(const std::byte *bytes, std::size_t n)
{
    constexpr std::uint64_t k = 0x9E3779B97F4A7C15ull;
    std::uint64_t a = n, b = 1, c = 2, d = 3;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        a = (a ^ wordAt(bytes + i)) * k;
        b = (b ^ wordAt(bytes + i + 8)) * k;
        c = (c ^ wordAt(bytes + i + 16)) * k;
        d = (d ^ wordAt(bytes + i + 24)) * k;
    }
    if (i < n)
        a = (a ^ wordAt(bytes + i)) * k;
    if (i + 8 < n)
        b = (b ^ wordAt(bytes + i + 8)) * k;
    if (i + 16 < n)
        c = (c ^ wordAt(bytes + i + 16)) * k;
    std::uint64_t h = a ^ (b >> 16 | b << 48) ^ (c >> 32 | c << 32) ^
        (d >> 48 | d << 16);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    return h ^ (h >> 33);
}

/** DFS frame: the state's arena index and its enabled transitions,
 *  which live in the explorer's transition arena. */
struct Frame {
    std::uint32_t state = 0;
    std::uint32_t count = 0;
    std::uint32_t next = 0;
};

/**
 * The explorer's buffers. Each thread keeps its own between
 * explorations (see explore()), so a run of tests reuses one block of
 * heap instead of growing the heap and handing it back to the kernel,
 * and faulting it in again, on every test.
 */
struct Buffers {
    std::vector<std::byte> arena;
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint32_t> slots;
    std::vector<Frame> stack;
    std::vector<Machine::Transition> transitions;

    std::size_t
    capacityBytes() const
    {
        return arena.capacity() + hashes.capacity() * sizeof(hashes[0]) +
               slots.capacity() * sizeof(slots[0]) +
               stack.capacity() * sizeof(stack[0]) +
               transitions.capacity() * sizeof(transitions[0]);
    }
};

/** Buffers larger than this are freed after the exploration that grew
 *  them, so one huge test does not pin its memory to the thread. */
constexpr std::size_t kKeptBufferBytes = std::size_t{1} << 20;

/**
 * The visited set: every distinct state, stored once in an arena of
 * fixed-size states and found through an open-addressing table (linear
 * probing, at most half full) of arena indices. Equality is exact: a
 * hash match is confirmed by comparing the state bytes.
 */
class StateSet
{
  public:
    StateSet(std::size_t bytes, Buffers &buffers)
        : _bytes(bytes), _arena(buffers.arena), _hashes(buffers.hashes),
          _slots(buffers.slots)
    {
        _arena.clear();
        _hashes.clear();
        _slots.assign(64, 0);
    }

    std::size_t size() const { return _hashes.size(); }

    const std::byte *state(std::uint32_t index) const
    {
        return _arena.data() + static_cast<std::size_t>(index) * _bytes;
    }

    /** The slot that holds @p state, or the empty slot where it would
     *  go. */
    std::size_t probe(const std::byte *state, std::uint64_t hash) const
    {
        std::size_t mask = _slots.size() - 1;
        for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
            std::uint32_t entry = _slots[pos];
            if (entry == 0)
                return pos;
            if (_hashes[entry - 1] == hash &&
                    std::memcmp(this->state(entry - 1), state, _bytes) == 0) {
                return pos;
            }
        }
    }

    bool occupied(std::size_t slot) const { return _slots[slot] != 0; }

    /** Store @p state in the empty @p slot; its arena index. */
    std::uint32_t insert(std::size_t slot, const std::byte *state,
                         std::uint64_t hash)
    {
        auto index = static_cast<std::uint32_t>(_hashes.size());
        _arena.insert(_arena.end(), state, state + _bytes);
        _hashes.push_back(hash);
        _slots[slot] = index + 1;
        if (2 * _hashes.size() > _slots.size())
            rehash();
        return index;
    }

  private:
    /** Double the table and re-place every state from its hash. */
    void rehash()
    {
        _slots.assign(2 * _slots.size(), 0);
        std::size_t mask = _slots.size() - 1;
        for (std::uint32_t i = 0; i < _hashes.size(); ++i) {
            std::size_t pos = _hashes[i] & mask;
            while (_slots[pos] != 0)
                pos = (pos + 1) & mask;
            _slots[pos] = i + 1;
        }
    }

    std::size_t _bytes;
    std::vector<std::byte> &_arena;
    std::vector<std::uint64_t> &_hashes;
    std::vector<std::uint32_t> &_slots;
};

/**
 * One exploration over the machine's current layout; nullopt when a
 * thread outgrew it (the machine has then widened its layout, and the
 * exploration must start over).
 */
std::optional<ExploreResult>
exploreLayout(Machine &machine, const LitmusTest &test,
              std::size_t max_states, Buffers &buffers)
{
    ExploreResult result;
    machine.reset();
    const std::size_t bytes = machine.stateBytes();
    const std::size_t width = machine.maxEnabled();
    StateSet visited(bytes, buffers);
    std::vector<Frame> &stack = buffers.stack;
    std::vector<Machine::Transition> &transitions = buffers.transitions;
    stack.clear();

    // Record a newly visited state (the machine's current one): a final
    // state contributes its outcome, any other is pushed for expansion.
    auto visit = [&](std::uint32_t index) {
        if (machine.done()) {
            Outcome outcome = machine.outcome();
            result.outcomes.insert(outcome.key());
            if (outcome.satisfiesCondition(test))
                result.conditionReachable = true;
            return;
        }
        if (transitions.size() < (stack.size() + 1) * width)
            transitions.resize(2 * (stack.size() + 1) * width);
        Machine::Transition *enabled =
            transitions.data() + stack.size() * width;
        std::size_t count = machine.enabled(enabled);
        // Persistent set: a local Issue alone (see explorer.hh).
        for (std::size_t i = 0; i < count; ++i) {
            if (enabled[i].kind == Machine::Transition::Kind::Issue &&
                    machine.issueIsLocal(enabled[i].thread)) {
                enabled[0] = enabled[i];
                count = 1;
                break;
            }
        }
        stack.push_back({index, static_cast<std::uint32_t>(count), 0});
    };

    std::uint64_t hash = hashState(machine.state(), bytes);
    visit(visited.insert(visited.probe(machine.state(), hash),
                         machine.state(), hash));

    while (!stack.empty()) {
        Frame &frame = stack.back();
        if (frame.next >= frame.count) {
            stack.pop_back();
            continue;
        }
        const Machine::Transition &transition =
            transitions[(stack.size() - 1) * width + frame.next++];
        machine.setState(visited.state(frame.state));
        machine.apply(transition);
        if (machine.stateBytes() != bytes)
            return std::nullopt;
        hash = hashState(machine.state(), bytes);
        std::size_t slot = visited.probe(machine.state(), hash);
        if (visited.occupied(slot))
            continue;
        if (visited.size() >= max_states) {
            result.truncated = true;
            break;
        }
        visit(visited.insert(slot, machine.state(), hash));
    }

    result.statesVisited = visited.size();
    return result;
}

} // namespace

ExploreResult
explore(const LitmusTest &test, const CoreProfile &profile,
        std::size_t max_states)
{
    thread_local Buffers buffers;
    Machine machine(test, profile);
    std::optional<ExploreResult> result;
    while (!result)
        result = exploreLayout(machine, test, max_states, buffers);
    if (buffers.capacityBytes() > kKeptBufferBytes)
        buffers = Buffers();
    return std::move(*result);
}

} // namespace rex::op
