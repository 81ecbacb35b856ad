#include "relation/relation.hh"

#include <bit>

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex {

Relation::Relation(std::size_t universe_size)
    : _size(universe_size), _bits(universe_size * ((universe_size + 63) / 64), 0)
{
}

void
Relation::reset(std::size_t universe_size)
{
    _size = universe_size;
    // assign() reuses the vector's capacity; a fresh Relation would
    // reallocate on every call, which the enumerator's combo reuse
    // (see ComboSpace) is designed to avoid.
    _bits.assign(universe_size * ((universe_size + 63) / 64), 0);
}

const std::uint64_t *
Relation::row(EventId r) const
{
    return _bits.data() + static_cast<std::size_t>(r) * rowWords();
}

std::uint64_t *
Relation::row(EventId r)
{
    return _bits.data() + static_cast<std::size_t>(r) * rowWords();
}

Relation
Relation::identity(const EventSet &set)
{
    Relation rel(set.size());
    for (EventId id : set.members())
        rel.add(id, id);
    return rel;
}

Relation
Relation::identity(std::size_t universe_size)
{
    return identity(EventSet::universe(universe_size));
}

Relation
Relation::cartesian(const EventSet &from, const EventSet &to)
{
    rexAssert(from.size() == to.size(),
              "Relation::cartesian over mismatched universes");
    Relation rel(from.size());
    for (EventId a : from.members()) {
        for (EventId b : to.members())
            rel.add(a, b);
    }
    return rel;
}

std::size_t
Relation::pairCount() const
{
    std::size_t n = 0;
    for (std::uint64_t w : _bits)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

bool
Relation::empty() const
{
    for (std::uint64_t w : _bits) {
        if (w != 0)
            return false;
    }
    return true;
}

void
Relation::add(EventId from, EventId to)
{
    rexAssert(from < _size && to < _size, "Relation::add out of range");
    row(from)[to / 64] |= std::uint64_t{1} << (to % 64);
}

void
Relation::remove(EventId from, EventId to)
{
    rexAssert(from < _size && to < _size, "Relation::remove out of range");
    row(from)[to / 64] &= ~(std::uint64_t{1} << (to % 64));
}

bool
Relation::contains(EventId from, EventId to) const
{
    if (from >= _size || to >= _size)
        return false;
    return (row(from)[to / 64] >> (to % 64)) & 1;
}

void
Relation::checkCompatible(const Relation &other) const
{
    rexAssert(_size == other._size,
              "Relation operation over mismatched universes");
}

Relation
Relation::operator|(const Relation &other) const
{
    Relation out = *this;
    out |= other;
    return out;
}

Relation
Relation::operator&(const Relation &other) const
{
    Relation out = *this;
    out &= other;
    return out;
}

Relation
Relation::operator-(const Relation &other) const
{
    Relation out = *this;
    out -= other;
    return out;
}

Relation &
Relation::operator|=(const Relation &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < _bits.size(); ++i)
        _bits[i] |= other._bits[i];
    return *this;
}

Relation &
Relation::operator&=(const Relation &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < _bits.size(); ++i)
        _bits[i] &= other._bits[i];
    return *this;
}

Relation &
Relation::operator-=(const Relation &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < _bits.size(); ++i)
        _bits[i] &= ~other._bits[i];
    return *this;
}

Relation
Relation::seq(const Relation &other) const
{
    checkCompatible(other);
    Relation out(_size);
    const std::size_t words = rowWords();
    // Raw pointers hoisted for the same aliasing reason as in
    // transitiveClosure().
    const std::uint64_t *abits = _bits.data();
    const std::uint64_t *bbits = other._bits.data();
    std::uint64_t *obits = out._bits.data();
    for (EventId a = 0; a < _size; ++a) {
        const std::uint64_t *arow = abits + a * words;
        std::uint64_t *orow = obits + a * words;
        for (std::size_t wi = 0; wi < words; ++wi) {
            std::uint64_t bits = arow[wi];
            while (bits != 0) {
                const EventId b = static_cast<EventId>(
                    wi * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
                bits &= bits - 1;
                const std::uint64_t *brow = bbits + b * words;
                for (std::size_t w = 0; w < words; ++w)
                    orow[w] |= brow[w];
            }
        }
    }
    return out;
}

Relation
Relation::transitiveClosure() const
{
    // Floyd-Warshall on bit rows: for each intermediate k, any row that
    // reaches k absorbs k's row.
    Relation out = *this;
    const std::size_t words = rowWords();
    // Hoisted raw pointer: row() re-reads the storage pointer through
    // the object after every word store (a size_t member aliases
    // uint64_t stores under TBAA), which the inner loop cannot afford.
    std::uint64_t *bits = out._bits.data();
    for (EventId k = 0; k < _size; ++k) {
        const std::uint64_t mask = std::uint64_t{1} << (k % 64);
        const std::size_t kword = k / 64;
        const std::uint64_t *krow = bits + k * words;
        std::uint64_t *irow = bits;
        for (EventId i = 0; i < _size; ++i, irow += words) {
            if (irow[kword] & mask) {
                for (std::size_t w = 0; w < words; ++w)
                    irow[w] |= krow[w];
            }
        }
    }
    return out;
}

Relation
Relation::reflexiveTransitiveClosure() const
{
    return transitiveClosure() | identity(_size);
}

Relation
Relation::optional() const
{
    return *this | identity(_size);
}

Relation
Relation::inverse() const
{
    Relation out(_size);
    const std::size_t words = rowWords();
    for (EventId a = 0; a < _size; ++a) {
        const std::uint64_t *arow = row(a);
        for (std::size_t wi = 0; wi < words; ++wi) {
            std::uint64_t bits = arow[wi];
            while (bits != 0) {
                const EventId b = static_cast<EventId>(
                    wi * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
                bits &= bits - 1;
                out.add(b, a);
            }
        }
    }
    return out;
}

Relation
Relation::restrictDomain(const EventSet &set) const
{
    rexAssert(set.size() == _size,
              "Relation::restrictDomain over mismatched universes");
    Relation out(_size);
    const std::size_t words = rowWords();
    for (EventId a = 0; a < _size; ++a) {
        if (!set.contains(a))
            continue;
        const std::uint64_t *arow = row(a);
        std::uint64_t *orow = out.row(a);
        for (std::size_t w = 0; w < words; ++w)
            orow[w] = arow[w];
    }
    return out;
}

Relation
Relation::restrictRange(const EventSet &set) const
{
    rexAssert(set.size() == _size,
              "Relation::restrictRange over mismatched universes");
    Relation out = *this;
    const std::size_t words = rowWords();
    for (EventId a = 0; a < _size; ++a) {
        std::uint64_t *arow = out.row(a);
        for (std::size_t w = 0; w < words; ++w)
            arow[w] &= set._words[w];
    }
    return out;
}

Relation
Relation::restricted(const EventSet &dom, const EventSet &rng) const
{
    rexAssert(dom.size() == _size && rng.size() == _size,
              "Relation::restricted over mismatched universes");
    Relation out(_size);
    const std::size_t words = rowWords();
    for (EventId a = 0; a < _size; ++a) {
        if (!dom.contains(a))
            continue;
        const std::uint64_t *arow = row(a);
        std::uint64_t *orow = out.row(a);
        for (std::size_t w = 0; w < words; ++w)
            orow[w] = arow[w] & rng._words[w];
    }
    return out;
}

EventSet
Relation::domain() const
{
    EventSet out(_size);
    for (EventId a = 0; a < _size; ++a) {
        const std::uint64_t *arow = row(a);
        for (std::size_t w = 0; w < rowWords(); ++w) {
            if (arow[w] != 0) {
                out.insert(a);
                break;
            }
        }
    }
    return out;
}

EventSet
Relation::range() const
{
    EventSet out(_size);
    for (EventId a = 0; a < _size; ++a) {
        for (std::size_t w = 0; w < rowWords(); ++w)
            out._words[w] |= row(a)[w];
    }
    // Clear any excess bits copied from rows (rows never set them, but be
    // defensive about the invariant).
    return out;
}

bool
Relation::irreflexive() const
{
    for (EventId a = 0; a < _size; ++a) {
        if (contains(a, a))
            return false;
    }
    return true;
}

bool
Relation::acyclic() const
{
    return transitiveClosure().irreflexive();
}

bool
Relation::hasCycle() const
{
    // Same tricolor DFS as findCycle(), but successors come straight
    // from the row words (countr_zero over the remaining bits) and no
    // cycle is reconstructed: this is the verdict-only fast path.
    enum class Colour : std::uint8_t { White, Grey, Black };
    std::vector<Colour> colour(_size, Colour::White);

    // Per frame: the node and the not-yet-tried tail of its row,
    // as (current word index, remaining bits of that word).
    struct Frame { EventId node; std::size_t word; std::uint64_t bits; };
    std::vector<Frame> frames;
    const std::size_t words = rowWords();
    // Rows keep bits past _size clear, but be defensive (findCycle's
    // contains() scan is immune to them; this walker is not).
    const std::uint64_t lastMask =
        _size % 64 ? (~std::uint64_t{0} >> (64 - _size % 64))
                   : ~std::uint64_t{0};
    auto word = [&](EventId node, std::size_t w) {
        const std::uint64_t bits = row(node)[w];
        return w + 1 == words ? bits & lastMask : bits;
    };

    for (EventId root = 0; root < _size; ++root) {
        if (colour[root] != Colour::White)
            continue;
        colour[root] = Colour::Grey;
        frames.push_back({root, 0, word(root, 0)});
        while (!frames.empty()) {
            Frame &frame = frames.back();
            while (frame.bits == 0 && frame.word + 1 < words) {
                ++frame.word;
                frame.bits = word(frame.node, frame.word);
            }
            if (frame.bits == 0) {
                colour[frame.node] = Colour::Black;
                frames.pop_back();
                continue;
            }
            const auto succ = static_cast<EventId>(
                frame.word * 64 +
                static_cast<std::size_t>(std::countr_zero(frame.bits)));
            frame.bits &= frame.bits - 1;
            if (colour[succ] == Colour::Grey)
                return true;
            if (colour[succ] == Colour::White) {
                colour[succ] = Colour::Grey;
                frames.push_back({succ, 0, word(succ, 0)});
            }
        }
    }
    return false;
}

std::optional<std::vector<EventId>>
Relation::findCycle() const
{
    // Iterative DFS with colouring; reconstruct the cycle from the stack
    // when a grey node is re-entered.
    enum class Colour : std::uint8_t { White, Grey, Black };
    std::vector<Colour> colour(_size, Colour::White);
    std::vector<EventId> stack;

    // For each node, the next successor index to try, aligned with stack.
    struct Frame { EventId node; EventId next; };
    std::vector<Frame> frames;

    for (EventId root = 0; root < _size; ++root) {
        if (colour[root] != Colour::White)
            continue;
        frames.push_back({root, 0});
        colour[root] = Colour::Grey;
        stack.push_back(root);
        while (!frames.empty()) {
            Frame &frame = frames.back();
            bool advanced = false;
            while (frame.next < _size) {
                EventId succ = frame.next++;
                if (!contains(frame.node, succ))
                    continue;
                if (colour[succ] == Colour::Grey) {
                    // Found a cycle: slice the stack from succ onwards.
                    std::vector<EventId> cycle;
                    std::size_t i = stack.size();
                    while (i > 0 && stack[i - 1] != succ)
                        --i;
                    rexAssert(i > 0, "cycle witness missing from stack");
                    cycle.assign(stack.begin() +
                                 static_cast<std::ptrdiff_t>(i - 1),
                                 stack.end());
                    return cycle;
                }
                if (colour[succ] == Colour::White) {
                    colour[succ] = Colour::Grey;
                    stack.push_back(succ);
                    frames.push_back({succ, 0});
                    advanced = true;
                    break;
                }
            }
            if (!advanced) {
                colour[frame.node] = Colour::Black;
                stack.pop_back();
                frames.pop_back();
            }
        }
    }
    return std::nullopt;
}

std::vector<std::pair<EventId, EventId>>
Relation::pairs() const
{
    std::vector<std::pair<EventId, EventId>> out;
    for (EventId a = 0; a < _size; ++a) {
        for (EventId b = 0; b < _size; ++b) {
            if (contains(a, b))
                out.emplace_back(a, b);
        }
    }
    return out;
}

std::string
Relation::toString() const
{
    std::string out = "{";
    bool first = true;
    for (auto [a, b] : pairs()) {
        if (!first)
            out += ", ";
        out += concat({"(", std::to_string(a), ",", std::to_string(b), ")"});
        first = false;
    }
    out += "}";
    return out;
}

} // namespace rex
