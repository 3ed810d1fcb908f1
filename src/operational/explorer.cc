#include "operational/explorer.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex::op {

namespace {

/**
 * An exact interning table: every distinct key stored once in a chunked
 * byte arena (chunks never move), indexed by an open-addressing table
 * with linear probing. Each key's id is its insertion index. A lookup
 * hashes the key once and compares bytes only on a matching hash, so
 * membership is exact: two keys share an id only when they are equal.
 */
class StateSet
{
  public:
    std::size_t size() const { return _size; }

    bool contains(std::string_view key) const
    {
        return _slots[find(key, hashOf(key))].data != nullptr;
    }

    /** The id of @p key, adding it when new; the flag is true when it
     *  was added. */
    std::pair<std::uint32_t, bool> insert(std::string_view key)
    {
        if ((_size + 1) * 2 > _slots.size())
            grow();
        const std::size_t hash = hashOf(key);
        Slot &slot = _slots[find(key, hash)];
        if (slot.data)
            return {slot.id, false};
        slot = {store(key), static_cast<std::uint32_t>(key.size()),
                static_cast<std::uint32_t>(_size), hash};
        ++_size;
        return {slot.id, true};
    }

  private:
    struct Slot {
        const char *data = nullptr;  //!< nullptr marks an empty slot
        std::uint32_t size = 0;
        std::uint32_t id = 0;
        std::size_t hash = 0;
    };

    /** Chunks start small, since most explorations visit a few hundred
     *  states and every segment has a table of its own, and double up
     *  to a cap. */
    static constexpr std::size_t kFirstChunkBytes = std::size_t{4} << 10;
    static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;

    static std::size_t hashOf(std::string_view key)
    {
        return std::hash<std::string_view>{}(key);
    }

    /** Index of @p key's slot, or of the empty slot it would take. */
    std::size_t find(std::string_view key, std::size_t hash) const
    {
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
            const Slot &slot = _slots[i];
            if (!slot.data)
                return i;
            if (slot.hash == hash && slot.size == key.size() &&
                    std::memcmp(slot.data, key.data(), key.size()) == 0) {
                return i;
            }
        }
    }

    void grow()
    {
        std::vector<Slot> old(std::max<std::size_t>(64, _slots.size() * 2));
        old.swap(_slots);
        const std::size_t mask = _slots.size() - 1;
        for (const Slot &slot : old) {
            if (!slot.data)
                continue;
            std::size_t i = slot.hash & mask;
            while (_slots[i].data)
                i = (i + 1) & mask;
            _slots[i] = slot;
        }
    }

    const char *store(std::string_view key)
    {
        if (_chunks.empty() || _chunkUsed + key.size() > _chunkSize) {
            _chunkSize = std::max(
                _chunks.empty() ? kFirstChunkBytes
                                : std::min(2 * _chunkSize, kMaxChunkBytes),
                key.size());
            _chunks.push_back(
                std::make_unique_for_overwrite<char[]>(_chunkSize));
            _chunkUsed = 0;
        }
        char *at = _chunks.back().get() + _chunkUsed;
        std::memcpy(at, key.data(), key.size());
        _chunkUsed += key.size();
        return at;
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    std::vector<std::unique_ptr<char[]>> _chunks;
    std::size_t _chunkSize = 0;
    std::size_t _chunkUsed = 0;
};

/** DFS frame at one depth. Frames are reused by depth index, so the
 *  machine's vectors and the transition list keep their capacity. */
struct Frame {
    Machine machine;
    /** The state's segment ids, one per segment. */
    std::vector<std::uint32_t> ids;
    std::vector<Machine::Transition> transitions;
    std::size_t next = 0;
    /** Segments this frame's machine changed since the frame above
     *  last restored its own from it. */
    Machine::SegmentMask changed = 0;

    /** The visited-set key: the tuple of segment ids. */
    std::string_view tuple() const
    {
        return {reinterpret_cast<const char *>(ids.data()),
                ids.size() * sizeof(std::uint32_t)};
    }
};

} // namespace

ExploreResult
explore(const LitmusTest &test, const CoreProfile &profile,
        std::size_t max_states)
{
    // Ids are 32-bit insertion indices, and no segment table holds more
    // keys than one past the visited states; a larger cap could wrap an
    // id and merge two distinct states.
    if (max_states > std::numeric_limits<std::uint32_t>::max()) {
        fatal(format("op::explore: max_states %zu exceeds the 32-bit "
                     "state id range", max_states));
    }

    ExploreResult result;
    std::vector<Frame> frames;
    frames.push_back({Machine(test, profile), {}, {}, 0, 0});
    const std::size_t num_segments = frames[0].machine.numSegments();
    std::vector<StateSet> segments(num_segments);
    StateSet visited;
    std::string key;

    auto intern = [&](Frame &frame, std::size_t segment) {
        frame.machine.segmentKey(segment, key);
        frame.ids[segment] = segments[segment].insert(key).first;
    };

    // A newly visited state: a final one contributes its outcome, any
    // other is ready to expand. Returns whether to descend into it.
    auto enter = [&](Frame &frame) {
        if (frame.machine.done()) {
            frame.machine.outcomeKey(key);
            if (result.outcomes.insert(key).second &&
                    frame.machine.conditionHolds()) {
                result.conditionReachable = true;
            }
            return false;
        }
        frame.machine.persistentSet(frame.transitions);
        frame.next = 0;
        return true;
    };

    frames[0].ids.resize(num_segments);
    for (std::size_t s = 0; s < num_segments; ++s)
        intern(frames[0], s);
    visited.insert(frames[0].tuple());

    // frames[0, live) is the DFS stack. Each successor is built in
    // place in the frame above its parent. That frame still holds an
    // earlier successor, which differs from the parent only in the
    // segments its own transition moved and those the parent changed
    // since; only those are restored from the parent. When the
    // successor's tuple has been visited, the next sibling overwrites it.
    std::size_t live = enter(frames[0]) ? 1 : 0;
    while (live > 0) {
        if (frames[live - 1].next == frames[live - 1].transitions.size()) {
            --live;
            continue;
        }
        if (live == frames.size()) {
            frames.push_back({frames[live - 1].machine, {}, {}, 0, 0});
        } else {
            const Machine::SegmentMask stale =
                frames[live].machine.moved() | frames[live - 1].changed;
            frames[live].machine.copySegments(frames[live - 1].machine,
                                              stale);
            frames[live].changed |= stale;
        }
        Frame &parent = frames[live - 1];
        Frame &child = frames[live];
        parent.changed = 0;
        child.machine.apply(parent.transitions[parent.next++]);
        child.changed |= child.machine.moved();
        child.ids = parent.ids;
        for (Machine::SegmentMask m = child.machine.moved(); m; m &= m - 1)
            intern(child, static_cast<std::size_t>(std::countr_zero(m)));
        if (visited.size() >= max_states) {
            if (visited.contains(child.tuple()))
                continue;
            result.truncated = true;
            break;
        }
        if (visited.insert(child.tuple()).second && enter(child))
            ++live;
    }

    result.statesVisited = visited.size();
    return result;
}

} // namespace rex::op
