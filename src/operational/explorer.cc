#include "operational/explorer.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rex::op {

namespace {

/**
 * The visited set: every full key, stored once in a chunked byte arena
 * (chunks never move), indexed by an open-addressing table with linear
 * probing. A lookup hashes the key once and compares bytes only on a
 * matching hash, so membership is exact: two states are merged only
 * when their keys are equal.
 */
class StateSet
{
  public:
    std::size_t size() const { return _size; }

    bool contains(std::string_view key) const
    {
        return _slots[find(key, hashOf(key))].data != nullptr;
    }

    /** Add @p key; false when it was already present. */
    bool insert(std::string_view key)
    {
        if ((_size + 1) * 2 > _slots.size())
            grow();
        const std::size_t hash = hashOf(key);
        Slot &slot = _slots[find(key, hash)];
        if (slot.data)
            return false;
        slot = {store(key), key.size(), hash};
        ++_size;
        return true;
    }

  private:
    struct Slot {
        const char *data = nullptr;  //!< nullptr marks an empty slot
        std::size_t size = 0;
        std::size_t hash = 0;
    };

    /** Chunks start small, since most explorations visit a few hundred
     *  states, and double up to a cap. */
    static constexpr std::size_t kFirstChunkBytes = std::size_t{16} << 10;
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
    std::vector<Machine::Transition> transitions;
    std::size_t next = 0;
};

} // namespace

ExploreResult
explore(const LitmusTest &test, const CoreProfile &profile,
        std::size_t max_states)
{
    ExploreResult result;
    StateSet visited;
    std::string key;

    // A newly visited state: a final one contributes its outcome, any
    // other is ready to expand. Returns whether to descend into it.
    auto enter = [&](Frame &frame) {
        if (frame.machine.done()) {
            Outcome outcome = frame.machine.outcome();
            result.outcomes.insert(outcome.key());
            if (outcome.satisfiesCondition(test))
                result.conditionReachable = true;
            return false;
        }
        frame.machine.enabled(frame.transitions);
        frame.next = 0;
        return true;
    };

    std::vector<Frame> frames;
    frames.push_back({Machine(test, profile), {}, 0});
    frames[0].machine.stateKey(key);
    visited.insert(key);

    // frames[0, live) is the DFS stack. Each successor is built in
    // place in the frame above its parent by copy-assignment; when its
    // key has been visited, the next sibling overwrites it.
    std::size_t live = enter(frames[0]) ? 1 : 0;
    while (live > 0) {
        if (frames[live - 1].next == frames[live - 1].transitions.size()) {
            --live;
            continue;
        }
        if (live == frames.size())
            frames.push_back({frames[live - 1].machine, {}, 0});
        Frame &parent = frames[live - 1];
        Frame &child = frames[live];
        child.machine = parent.machine;
        child.machine.apply(parent.transitions[parent.next++]);
        child.machine.stateKey(key);
        if (visited.size() >= max_states) {
            if (visited.contains(key))
                continue;
            result.truncated = true;
            break;
        }
        if (visited.insert(key) && enter(child))
            ++live;
    }

    result.statesVisited = visited.size();
    return result;
}

} // namespace rex::op
