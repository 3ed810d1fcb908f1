/**
 * @file
 * Small-buffer word storage for the dense bitset types.
 *
 * EventSet and Relation hold their 64-bit word arrays in a WordBuf
 * instead of a std::vector: litmus-sized candidates (a few dozen
 * events) fit entirely in the inline buffer, so the relation algebra's
 * many short-lived temporaries (skeleton clauses, closures, unions)
 * never touch the heap. Word counts beyond the inline capacity fall
 * back to heap storage transparently, so nothing limits universe size.
 */

#ifndef REX_RELATION_WORD_BUF_HH
#define REX_RELATION_WORD_BUF_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace rex {

/** Fixed-capacity-inline, heap-overflow array of uint64 words. */
template <std::size_t InlineWords>
class WordBuf
{
  public:
    WordBuf() = default;

    WordBuf(std::size_t count, std::uint64_t value) { assign(count, value); }

    WordBuf(const WordBuf &other) { copyFrom(other); }

    WordBuf(WordBuf &&other) noexcept { stealFrom(other); }

    WordBuf &
    operator=(const WordBuf &other)
    {
        if (this != &other)
            copyFrom(other);
        return *this;
    }

    WordBuf &
    operator=(WordBuf &&other) noexcept
    {
        if (this != &other) {
            releaseHeap();
            stealFrom(other);
        }
        return *this;
    }

    ~WordBuf() { releaseHeap(); }

    /** Resize to @p count words, all set to @p value; previous contents
     *  are discarded. Never shrinks capacity. */
    void
    assign(std::size_t count, std::uint64_t value)
    {
        ensureDiscard(count);
        _count = count;
        for (std::size_t i = 0; i < count; ++i)
            _data[i] = value;
    }

    std::size_t size() const { return _count; }
    bool empty() const { return _count == 0; }

    std::uint64_t *data() { return _data; }
    const std::uint64_t *data() const { return _data; }

    std::uint64_t &operator[](std::size_t i) { return _data[i]; }
    std::uint64_t operator[](std::size_t i) const { return _data[i]; }

    std::uint64_t &back() { return _data[_count - 1]; }
    std::uint64_t back() const { return _data[_count - 1]; }

    std::uint64_t *begin() { return _data; }
    std::uint64_t *end() { return _data + _count; }
    const std::uint64_t *begin() const { return _data; }
    const std::uint64_t *end() const { return _data + _count; }

    bool
    operator==(const WordBuf &other) const
    {
        if (_count != other._count)
            return false;
        return _count == 0 ||
               std::memcmp(_data, other._data,
                           _count * sizeof(std::uint64_t)) == 0;
    }

  private:
    /** Make capacity >= @p count; contents become unspecified. */
    void
    ensureDiscard(std::size_t count)
    {
        if (count <= _cap)
            return;
        releaseHeap();
        _data = new std::uint64_t[count];
        _cap = count;
    }

    void
    releaseHeap()
    {
        if (_data != _inline) {
            delete[] _data;
            _data = _inline;
            _cap = InlineWords;
        }
    }

    void
    copyFrom(const WordBuf &other)
    {
        ensureDiscard(other._count);
        _count = other._count;
        if (_count > 0)
            std::memcpy(_data, other._data,
                        _count * sizeof(std::uint64_t));
    }

    /** Take @p other's storage; @p other is left empty (inline). */
    void
    stealFrom(WordBuf &other)
    {
        if (other._data != other._inline) {
            _data = other._data;
            _cap = other._cap;
            _count = other._count;
            other._data = other._inline;
            other._cap = InlineWords;
            other._count = 0;
        } else {
            _data = _inline;
            _cap = InlineWords;
            _count = other._count;
            if (_count > 0)
                std::memcpy(_data, other._data,
                            _count * sizeof(std::uint64_t));
            other._count = 0;
        }
    }

    std::size_t _count = 0;
    std::size_t _cap = InlineWords;
    std::uint64_t *_data = _inline;
    std::uint64_t _inline[InlineWords];
};

} // namespace rex

#endif // REX_RELATION_WORD_BUF_HH
