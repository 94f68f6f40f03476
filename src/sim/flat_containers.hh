/**
 * @file
 * Flat containers for per-cpu, per-line and per-access state.
 *
 * The trace listeners look up per-cpu, per-line and per-word state on
 * every record, and the speculation engine, the lock classifier, the
 * directory and the L1's pending-request queues do the same on every
 * memory access or miss. Node-based maps and sets pay an allocation
 * per new key and a pointer chase per lookup; the containers here
 * keep that state in flat arrays that stop growing once a run's cpus
 * and footprint have been seen, so the steady-state path allocates
 * nothing.
 */

#ifndef TLR_SIM_FLAT_CONTAINERS_HH
#define TLR_SIM_FLAT_CONTAINERS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tlr
{

/** The element of a cpu-indexed vector for @p cpu (>= 0), growing the
 *  vector on a cpu id not seen before. */
template <typename T>
T &
cpuSlot(std::vector<T> &v, int cpu)
{
    assert(cpu >= 0);
    const auto i = static_cast<size_t>(cpu);
    if (i >= v.size())
        v.resize(i + 1);
    return v[i];
}

/** First element of @p v (sorted by its .line member) whose line is not
 *  below @p line: the per-cpu lists of open deferrals and misses are
 *  kept in line order. */
template <typename T>
auto
lowerBound(std::vector<T> &v, std::uint64_t line)
{
    return std::lower_bound(
        v.begin(), v.end(), line,
        [](const T &e, std::uint64_t l) { return e.line < l; });
}

/**
 * Open-addressing map from a 64-bit address key to a value. Keys and
 * values sit in one array probed linearly; the table never erases (a
 * listener resets a value instead) and doubles when half full. Keys
 * are addresses or addresses packed with a cpu id; the all-ones key is
 * reserved as the empty-slot marker. Iteration order is unspecified,
 * so a caller that renders output in address order sorts.
 */
template <typename V>
class AddrMap
{
  public:
    /** The value for @p key, default-constructed on first use. */
    V &
    operator[](std::uint64_t key)
    {
        assert(key != emptyKey);
        if (2 * (size_ + 1) > slots_.size())
            grow();
        size_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == emptyKey) {
                slots_[i].key = key;
                ++size_;
                break;
            }
            i = (i + 1) & mask_;
        }
        return slots_[i].value;
    }

    /** The value for @p key, or null when it was never inserted. */
    const V *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == emptyKey)
                return nullptr;
        }
    }

    V *
    find(std::uint64_t key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    size_t size() const { return size_; }

    /** Visit every (key, value) pair, in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.key != emptyKey)
                fn(s.key, s.value);
        }
    }

  private:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t{0};

    struct Slot
    {
        std::uint64_t key = emptyKey;
        V value{};
    };

    size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: line addresses share their low bits, so
        // take the well-mixed high bits of the product.
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                   shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const size_t cap = old.empty() ? 64 : 2 * old.size();
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64;
        for (size_t c = cap; c > 1; c >>= 1)
            --shift_;
        size_ = 0;
        for (Slot &s : old) {
            if (s.key != emptyKey)
                (*this)[s.key] = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
};

/**
 * Set of 64-bit keys in an open-addressing table: for the sets looked
 * up on every access (a cpu's synchronization lines, the lock lines of
 * a workload). Insert and lookup are amortised O(1): keys are probed
 * linearly from a Fibonacci hash, and the table doubles when half
 * full. The all-ones key is reserved as the empty-slot marker, and
 * clear() costs nothing on an empty set.
 */
template <typename T>
class FlatSet
{
  public:
    void
    insert(const T &key)
    {
        assert(key != emptyKey);
        if (2 * (size_ + 1) > slots_.size())
            grow();
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i] == key)
                return;
            if (slots_[i] == emptyKey) {
                slots_[i] = key;
                ++size_;
                return;
            }
        }
    }

    bool
    contains(const T &key) const
    {
        if (size_ == 0)
            return false;
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i] == key)
                return true;
            if (slots_[i] == emptyKey)
                return false;
        }
    }

    void
    clear()
    {
        if (size_ == 0)
            return;
        std::fill(slots_.begin(), slots_.end(), emptyKey);
        size_ = 0;
    }

    size_t size() const { return size_; }

  private:
    static constexpr T emptyKey = ~T{0};

    size_t
    home(const T &key) const
    {
        return static_cast<size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    void
    grow()
    {
        std::vector<T> old = std::move(slots_);
        const size_t cap = old.empty() ? 16 : 2 * old.size();
        slots_.assign(cap, emptyKey);
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        size_ = 0;
        for (const T &k : old) {
            if (k != emptyKey)
                insert(k);
        }
    }

    std::vector<T> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
};

/**
 * FIFO queue in a power-of-two ring that doubles when full and never
 * shrinks, so a queue that has reached its peak depth allocates no
 * more. Iteration runs from the front (oldest) to the back.
 */
template <typename T>
class Ring
{
  public:
    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    const T &front() const { return buf_[head_]; }

    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T &
    operator[](size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    class const_iterator
    {
      public:
        const_iterator(const Ring *r, size_t i) : r_(r), i_(i) {}
        const T &operator*() const { return (*r_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const { return i_ != o.i_; }

      private:
        const Ring *r_;
        size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/**
 * Vector whose first N elements live inline. Past N, the elements move
 * to a heap vector that keeps its capacity through clear(), so a
 * reused InlineVec that once spilled allocates no more.
 */
template <typename T, size_t N>
class InlineVec
{
  public:
    void
    push_back(const T &v)
    {
        if (size_ < N) {
            inline_[size_] = v;
        } else {
            if (size_ == N)
                heap_.assign(inline_.begin(), inline_.end());
            heap_.push_back(v);
        }
        ++size_;
    }

    void
    clear()
    {
        size_ = 0;
        heap_.clear();
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T *begin() const { return size_ > N ? heap_.data() : inline_.data(); }
    const T *end() const { return begin() + size_; }

  private:
    std::array<T, N> inline_{};
    std::vector<T> heap_;
    size_t size_ = 0;
};

/**
 * Set of cpu ids as a bitset. Ids 0-63 live in one inline word; higher
 * ids (any non-negative int) spill into a vector that grows on demand.
 * forEach visits members in ascending id order.
 */
class CpuSet
{
  public:
    void
    insert(int cpu)
    {
        const size_t i = index(cpu);
        if (i == 0) {
            low_ |= bit(cpu);
            return;
        }
        if (i > high_.size())
            high_.resize(i);
        high_[i - 1] |= bit(cpu);
    }

    void
    erase(int cpu)
    {
        const size_t i = index(cpu);
        if (i == 0)
            low_ &= ~bit(cpu);
        else if (i <= high_.size())
            high_[i - 1] &= ~bit(cpu);
    }

    bool contains(int cpu) const { return wordAt(index(cpu)) & bit(cpu); }

    /** Make @p cpu the only member. */
    void
    assign(int cpu)
    {
        low_ = 0;
        std::fill(high_.begin(), high_.end(), 0);
        insert(cpu);
    }

    size_t
    size() const
    {
        size_t n = static_cast<size_t>(std::popcount(low_));
        for (std::uint64_t w : high_)
            n += static_cast<size_t>(std::popcount(w));
        return n;
    }

    /** Call @p fn(cpu) for every member, in ascending id order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i <= high_.size(); ++i) {
            for (std::uint64_t w = wordAt(i); w; w &= w - 1)
                fn(static_cast<int>(i * 64) + std::countr_zero(w));
        }
    }

  private:
    static size_t
    index(int cpu)
    {
        assert(cpu >= 0);
        return static_cast<size_t>(cpu) / 64;
    }

    static std::uint64_t
    bit(int cpu)
    {
        return std::uint64_t{1} << (static_cast<unsigned>(cpu) % 64);
    }

    /** Ids 64i..64i+63 as a word; 0 beyond the stored words. */
    std::uint64_t
    wordAt(size_t i) const
    {
        if (i == 0)
            return low_;
        return i <= high_.size() ? high_[i - 1] : 0;
    }

    std::uint64_t low_ = 0;
    std::vector<std::uint64_t> high_; ///< ids 64 and up
};

} // namespace tlr

#endif // TLR_SIM_FLAT_CONTAINERS_HH
