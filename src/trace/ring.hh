/**
 * @file
 * Fixed-capacity ring buffer of binary trace records.
 *
 * The hot-path store is a 64-byte struct copy plus an index increment
 * that wraps by compare, not division; when full, the oldest record is
 * overwritten. The buffer is the post-mortem flight recorder: on an
 * invariant violation (or any panic) the last N records explain how
 * the machine got there.
 */

#ifndef TLR_TRACE_RING_HH
#define TLR_TRACE_RING_HH

#include <cstddef>
#include <vector>

#include "trace/events.hh"

namespace tlr
{

class TraceRing
{
  public:
    /** @param capacity number of records retained; 0 disables storage. */
    explicit TraceRing(size_t capacity) : buf_(capacity) {}

    void
    push(const TraceRecord &r)
    {
        if (buf_.empty())
            return;
        buf_[head_] = r;
        if (++head_ == buf_.size())
            head_ = 0;
        if (size_ < buf_.size())
            ++size_;
    }

    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }

    /** Visit retained records oldest-first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        size_t start = (head_ + buf_.size() - size_) % buf_.size();
        for (size_t i = 0; i < size_; ++i)
            fn(buf_[(start + i) % buf_.size()]);
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<TraceRecord> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace tlr

#endif // TLR_TRACE_RING_HH
