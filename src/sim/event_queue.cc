#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace tlr
{

EventQueue::EventQueue() : wheel_(wheelSlots, Bucket{})
{
    farHeap_.reserve(64);
}

EventQueue::~EventQueue()
{
    reset(); // destroys any pending captures
}

void
EventQueue::pastTick(Tick when) const
{
    panic("scheduling event in the past: when=%llu now=%llu",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(_now));
}

void
EventQueue::growPool()
{
    chunks_.push_back(std::make_unique<EventNode[]>(chunkNodes));
    ++kstats_.poolChunks;
    EventNode *chunk = chunks_.back().get();
    for (std::size_t i = 0; i < chunkNodes; ++i)
        recycle(&chunk[i]);
}

void
EventQueue::pushFar(EventNode *n)
{
    farHeap_.push_back(farEntry(n));
    std::push_heap(farHeap_.begin(), farHeap_.end(), FarLater{});
    ++kstats_.farEvents;
}

/** Move far-heap events that fall inside the current window into the
 *  wheel. Heap pop order is (when, prio, seq), so same-(tick, prio)
 *  events append in seq order. */
void
EventQueue::migrateFar()
{
    while (!farHeap_.empty() &&
           farHeap_.front().when - windowBase_ < wheelSlots) {
        std::pop_heap(farHeap_.begin(), farHeap_.end(), FarLater{});
        EventNode *n = farHeap_.back().node;
        farHeap_.pop_back();
        pushWheel(n);
    }
}

/** Empty bucket @p b, passing each event to @p fn in (prio, seq)
 *  order; @p fn may reuse the node's link. */
template <typename Fn>
void
EventQueue::drainBucket(Bucket &b, Fn &&fn)
{
    for (unsigned occ = b.occ; occ; occ &= occ - 1) {
        EventNode *const tail = b.tail[std::countr_zero(occ)];
        for (EventNode *n = tail->next;;) {
            EventNode *const next = n->next;
            fn(n);
            if (n == tail)
                break;
            n = next;
        }
    }
    b.occ = 0;
}

/** Re-anchor the wheel window at @p newBase, redistributing every
 *  queued event. Only taken on the rare schedule-below-base path. */
void
EventQueue::rebase(Tick newBase)
{
    std::vector<FarEntry> pending;
    pending.reserve(wheelCount_);
    for (Bucket &b : wheel_)
        drainBucket(b, [&](EventNode *n) { pending.push_back(farEntry(n)); });
    std::fill(std::begin(slotOcc_), std::end(slotOcc_), 0);
    wheelCount_ = 0;
    windowBase_ = newBase;
    // Reinsert in (when, prio, seq) order so FIFO lists stay sorted.
    std::sort(pending.begin(), pending.end(),
              [](const FarEntry &a, const FarEntry &b) {
                  return FarLater{}(b, a);
              });
    for (const FarEntry &e : pending) {
        EventNode *n = e.node;
        if (n->when - windowBase_ < wheelSlots)
            pushWheel(n);
        else
            pushFar(n);
    }
}

/**
 * Move the window to the earliest pending event when the base slot is
 * empty, and return that event's slot. Requires size_ > 0.
 */
std::size_t
EventQueue::advance()
{
    constexpr std::size_t mask = wheelSlots - 1;
    if (wheelCount_ == 0) {
        // Everything pending is beyond the window: jump to it.
        windowBase_ = farHeap_.front().when;
        migrateFar();
        return static_cast<std::size_t>(windowBase_) & mask;
    }
    // Scan the occupancy bitmap forward from the base slot, wrapping
    // once; the first set slot is the earliest tick, because every
    // wheel event lies within one window span.
    constexpr std::size_t words = wheelSlots / 64;
    const std::size_t start = static_cast<std::size_t>(windowBase_) & mask;
    std::size_t w = start / 64;
    std::uint64_t word = slotOcc_[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t scanned = 0; !word; ++scanned) {
        if (scanned == words)
            panic("event wheel count=%zu but occupancy bitmap empty",
                  wheelCount_);
        w = (w + 1) % words;
        word = slotOcc_[w];
    }
    const std::size_t slot =
        w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    windowBase_ += (slot - start) & mask;
    if (!farHeap_.empty() &&
        farHeap_.front().when - windowBase_ < wheelSlots)
        migrateFar();
    return slot;
}

/** Slot of the earliest pending event; the window is then based at
 *  its tick. Requires size_ > 0. */
inline std::size_t
EventQueue::earliestSlot()
{
    const std::size_t slot = static_cast<std::size_t>(windowBase_) &
                             (wheelSlots - 1);
    return wheel_[slot].occ ? slot : advance();
}

/** Unlink and return the first event of @p slot's lowest non-empty
 *  priority list. */
inline EventQueue::EventNode *
EventQueue::unlinkHead(std::size_t slot)
{
    Bucket &b = wheel_[slot];
    const int p = std::countr_zero(b.occ);
    EventNode *const tail = b.tail[p];
    EventNode *const n = tail->next;
    if (n != tail) {
        tail->next = n->next;
    } else {
        b.occ &= ~(1u << p);
        if (!b.occ)
            slotOcc_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    --wheelCount_;
    --size_;
    return n;
}

inline void
EventQueue::fire(EventNode *n)
{
    _now = n->when;
    ++executed_;
    // Destroy the capture and recycle the node even if the callback
    // throws (panic() throws so tests can observe it).
    struct Guard
    {
        EventQueue *q;
        EventNode *n;
        ~Guard()
        {
            if (n->destroy)
                n->destroy(*n);
            q->recycle(n);
        }
    } guard{this, n};
    n->invoke(*n);
}

bool
EventQueue::step()
{
    if (size_ == 0)
        return false;
    fire(unlinkHead(earliestSlot()));
    return true;
}

bool
EventQueue::run(Tick maxTick)
{
    stopRequested_ = false;
    while (size_ != 0) {
        const std::size_t slot = earliestSlot();
        if (windowBase_ > maxTick)
            return false;
        fire(unlinkHead(slot));
        if (stopRequested_)
            return true;
    }
    return true;
}

void
EventQueue::reset()
{
    auto drop = [this](EventNode *n) {
        if (n->destroy)
            n->destroy(*n);
        recycle(n);
    };
    for (Bucket &b : wheel_)
        drainBucket(b, drop);
    std::fill(std::begin(slotOcc_), std::end(slotOcc_), 0);
    for (const FarEntry &e : farHeap_)
        drop(e.node);
    farHeap_.clear();
    wheelCount_ = 0;
    size_ = 0;
    windowBase_ = 0;
    _now = 0;
    seq_ = 0;
    executed_ = 0;
    stopRequested_ = false;
}

} // namespace tlr
