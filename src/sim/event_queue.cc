#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace tlr
{

EventQueue::EventQueue() : wheel_(wheelSlots)
{
    for (Bucket &b : wheel_) {
        std::fill(std::begin(b.head), std::end(b.head), nullptr);
        std::fill(std::begin(b.tail), std::end(b.tail), nullptr);
        b.occ = 0;
    }
    farHeap_.reserve(64);
}

EventQueue::~EventQueue()
{
    reset(); // destroys any pending captures
}

EventQueue::EventNode *
EventQueue::makeNode(Tick when, EventPrio prio)
{
    if (when < _now)
        panic("scheduling event in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    if (!freeList_) {
        chunks_.push_back(std::make_unique<EventNode[]>(chunkNodes));
        ++kstats_.poolChunks;
        EventNode *chunk = chunks_.back().get();
        for (std::size_t i = 0; i < chunkNodes; ++i) {
            chunk[i].next = freeList_;
            freeList_ = &chunk[i];
        }
    }
    EventNode *n = freeList_;
    freeList_ = n->next;
    n->next = nullptr;
    n->when = when;
    n->seq = seq_++;
    n->prio = static_cast<std::uint8_t>(prio);
    return n;
}

void
EventQueue::recycle(EventNode *n)
{
    n->invoke = nullptr;
    n->destroy = nullptr;
    n->next = freeList_;
    freeList_ = n;
}

void
EventQueue::insert(EventNode *n)
{
    // The wheel window never starts after the earliest pending event;
    // scheduling below the base (possible only after run(maxTick)
    // returned early and left the window parked at a future tick)
    // slides the window back first.
    if (n->when < windowBase_)
        rebase(n->when);
    if (n->when - windowBase_ < wheelSlots)
        pushWheel(n);
    else
        pushFar(n);
    ++size_;
}

void
EventQueue::pushWheel(EventNode *n)
{
    const std::size_t slot = static_cast<std::size_t>(n->when) &
                             (wheelSlots - 1);
    Bucket &b = wheel_[slot];
    const int p = n->prio;
    n->next = nullptr;
    if (b.tail[p])
        b.tail[p]->next = n;
    else
        b.head[p] = n;
    b.tail[p] = n;
    b.occ |= 1u << p;
    slotOcc_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++wheelCount_;
    ++kstats_.wheelEvents;
}

void
EventQueue::pushFar(EventNode *n)
{
    farHeap_.push_back(n);
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
           farHeap_.front()->when - windowBase_ < wheelSlots) {
        std::pop_heap(farHeap_.begin(), farHeap_.end(), FarLater{});
        EventNode *n = farHeap_.back();
        farHeap_.pop_back();
        pushWheel(n);
    }
}

/** Re-anchor the wheel window at @p newBase, redistributing every
 *  queued event. Only taken on the rare schedule-below-base path. */
void
EventQueue::rebase(Tick newBase)
{
    std::vector<EventNode *> pending;
    pending.reserve(wheelCount_);
    for (std::size_t slot = 0; slot < wheelSlots; ++slot) {
        Bucket &b = wheel_[slot];
        for (int p = 0; p < numPrios; ++p) {
            for (EventNode *n = b.head[p]; n;) {
                EventNode *next = n->next;
                n->next = nullptr;
                pending.push_back(n);
                n = next;
            }
            b.head[p] = b.tail[p] = nullptr;
        }
        b.occ = 0;
    }
    std::fill(std::begin(slotOcc_), std::end(slotOcc_), 0);
    wheelCount_ = 0;
    windowBase_ = newBase;
    // Reinsert in (when, prio, seq) order so FIFO lists stay sorted.
    std::sort(pending.begin(), pending.end(),
              [](const EventNode *a, const EventNode *b) {
                  return FarLater{}(b, a);
              });
    for (EventNode *n : pending) {
        if (n->when - windowBase_ < wheelSlots)
            pushWheel(n);
        else
            pushFar(n);
    }
}

/**
 * Locate (but do not unlink) the earliest pending event in
 * (when, prio, seq) order; advances the wheel window as a side
 * effect. Returns nullptr when the queue is empty.
 */
EventQueue::EventNode *
EventQueue::findEarliest()
{
    if (size_ == 0)
        return nullptr;
    for (;;) {
        migrateFar();
        if (wheelCount_ == 0) {
            // Everything pending is beyond the window: jump to it.
            windowBase_ = farHeap_.front()->when;
            continue;
        }
        // Scan the occupancy bitmap from the window base forward; the
        // first set slot is the earliest tick, because all wheel
        // events lie within one window span.
        const std::size_t start = static_cast<std::size_t>(windowBase_) &
                                  (wheelSlots - 1);
        std::size_t slot = wheelSlots; // sentinel
        for (std::size_t scanned = 0; scanned < wheelSlots;) {
            const std::size_t pos = (start + scanned) & (wheelSlots - 1);
            std::uint64_t word = slotOcc_[pos / 64] >> (pos % 64);
            const std::size_t wordRemain = 64 - pos % 64;
            if (word) {
                const std::size_t off =
                    static_cast<std::size_t>(std::countr_zero(word));
                if (off < wordRemain &&
                    scanned + off < wheelSlots) {
                    slot = (pos + off) & (wheelSlots - 1);
                    break;
                }
            }
            scanned += wordRemain;
        }
        if (slot == wheelSlots)
            panic("event wheel count=%zu but occupancy bitmap empty",
                  wheelCount_);
        // Advance the window to the found tick (keeps future scans
        // short; every pending event is at or after it).
        const std::size_t delta =
            (slot + wheelSlots -
             (static_cast<std::size_t>(windowBase_) & (wheelSlots - 1))) &
            (wheelSlots - 1);
        windowBase_ += delta;
        Bucket &b = wheel_[slot];
        const int p = std::countr_zero(b.occ);
        foundSlot_ = slot;
        foundPrio_ = p;
        return b.head[p];
    }
}

/** Unlink the node findEarliest() just returned. */
void
EventQueue::popFound()
{
    Bucket &b = wheel_[foundSlot_];
    const int p = foundPrio_;
    EventNode *n = b.head[p];
    b.head[p] = n->next;
    if (!b.head[p]) {
        b.tail[p] = nullptr;
        b.occ &= ~(1u << p);
        if (!b.occ)
            slotOcc_[foundSlot_ / 64] &=
                ~(std::uint64_t{1} << (foundSlot_ % 64));
    }
    n->next = nullptr;
    --wheelCount_;
    --size_;
}

void
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
    EventNode *n = findEarliest();
    if (!n)
        return false;
    popFound();
    fire(n);
    return true;
}

bool
EventQueue::run(Tick maxTick)
{
    stopRequested_ = false;
    for (;;) {
        EventNode *n = findEarliest();
        if (!n)
            return true;
        if (n->when > maxTick)
            return false;
        popFound();
        fire(n);
        if (stopRequested_)
            return true;
    }
}

void
EventQueue::reset()
{
    for (std::size_t slot = 0; slot < wheelSlots; ++slot) {
        Bucket &b = wheel_[slot];
        for (int p = 0; p < numPrios; ++p) {
            for (EventNode *n = b.head[p]; n;) {
                EventNode *next = n->next;
                if (n->destroy)
                    n->destroy(*n);
                recycle(n);
                n = next;
            }
            b.head[p] = b.tail[p] = nullptr;
        }
        b.occ = 0;
    }
    std::fill(std::begin(slotOcc_), std::end(slotOcc_), 0);
    for (EventNode *n : farHeap_) {
        if (n->destroy)
            n->destroy(*n);
        recycle(n);
    }
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
