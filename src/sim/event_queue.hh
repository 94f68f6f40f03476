/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue drives the whole machine. Components
 * schedule one-shot callbacks at absolute ticks. Ordering is fully
 * deterministic: events at the same tick fire in (priority, insertion
 * sequence) order, so simulations are exactly reproducible.
 *
 * Hot-path design (DESIGN.md §8): events live in pooled, fixed-size
 * nodes with inline small-buffer storage for the callable — the
 * capture sizes used by the core, speculation engine, L1 controllers,
 * interconnect and directory all fit inline, so steady-state
 * scheduling performs no heap allocation. Dispatch is a timing wheel
 * over the near future (latencies in the simulated machine are a few
 * tens of cycles) backed by a binary heap for far-out events
 * (yield timeouts, preemptions, watchdogs). The window is based at the
 * earliest pending tick, so run() fires straight from the base slot
 * while it holds events; only a move to a later tick scans the slot
 * occupancy bitmap and migrates the far events it brings in range.
 */

#ifndef TLR_SIM_EVENT_QUEUE_HH
#define TLR_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tlr
{

/** Standard event priorities; lower value fires first within a tick. */
enum class EventPrio : int
{
    BusArbitration = 0,   ///< bus grants before snoops land
    Snoop = 1,            ///< ordered address transactions
    DataResponse = 2,     ///< data network deliveries
    CoreTick = 3,         ///< processor pipeline steps
    Preempt = 4,          ///< MachineParams' periodic OS preemptions
    Default = 5,
};

/**
 * The global discrete-event queue.
 *
 * Events are one-shot callables. Cancellation is not supported;
 * components that might become stale check their own state when the
 * callback fires (the usual "squash by generation" idiom).
 */
class EventQueue
{
  public:
    /** Compatibility alias; any callable (lambda included) schedules
     *  directly without wrapping into a std::function. */
    using Callback = std::function<void()>;

    /** Inline capture capacity per event node. Sized for the largest
     *  common capture (Interconnect::sendData's [this, to, DataMsg] at
     *  ~104 bytes with a 64-byte line payload). Larger captures spill
     *  to the heap and are counted in kernelStats(). */
    static constexpr std::size_t inlineCaptureBytes = 112;

    /** Near-future horizon of the timing wheel, in ticks. */
    static constexpr std::size_t wheelSlots = 512;

    /** Host-side kernel counters (tlrbench per-layer counts; not
     *  simulated state). */
    struct KernelStats
    {
        std::uint64_t inlineEvents = 0;  ///< captures stored in-node
        std::uint64_t spilledEvents = 0; ///< captures heap-allocated
        std::uint64_t poolChunks = 0;    ///< node-chunk allocations
        std::uint64_t wheelEvents = 0;   ///< scheduled into the wheel
        std::uint64_t farEvents = 0;     ///< scheduled into the heap
    };

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule callable @p f at absolute tick @p when (>= now()). */
    template <typename F>
    void
    schedule(Tick when, F &&f, EventPrio prio = EventPrio::Default)
    {
        EventNode *n = makeNode(when, prio);
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(n->storage)) Fn(std::forward<F>(f));
            n->invoke = [](EventNode &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.storage)))();
            };
            if constexpr (std::is_trivially_destructible_v<Fn>) {
                n->destroy = nullptr;
            } else {
                n->destroy = [](EventNode &e) {
                    std::launder(reinterpret_cast<Fn *>(e.storage))->~Fn();
                };
            }
            ++kstats_.inlineEvents;
        } else {
            // Capture too large for the node: spill to the heap and
            // keep only the pointer inline.
            Fn *p = new Fn(std::forward<F>(f));
            ::new (static_cast<void *>(n->storage)) (Fn *)(p);
            n->invoke = [](EventNode &e) {
                (**std::launder(reinterpret_cast<Fn **>(e.storage)))();
            };
            n->destroy = [](EventNode &e) {
                delete *std::launder(reinterpret_cast<Fn **>(e.storage));
            };
            ++kstats_.spilledEvents;
        }
        insert(n);
    }

    /** Schedule @p f @p delta ticks in the future. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f, EventPrio prio = EventPrio::Default)
    {
        schedule(_now + delta, std::forward<F>(f), prio);
    }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    size_t pending() const { return size_; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run until the queue drains, a stop is requested, or @p maxTick
     * is reached.
     * @return true if the queue drained naturally (or stop was
     *         requested), false if maxTick cut the run short.
     */
    bool run(Tick maxTick = ~Tick{0});

    /** Execute exactly one event, if any. @return false when empty. */
    bool step();

    /** Request run() to return after the current event completes. */
    void requestStop() { stopRequested_ = true; }

    /** Reset time, drop all pending events, and return every node to
     *  the pool; executed()/stop state start clean (test support). */
    void reset();

    /** Host-performance counters since construction (reset() keeps
     *  them: they describe the process, not one simulation). */
    const KernelStats &kernelStats() const { return kstats_; }

  private:
    static constexpr int numPrios = 6;
    static_assert(static_cast<int>(EventPrio::Default) == numPrios - 1,
                  "EventPrio values must stay dense: the wheel keeps "
                  "one FIFO list per priority");
    static_assert((wheelSlots & (wheelSlots - 1)) == 0,
                  "wheelSlots must be a power of two");

    /** Pooled event node. `storage` inlines the callable (or, when
     *  spilled, a single pointer to it). Nodes never move once
     *  allocated, so captures need no move-after-construct. */
    struct EventNode
    {
        EventNode *next = nullptr; ///< circular wheel list or free list
        Tick when = 0;
        std::uint64_t seq = 0;
        void (*invoke)(EventNode &) = nullptr;
        void (*destroy)(EventNode &) = nullptr; ///< null = trivial
        std::uint8_t prio = 0;
        alignas(std::max_align_t) unsigned char storage[inlineCaptureBytes];
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineCaptureBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_move_constructible_v<Fn>;
    }

    /** One wheel slot: per-priority FIFO lists. While a tick is inside
     *  the wheel window, a slot holds events of exactly one tick, so a
     *  list is already in (prio, seq) execution order. Each list is
     *  circular through its tail (tail->next is the head), which keeps
     *  a bucket within one cache line. */
    struct alignas(64) Bucket
    {
        EventNode *tail[numPrios];
        unsigned occ; ///< bitmask of non-empty priority lists
    };

    /** Heap order for far-out events: earliest (when, prio, seq) at
     *  the front of farHeap_. */
    struct FarLater
    {
        bool
        operator()(const EventNode *a, const EventNode *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->prio != b->prio)
                return a->prio > b->prio;
            return a->seq > b->seq;
        }
    };

    /** Take a pooled node for an event at @p when. */
    EventNode *
    makeNode(Tick when, EventPrio prio)
    {
        if (when < _now) [[unlikely]]
            pastTick(when);
        if (!freeList_) [[unlikely]]
            growPool();
        EventNode *n = freeList_;
        freeList_ = n->next;
        n->when = when;
        n->seq = seq_++;
        n->prio = static_cast<std::uint8_t>(prio);
        return n;
    }

    void
    recycle(EventNode *n)
    {
        n->next = freeList_;
        freeList_ = n;
    }

    void
    insert(EventNode *n)
    {
        // The wheel window never starts after the earliest pending
        // event; scheduling below the base (possible only after
        // run(maxTick) returned early and left the window parked at a
        // future tick) slides the window back first.
        if (n->when < windowBase_) [[unlikely]]
            rebase(n->when);
        if (n->when - windowBase_ < wheelSlots) [[likely]]
            pushWheel(n);
        else
            pushFar(n);
        ++size_;
    }

    /** Append @p n to its slot's FIFO for its priority. A list is
     *  empty exactly when its occ bit is clear, so the tail pointer of
     *  an empty list is never read. */
    void
    pushWheel(EventNode *n)
    {
        const std::size_t slot = static_cast<std::size_t>(n->when) &
                                 (wheelSlots - 1);
        Bucket &b = wheel_[slot];
        const unsigned bit = 1u << n->prio;
        EventNode *&tail = b.tail[n->prio];
        if (b.occ & bit) {
            n->next = tail->next;
            tail->next = n;
        } else {
            if (!b.occ)
                slotOcc_[slot / 64] |= std::uint64_t{1} << (slot % 64);
            b.occ |= bit;
            n->next = n;
        }
        tail = n;
        ++wheelCount_;
        ++kstats_.wheelEvents;
    }

    [[noreturn]] void pastTick(Tick when) const;
    void growPool();
    void pushFar(EventNode *n);
    void migrateFar();
    void rebase(Tick newBase);
    template <typename Fn> static void drainBucket(Bucket &b, Fn &&fn);
    std::size_t advance();
    std::size_t earliestSlot();
    EventNode *unlinkHead(std::size_t slot);
    void fire(EventNode *n);

    std::vector<Bucket> wheel_;           ///< wheelSlots buckets
    std::uint64_t slotOcc_[wheelSlots / 64] = {}; ///< non-empty slots
    /** Events at or beyond windowBase_ + wheelSlots. Every advance of
     *  the window migrates the ones it now covers, so a wheel list
     *  never holds an event scheduled after a same-(tick, prio) event
     *  still waiting in the heap. */
    std::vector<EventNode *> farHeap_;
    Tick windowBase_ = 0; ///< wheel covers [windowBase_, +wheelSlots)
    std::size_t wheelCount_ = 0;
    std::size_t size_ = 0;

    std::vector<std::unique_ptr<EventNode[]>> chunks_; ///< node pool
    EventNode *freeList_ = nullptr;
    static constexpr std::size_t chunkNodes = 64;

    Tick _now = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopRequested_ = false;
    KernelStats kstats_;
};

} // namespace tlr

#endif // TLR_SIM_EVENT_QUEUE_HH
