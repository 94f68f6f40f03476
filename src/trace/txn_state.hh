/**
 * @file
 * The one reducer of open transactions and open deferrals.
 *
 * The paper rests on two runtime facts: the critical-section instance
 * (elide, restart, then commit or fall back — Sections 2-3) and the
 * request deferred behind a transactional owner until it commits
 * (Section 3.1). TxnState reduces the trace record stream to those
 * two: the instance open on each cpu, and each waiter's open
 * deferrals in line order with a waiter count per line. The listeners
 * that report on them are views: each folds in what step() says a
 * record changed and keeps only its own aggregates.
 *
 * One rule per edge case (tests/test_trace.cc pins each): a second
 * deferral of an open (waiter, line) pair keeps the first; an instance
 * that closes while its cpu waits leaves the deferral open; a new
 * elision over an unclosed instance closes it as "unfinished"; a
 * service with no open deferral changes nothing.
 */

#ifndef TLR_TRACE_TXN_STATE_HH
#define TLR_TRACE_TXN_STATE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coherence/spec_hooks.hh"
#include "sim/flat_containers.hh"
#include "trace/sink.hh"

namespace tlr
{

/** @p k as a one-bit mask. */
constexpr std::uint64_t
kindBit(TraceEvent k)
{
    // MemWrite is the last kind: every kind fits a 64-bit mask.
    static_assert(static_cast<unsigned>(TraceEvent::MemWrite) < 64);
    return 1ull << static_cast<unsigned>(k);
}

class TxnState
{
  public:
    enum class Outcome : std::uint8_t
    {
        Commit,
        Fallback,   ///< a restart ended it: the real lock is taken
        QuantumEnd, ///< the scheduling-quantum bound ended it
        Unfinished, ///< a new elision or the end of the stream
    };

    /** One critical-section instance, first elision to outcome. */
    struct Txn
    {
        std::uint64_t serial = 0; ///< global, in elision order
        std::int16_t cpu = -1;
        Addr lock = 0;
        Tick begin = 0;
        Tick end = 0; ///< once closed
        Timestamp ts;
        unsigned restarts = 0; ///< including one that ends it
        Tick lastRestart = 0;
        std::int16_t lastWinner = -1; ///< of the latest restart
        unsigned nests = 0;
        bool inCommit = false; ///< TxnCommitStart since the last restart
        Tick commitStart = 0;
        Outcome outcome = Outcome::Unfinished; ///< once closed
        AbortReason fallback = AbortReason::ConflictLost;

        /** commit | fallback:<reason> | quantum-end | unfinished */
        std::string outcomeName() const;
    };

    /** One request parked behind a transactional owner. */
    struct Deferral
    {
        Addr line = 0;
        std::int16_t waiter = -1;
        std::int16_t owner = -1;
        Tick start = 0;
        bool relaxed = false; ///< via the Section 3.2 relaxation
        Timestamp waiterTs;
        std::uint64_t serial = 0; ///< global, in defer order
    };

    /** What one record, or one close by finish(), changed. Pointers
     *  stay valid until the next change. */
    struct Change
    {
        const TraceRecord *record = nullptr; ///< null from finish()
        Tick tick = 0;
        const Txn *opened = nullptr;
        /** Took a restart; the closed instance after a fallback. */
        const Txn *restarted = nullptr;
        const Txn *closed = nullptr;
        const Deferral *deferOpened = nullptr;
        /** Serviced if record is set, else closed by finish(). */
        const Deferral *deferClosed = nullptr;
    };

    /** Inline: every listener steps every record, and most records
     *  change nothing here. */
    const Change &
    step(const TraceRecord &r)
    {
        change_ = Change{};
        change_.record = &r;
        change_.tick = r.tick;
        if ((reducedKinds >> static_cast<unsigned>(r.kind)) & 1)
            reduce(r);
        return change_;
    }

    /** Close what is still open at @p now, in ascending cpu order:
     *  each cpu's instance as "unfinished", then its deferrals. */
    void finish(Tick now,
                const std::function<void(const Change &)> &onClose);

    /** The instance open on @p cpu, or null. */
    const Txn *live(int cpu) const;
    /** @p waiter's open deferrals, ascending line. */
    const std::vector<Deferral> &waiting(int waiter) const;
    /** Open deferrals on @p line. */
    unsigned waiters(Addr line) const;

    /** Every open deferral, by waiter and then line. */
    template <typename Fn>
    void
    forEachDeferral(Fn &&fn) const
    {
        for (const Cpu &c : cpus_)
            for (const Deferral &d : c.waiting)
                fn(d);
    }

  private:
    /** The kinds reduce() folds in, as a mask: on the per-record path
     *  a bit test is measurably cheaper than a switch. */
    static constexpr std::uint64_t reducedKinds =
        kindBit(TraceEvent::TxnElide) | kindBit(TraceEvent::TxnNest) |
        kindBit(TraceEvent::TxnRestart) |
        kindBit(TraceEvent::TxnCommitStart) |
        kindBit(TraceEvent::TxnCommit) |
        kindBit(TraceEvent::TxnQuantumEnd) |
        kindBit(TraceEvent::CohDefer) |
        kindBit(TraceEvent::CohRelaxedDefer) |
        kindBit(TraceEvent::CohService);

    struct Cpu
    {
        bool open = false;
        Txn txn;
        std::vector<Deferral> waiting; ///< ascending line
    };

    void reduce(const TraceRecord &r);
    Txn *liveTxn(int cpu);
    /** Close @p cpu's instance into closed_; false if none is open. */
    bool close(int cpu, Tick end, Outcome outcome);
    void closeDeferral(std::vector<Deferral> &mine,
                       std::vector<Deferral>::iterator it);

    std::vector<Cpu> cpus_;
    AddrMap<unsigned> lineWaiters_;
    std::uint64_t nextTxn_ = 0;
    std::uint64_t nextDeferral_ = 0;
    Change change_;
    Txn closed_;
    Deferral deferClosed_;
};

/**
 * A trace listener that reports on a TxnState. Attached alone it steps
 * a reducer of its own; built over a shared one it is driven through
 * apply() by whoever steps it (Explainer's graph and path views).
 */
class TxnStateView : public TraceListener
{
  public:
    TxnStateView() = default;
    /** A view over @p shared, driven through apply(). */
    explicit TxnStateView(const TxnState &shared) : state_(&shared) {}
    TxnStateView(const TxnStateView &) = delete;
    TxnStateView &operator=(const TxnStateView &) = delete;

    /** Steps the view's own reducer; a view over a shared reducer is
     *  driven through apply() alone. */
    void
    onRecord(const TraceRecord &r) override
    {
        assert(state_ == &own_);
        apply(own_.step(r));
    }
    void finish(Tick now) override;
    virtual void apply(const TxnState::Change &c) = 0;

  protected:
    const TxnState &state() const { return *state_; }

  private:
    TxnState own_;
    const TxnState *state_ = &own_;
};

} // namespace tlr

#endif // TLR_TRACE_TXN_STATE_HH
