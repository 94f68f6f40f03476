/**
 * @file
 * Causal conflict explainer: the facade over the wait-for graph and
 * the critical-path accountant.
 *
 * One TraceListener that steps one TxnState and feeds what each record
 * changed to both analyses, views over that reducer, then renders:
 *
 *   - report(mode)   human-readable text (tlrsim --explain[=mode]):
 *                    top-K most-delayed transactions with their causal
 *                    chains, per-lock contention, or per-cpu time
 *                    decomposition
 *   - json()         everything machine-readable
 *
 * A causal chain follows each transaction's longest deferral to the
 * owner transaction live at that tick, then that owner's own longest
 * deferral, and so on — "T17@cpu3 waited on T9@cpu1, which itself
 * waited on T2@cpu0". Chain depth ≥ 2 is the signature of transitive
 * blocking (the structure behind convoys and the paper's Figure 6
 * deadlock scenario).
 *
 * Zero-overhead-off: like the metrics collector, the explainer only
 * exists when MachineParams::explain is set; nothing is armed
 * otherwise and simulated cycles are untouched either way.
 */

#ifndef TLR_EXPLAIN_EXPLAIN_HH
#define TLR_EXPLAIN_EXPLAIN_HH

#include <string>
#include <vector>

#include "explain/graph.hh"
#include "explain/path.hh"

namespace tlr
{

enum class ExplainMode
{
    Txn,  ///< top-K delayed transactions with causal chains (default)
    Lock, ///< per-line contention ranking
    Cpu,  ///< per-cpu time decomposition
};

/** One hop of a causal chain: @c waiter waited on @c owner. */
struct ChainLink
{
    std::string waiter; ///< "T17@cpu3"
    std::string owner;  ///< "T9@cpu1" (or "cpu1" outside any txn)
    std::int16_t ownerCpu = -1;
    Addr line = 0;
    Tick waitTicks = 0;
};

class Explainer : public TraceListener
{
  public:
    explicit Explainer(unsigned topK = 10)
        : graph_(state_), path_(state_), topK_(topK)
    {
    }

    void onRecord(const TraceRecord &r) override { apply(state_.step(r)); }

    void
    finish(Tick now) override
    {
        state_.finish(now,
                      [this](const TxnState::Change &c) { apply(c); });
        finalTick_ = now;
    }

    std::string report(ExplainMode mode = ExplainMode::Txn) const;
    std::string json() const;

    /** Causal chain for @p t (first link = t's own wait). */
    std::vector<ChainLink> chainFor(const TxnInstance &t) const;
    /** Deepest chain over all closed instances. */
    unsigned maxChainDepth() const;

    const ConflictGraphBuilder &graph() const { return graph_; }
    const CriticalPathAccountant &paths() const { return path_; }

  private:
    static constexpr unsigned maxChainHops = 8;

    void
    apply(const TxnState::Change &c)
    {
        graph_.apply(c);
        path_.apply(c);
    }

    /** Follow @p t's longest deferral to the owner instance live at
     *  that tick, then the owner's, calling hop(waiter, owner-or-null)
     *  per link; stops at a repeated instance, a transaction that
     *  never waited, or maxChainHops links. @return the link count. */
    template <typename Fn>
    unsigned walkChain(const TxnInstance &t, Fn &&hop) const;
    /** The @p k most-delayed instances (delay descending, then
     *  serial), in that order. */
    std::vector<const TxnInstance *> ranked(size_t k) const;

    TxnState state_; ///< declared first: the views read it
    ConflictGraphBuilder graph_;
    CriticalPathAccountant path_;
    unsigned topK_;
    Tick finalTick_ = 0;
};

} // namespace tlr

#endif // TLR_EXPLAIN_EXPLAIN_HH
