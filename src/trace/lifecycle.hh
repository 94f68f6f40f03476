/**
 * @file
 * Per-transaction lifecycle tracker and Chrome-trace exporter.
 *
 * A view over TxnState: every critical-section instance the reducer
 * closes (elide → speculate → conflict → defer/restart → commit or
 * fallback) becomes a span. The result exports as
 * Chrome trace-event JSON (the format Perfetto and chrome://tracing
 * open natively): one timeline row per cpu, a duration span per
 * transaction instance colored by outcome, instant markers for
 * restarts, defers, probes and yields, owner→waiter flow arrows for
 * serviced deferrals, and a deferral-queue depth counter track per
 * cpu. Everything comes from the record stream alone, so
 * `tlrquery --chrome-trace` builds it offline from a `--trace-raw`
 * file.
 */

#ifndef TLR_TRACE_LIFECYCLE_HH
#define TLR_TRACE_LIFECYCLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace/txn_state.hh"

namespace tlr
{

class TxnLifecycle : public TxnStateView
{
  public:
    /** One critical-section instance, first elision to final outcome. */
    struct Span
    {
        CpuId cpu = invalidCpu;
        Tick begin = 0;
        Tick end = 0;
        Addr lock = 0;
        std::uint64_t tsClock = 0;
        bool tsValid = false;
        /** Restarts that did not end the instance: a fallback's last
         *  restart is its outcome, not a marker inside the span. */
        unsigned restarts = 0;
        unsigned nests = 0;
        std::string outcome; ///< "commit" | "fallback:<reason>" |
                             ///< "quantum-end" | "unfinished"
    };

    /** A point event on a cpu row (restart, defer, probe, yield). */
    struct Instant
    {
        CpuId cpu = invalidCpu;
        Tick tick = 0;
        std::string name;
        std::string detail;
    };

    /** A serviced deferral, drawn as an arrow from the owner's row at
     *  the defer tick to the waiter's row at the service tick. */
    struct Flow
    {
        std::uint64_t serial = 0; ///< the deferral's, in defer order
        CpuId owner = invalidCpu;
        Tick start = 0;
        CpuId waiter = invalidCpu;
        Tick end = 0;
        Addr line = 0;
    };

    /** (tick, depth) samples of one cpu's deferral queue. */
    using DepthSamples = std::vector<std::pair<Tick, std::uint64_t>>;

    void apply(const TxnState::Change &c) override;

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Instant> &instants() const { return instants_; }
    /** Indexed by cpu; empty for a cpu that never deferred. */
    const std::vector<DepthSamples> &deferDepth() const { return depth_; }

    /** The arrows the export draws: serviced deferrals that waited,
     *  longest first (ties: start tick, then waiter), at most
     *  @p maxFlows of them. */
    std::vector<Flow> flows(size_t maxFlows = 256) const;

    /** Write the whole run as Chrome trace-event JSON. */
    void exportChromeTrace(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<Instant> instants_;
    std::vector<Flow> serviced_; ///< in service order
    std::vector<DepthSamples> depth_;
};

} // namespace tlr

#endif // TLR_TRACE_LIFECYCLE_HH
