/**
 * @file
 * Per-transaction lifecycle tracker and Chrome-trace exporter.
 *
 * A view over TxnState: every critical-section instance the reducer
 * closes (elide → speculate → conflict → defer/restart → commit or
 * fallback) becomes a span. The result exports as
 * Chrome trace-event JSON (the format Perfetto and chrome://tracing
 * open natively): one timeline row per cpu, a duration span per
 * transaction instance colored by outcome, and instant markers for
 * restarts, defers, probes and yields.
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

/** One Perfetto counter track: a named series of (tick, value)
 *  samples, appended to the Chrome-trace export as "C" events (the
 *  metrics layer supplies deferral-queue depth tracks this way). */
struct CounterTrack
{
    std::string name;
    std::vector<std::pair<Tick, std::uint64_t>> samples;
};

/** One causal flow arrow for the Chrome-trace export: drawn from
 *  (fromCpu row, fromTick) to (toCpu row, toTick) as an "s"/"f" flow
 *  event pair (the explain subsystem supplies deferral arrows —
 *  owner at the defer tick → waiter at the service tick). */
struct FlowArrow
{
    CpuId fromCpu = invalidCpu;
    Tick fromTick = 0;
    CpuId toCpu = invalidCpu;
    Tick toTick = 0;
    std::string name;
};

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

    void apply(const TxnState::Change &c) override;

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Instant> &instants() const { return instants_; }

    /** Write the whole run as Chrome trace-event JSON, optionally
     *  appending @p counters as Perfetto counter tracks and @p flows
     *  as causal flow arrows between cpu rows. */
    void exportChromeTrace(std::ostream &os,
                           const std::vector<CounterTrack> &counters = {},
                           const std::vector<FlowArrow> &flows = {})
        const;

  private:
    std::vector<Span> spans_;
    std::vector<Instant> instants_;
};

} // namespace tlr

#endif // TLR_TRACE_LIFECYCLE_HH
