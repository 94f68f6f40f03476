/**
 * @file
 * Top-level simulated machine: cores + speculation engines + L1
 * controllers + interconnect + memory, wired per paper Table 2.
 */

#ifndef TLR_HARNESS_SYSTEM_HH
#define TLR_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "coherence/directory.hh"
#include "explain/explain.hh"
#include "coherence/interconnect.hh"
#include "coherence/l1_controller.hh"
#include "coherence/memory_controller.hh"
#include "core/spec_engine.hh"
#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "metrics/collector.hh"
#include "timeline/timeline.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "trace/checkers.hh"
#include "trace/sink.hh"

namespace tlr
{

/** Coherence organization (paper Section 3: either works with TLR). */
enum class Protocol
{
    Broadcast, ///< Gigaplane-style ordered broadcast (paper Table 2)
    Directory, ///< home directory, point-to-point forwarding
};

/** Full machine configuration (defaults follow paper Table 2). */
struct MachineParams
{
    int numCpus = 16;
    Protocol protocol = Protocol::Broadcast;
    InterconnectParams net;
    L1Params l1;
    MemParams mem;
    std::uint64_t l2Lines = (4ull << 20) / lineBytes; ///< 4 MB shared L2
    SpecConfig spec;
    TraceParams trace;
    /** Attach a MetricsCollector to the trace sink. Arms the sink, so
     *  events are recorded; latency/contention/traffic profiles become
     *  available via metrics() after the run. Off by default: with no
     *  listeners the sink stays disarmed and the hot path is a single
     *  predictable branch. */
    bool collectMetrics = false;
    /** Attach a causal-conflict Explainer (wait-for graph +
     *  critical-path accountant) to the trace sink. Same contract as
     *  collectMetrics: arms the sink, never perturbs simulated
     *  cycles, off by default. */
    bool explain = false;
    /** Transactions listed in the explain report (--explain top-K). */
    unsigned explainTopK = 10;
    /** Attach an EpochTimeline slicing the trace stream into epochs of
     *  this many cycles (--timeline-epoch, DESIGN.md §13). Same
     *  contract as collectMetrics/explain: arms the sink, never
     *  perturbs simulated cycles. 0 (default) = off. */
    Tick timelineEpoch = 0;
    std::uint64_t seed = 12345;
    Tick maxTicks = 2'000'000'000ull; ///< watchdog for livelock studies
    /** OS preemption (paper Section 4): at tick k * preemptEvery,
     *  k = 1, 2, ..., core k mod numCpus stops for preemptQuantum
     *  cycles, until every core has halted. 0 (default) = off. */
    Tick preemptEvery = 0;
    Tick preemptQuantum = 10000;
};

class System
{
  public:
    explicit System(const MachineParams &params);

    int numCpus() const { return params_.numCpus; }
    Core &core(int i) { return *cores_.at(static_cast<size_t>(i)); }
    L1Controller &l1(int i) { return *l1s_.at(static_cast<size_t>(i)); }
    SpecEngine &engine(int i)
    {
        return *engines_.at(static_cast<size_t>(i));
    }
    BackingStore &memory() { return store_; }
    Interconnect &interconnect() { return *net_; }
    EventQueue &eventQueue() { return eq_; }
    StatSet &stats() { return stats_; }
    TraceSink &traceSink() { return trace_; }
    /** The attached metrics collector; null unless collectMetrics. */
    MetricsCollector *metrics() { return metrics_.get(); }
    /** The attached explainer; null unless MachineParams::explain. */
    Explainer *explainer() { return explain_.get(); }
    /** The attached timeline; null unless timelineEpoch > 0. */
    EpochTimeline *timeline() { return timeline_.get(); }

    /** Attach an event-stream consumer (lifecycle tracker, custom
     *  checker). The sink arms itself on first listener. */
    void addTraceListener(TraceListener *l) { trace_.addListener(l); }

    void setProgram(int cpu, ProgramPtr prog);
    void setLockClassifier(std::function<bool(Addr)> f);

    /**
     * Run until every core halts.
     * @return true on completion; false if maxTicks elapsed first
     *         (livelock experiments rely on this).
     */
    bool run();

    /** Tick at which the last core halted (parallel execution time);
     *  0 unless every core halted. */
    Tick completionTick() const
    {
        return haltedCount_ == params_.numCpus ? completionTick_ : 0;
    }

    /** Schedule an OS preemption: at tick @p when, core @p cpu stops
     *  for @p duration cycles. An active transaction aborts and its
     *  lock stays free (paper Section 4, non-blocking behavior); a
     *  BASE thread holding a real lock keeps it and blocks everyone
     *  else — the contrast the paper's stability claim is about.
     *  MachineParams::preemptEvery covers the periodic schedule; this
     *  is for bounded or irregular ones. */
    void preemptCore(int cpu, Tick when, Tick duration);

  private:
    /** Stop core @p cpu for @p duration cycles unless it has halted. */
    void deschedule(int cpu, Tick duration);
    /** Schedule the @p k-th periodic preemption; each schedules the
     *  next until every core has halted. */
    void schedulePreemption(Tick k);

    MachineParams params_;
    EventQueue eq_;
    StatSet stats_;
    BackingStore store_;
    TraceSink trace_; ///< before net_/l1s_: they capture its address
    std::unique_ptr<InvariantRegistry> checkers_;
    std::unique_ptr<MetricsCollector> metrics_;
    std::unique_ptr<Explainer> explain_;
    std::unique_ptr<EpochTimeline> timeline_;
    std::unique_ptr<Interconnect> net_;
    MemoryController mem_;
    std::vector<std::unique_ptr<SpecEngine>> engines_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<Core>> cores_;
    int haltedCount_ = 0;
    Tick completionTick_ = 0;
};

} // namespace tlr

#endif // TLR_HARNESS_SYSTEM_HH
