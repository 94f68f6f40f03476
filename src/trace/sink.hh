/**
 * @file
 * The structured trace sink.
 *
 * Components emit fixed-size binary TraceRecords through one sink per
 * simulated system. The sink fans each record out to (a) an optional
 * ring buffer (flight recorder), (b) registered online listeners
 * (invariant checkers, the transaction lifecycle tracker) and (c) an
 * optional human-readable text echo on stderr.
 *
 * Zero-overhead-when-off contract: components guard every emit with
 * TLR_TRACE_ARMED(sink), a null check plus one boolean load, so a
 * system with no ring, no listeners and no echo pays a predicted
 * branch per would-be event and nothing else. The sink never schedules
 * events and never mutates simulation state, so enabling it cannot
 * change simulated cycle counts.
 */

#ifndef TLR_TRACE_SINK_HH
#define TLR_TRACE_SINK_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/ring.hh"

namespace tlr
{

/** One-line text rendering of a record (echo mode, ring dumps). */
std::string formatRecord(const TraceRecord &r);

/** Online consumer of the event stream (checker, lifecycle tracker). */
class TraceListener
{
  public:
    virtual ~TraceListener() = default;
    virtual void onRecord(const TraceRecord &r) = 0;
    /** Called once after the run completes (end-of-stream checks). */
    virtual void finish(Tick now) { (void)now; }
};

/** Configuration of the per-system tracing/checking machinery. */
struct TraceParams
{
    /** Flight-recorder depth in records; 0 disables the ring. */
    size_t ringCapacity = 0;
    /** Echo each record as text on stderr (tlrsim --trace). */
    bool echoText = false;
    /** Attach the online invariant checkers (System does this). */
    bool checkInvariants = false;
    /** Record violations in stats but keep running instead of
     *  panicking at the violating tick (test support). */
    bool keepGoingOnViolation = false;
    /** Deferral-graph cycles older than this many ticks are reported
     *  as deadlocks; 0 derives a bound from the L1 yield timeout. */
    Tick cycleStuckTicks = 0;
};

class TraceSink
{
  public:
    TraceSink() : ring_(0) {}

    void
    configure(size_t ring_capacity, bool echo_text)
    {
        ring_ = TraceRing(ring_capacity);
        echo_ = echo_text;
        rearm();
    }

    void
    addListener(TraceListener *l)
    {
        listeners_.push_back(l);
        rearm();
    }

    /** Hot-path gate: true when any consumer wants records. */
    bool armed() const { return armed_; }

    void
    emit(Tick tick, TraceComp comp, TraceEvent kind, CpuId cpu, Addr addr,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
         std::uint64_t a3 = 0)
    {
        TraceRecord r;
        r.tick = tick;
        r.comp = comp;
        r.kind = kind;
        r.cpu = static_cast<std::int16_t>(cpu);
        r.addr = addr;
        r.a0 = a0;
        r.a1 = a1;
        r.a2 = a2;
        r.a3 = a3;
        r.seq = emitted_++;
        ring_.push(r);
        if (echo_)
            std::fprintf(stderr, "%s\n", formatRecord(r).c_str());
        for (TraceListener *l : listeners_)
            l->onRecord(r);
    }

    /** End-of-run hook: flush listeners' pending state. */
    void
    finish(Tick now)
    {
        for (TraceListener *l : listeners_)
            l->finish(now);
    }

    std::uint64_t emitted() const { return emitted_; }
    const TraceRing &ring() const { return ring_; }

    /** Dump the newest @p max_records ring entries to @p out
     *  (post-mortem context for a violation report). */
    void dumpRecent(std::FILE *out, size_t max_records = 64) const;

  private:
    void
    rearm()
    {
        armed_ = echo_ || ring_.capacity() > 0 || !listeners_.empty();
    }

    bool armed_ = false;
    bool echo_ = false;
    TraceRing ring_;
    std::vector<TraceListener *> listeners_;
    std::uint64_t emitted_ = 0;
};

/** Emit guard used on hot paths: null sink or disarmed sink costs one
 *  branch. Usage: if (TLR_TRACE_ARMED(trace_)) trace_->emit(...); */
#define TLR_TRACE_ARMED(sink) ((sink) != nullptr && (sink)->armed())

} // namespace tlr

#endif // TLR_TRACE_SINK_HH
