/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around the calls it
 * makes into each layer of the simulator library (workload build,
 * System construction, install, run, validate, report building, sweep
 * tasks). Trace listeners are timed by a proxy and recorded as
 * aggregate spans: their time is spread over the run span that holds
 * them, so only the total is kept. Nothing is written until the run
 * ends.
 *
 * A span's layer is its name up to the first '.', matching the repo's
 * module names (harness, workloads, trace, metrics, explain, timeline)
 * plus "bench" for the benchmark's own pass bookkeeping.
 */

#ifndef TLRBENCH_TRACING_HH
#define TLRBENCH_TRACING_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/sink.hh"

namespace tlrbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;    ///< index into the log, -1 for a root
    int sim = -1;       ///< simulation index within its pass, -1 = none
    int pass = -1;      ///< traced pass the span belongs to
    std::uint64_t calls = 0; ///< aggregate spans: onRecord calls timed
    bool aggregate = false;  ///< total of many short calls, no interval
};

/** Thread-safe span recorder (sweep tasks record from pool threads). */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Passes are sequential; spans opened afterwards carry @p pass. */
    void setPass(int pass) { pass_ = pass; }

    int open(const char *name, int parent, int sim);
    void close(int id);
    void aggregate(const char *name, int parent, int sim,
                   std::uint64_t ns, std::uint64_t calls);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the part of it that
     *  child spans cover (union of child intervals, plus aggregate
     *  children's totals). Indexed like spans(). */
    std::vector<double> selfSeconds() const;

    /** Write every span as one JSON document. @return false on error. */
    bool write(const std::string &path) const;

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    int pass_ = -1;
    std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

/** RAII span; a null log records nothing (the untraced path). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, int parent, int sim)
        : log_(log), id_(log ? log->open(name, parent, sim) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** Proxy that times a trace listener's onRecord and finish calls. */
class TimedListener final : public tlr::TraceListener
{
  public:
    TimedListener(const char *name, tlr::TraceListener &inner)
        : name_(name), inner_(inner)
    {
    }

    void
    onRecord(const tlr::TraceRecord &r) override
    {
        auto t0 = Clock::now();
        inner_.onRecord(r);
        ns_ += elapsedNs(t0);
        ++calls_;
    }

    void
    finish(tlr::Tick now) override
    {
        auto t0 = Clock::now();
        inner_.finish(now);
        ns_ += elapsedNs(t0);
    }

    const char *name() const { return name_; }
    std::uint64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    static std::uint64_t
    elapsedNs(Clock::time_point t0)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    const char *name_;
    tlr::TraceListener &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace tlrbench

#endif // TLRBENCH_TRACING_HH
