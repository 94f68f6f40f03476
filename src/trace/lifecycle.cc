#include "trace/lifecycle.hh"

#include <algorithm>
#include <set>

#include "coherence/messages.hh"
#include "sim/logging.hh"

namespace tlr
{

void
TxnLifecycle::apply(const TxnState::Change &c)
{
    if (const TxnState::Txn *t = c.closed) {
        Span s;
        s.cpu = t->cpu;
        s.begin = t->begin;
        // Clamp: a span must never extend past its close tick or run
        // backwards — Perfetto rejects traces with negative durations.
        s.end = std::max(t->end, t->begin);
        s.lock = t->lock;
        s.tsClock = t->ts.clock;
        s.tsValid = t->ts.valid;
        s.restarts =
            t->restarts - (t->outcome == TxnState::Outcome::Fallback);
        s.nests = t->nests;
        s.outcome = t->outcomeName();
        spans_.push_back(std::move(s));
    }
    if (!c.record)
        return;
    // A deferral a record closed was serviced; one that waited is an
    // arrow candidate.
    if (const TxnState::Deferral *d = c.deferClosed; d && c.tick > d->start)
        serviced_.push_back(
            {d->serial, d->owner, d->start, d->waiter, c.tick, d->line});
    const TraceRecord &r = *c.record;
    switch (r.kind) {
      case TraceEvent::TxnRestart:
        if (r.a2 == 0)
            instants_.push_back(
                {r.cpu, r.tick, "restart",
                 abortReasonName(static_cast<AbortReason>(r.a0))});
        return;
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer:
        instants_.push_back(
            {r.cpu, r.tick,
             r.kind == TraceEvent::CohDefer ? "defer" : "relaxed-defer",
             strfmt("cpu%llu %s line=%#llx",
                    static_cast<unsigned long long>(r.a0),
                    reqTypeName(static_cast<ReqType>(r.a1)),
                    static_cast<unsigned long long>(r.addr))});
        return;
      case TraceEvent::CohProbe:
        instants_.push_back(
            {r.cpu, r.tick, "probe",
             strfmt("to cpu%llu line=%#llx",
                    static_cast<unsigned long long>(r.a0),
                    static_cast<unsigned long long>(r.addr))});
        return;
      case TraceEvent::CohYield:
        instants_.push_back(
            {r.cpu, r.tick, "yield",
             strfmt("line=%#llx",
                    static_cast<unsigned long long>(r.addr))});
        return;
      case TraceEvent::CohDeferDepth:
        // Records may come from a file: a negative cpu is malformed.
        if (r.cpu >= 0)
            cpuSlot(depth_, r.cpu).emplace_back(r.tick, r.a0);
        return;
      default:
        return;
    }
}

namespace
{

/** Chrome trace-event colors by outcome (cname is a documented
 *  trace-viewer field; Perfetto falls back to its own palette). */
const char *
outcomeColor(const std::string &outcome)
{
    if (outcome == "commit")
        return "good";
    if (outcome.rfind("fallback:", 0) == 0)
        return "terrible";
    return "bad";
}

} // namespace

std::vector<TxnLifecycle::Flow>
TxnLifecycle::flows(size_t maxFlows) const
{
    // std::sort is not stable, so its input order decides how ties
    // land: defer order, as the explainer's conflict graph keeps it.
    std::vector<Flow> v = serviced_;
    std::sort(v.begin(), v.end(), [](const Flow &a, const Flow &b) {
        return a.serial < b.serial;
    });
    std::sort(v.begin(), v.end(), [](const Flow &a, const Flow &b) {
        if (a.end - a.start != b.end - b.start)
            return a.end - a.start > b.end - b.start;
        if (a.start != b.start)
            return a.start < b.start;
        return a.waiter < b.waiter;
    });
    if (v.size() > maxFlows)
        v.resize(maxFlows);
    return v;
}

void
TxnLifecycle::exportChromeTrace(std::ostream &os) const
{
    // Durations use "X" complete events; markers use "i" instants.
    // Ticks (cycles) are written as microseconds so viewers show cycle
    // counts directly.
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    std::set<CpuId> rows;
    for (const Span &s : spans_)
        rows.insert(s.cpu);
    for (const Instant &i : instants_)
        rows.insert(i.cpu);
    for (CpuId cpu : rows) {
        sep();
        os << strfmt("{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"cpu %d\"}}",
                     cpu, cpu);
    }

    for (const Span &s : spans_) {
        sep();
        Tick dur = s.end > s.begin ? s.end - s.begin : 0;
        os << strfmt(
            "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"cat\":\"txn\","
            "\"name\":\"txn lock=%#llx\",\"ts\":%llu,\"dur\":%llu,"
            "\"cname\":\"%s\",\"args\":{\"outcome\":\"%s\","
            "\"restarts\":%u,\"nests\":%u,\"ts_clock\":%llu,"
            "\"ts_valid\":%s}}",
            s.cpu, static_cast<unsigned long long>(s.lock),
            static_cast<unsigned long long>(s.begin),
            static_cast<unsigned long long>(dur),
            outcomeColor(s.outcome), s.outcome.c_str(), s.restarts,
            s.nests, static_cast<unsigned long long>(s.tsClock),
            s.tsValid ? "true" : "false");
    }

    for (const Instant &i : instants_) {
        sep();
        os << strfmt("{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"s\":\"t\","
                     "\"cat\":\"coh\",\"name\":\"%s\",\"ts\":%llu,"
                     "\"args\":{\"detail\":\"%s\"}}",
                     i.cpu, i.name.c_str(),
                     static_cast<unsigned long long>(i.tick),
                     i.detail.c_str());
    }

    // Causal flow arrows: an "s" (start) / "f" (finish) pair with a
    // shared id draws an arrow between the two rows; "bp":"e" binds
    // the endpoint to the enclosing slice rather than the next one.
    const std::vector<Flow> arrows = flows();
    for (size_t fi = 0; fi < arrows.size(); ++fi) {
        const Flow &f = arrows[fi];
        const std::string name = strfmt(
            "defer line=%#llx", static_cast<unsigned long long>(f.line));
        sep();
        os << strfmt("{\"ph\":\"s\",\"pid\":0,\"tid\":%d,"
                     "\"cat\":\"dep\",\"name\":\"%s\",\"id\":%zu,"
                     "\"ts\":%llu}",
                     f.owner, name.c_str(), fi,
                     static_cast<unsigned long long>(f.start));
        sep();
        os << strfmt("{\"ph\":\"f\",\"pid\":0,\"tid\":%d,"
                     "\"cat\":\"dep\",\"name\":\"%s\",\"id\":%zu,"
                     "\"bp\":\"e\",\"ts\":%llu}",
                     f.waiter, name.c_str(), fi,
                     static_cast<unsigned long long>(f.end));
    }

    // Counter tracks render as per-name value graphs in Perfetto.
    for (size_t cpu = 0; cpu < depth_.size(); ++cpu) {
        for (const auto &[tick, value] : depth_[cpu]) {
            sep();
            os << strfmt("{\"ph\":\"C\",\"pid\":0,"
                         "\"name\":\"defer-depth cpu%zu\","
                         "\"ts\":%llu,\"args\":{\"value\":%llu}}",
                         cpu, static_cast<unsigned long long>(tick),
                         static_cast<unsigned long long>(value));
        }
    }

    os << "\n]}\n";
}

} // namespace tlr
