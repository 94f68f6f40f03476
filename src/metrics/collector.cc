#include "metrics/collector.hh"

#include <algorithm>
#include <sstream>

#include "coherence/messages.hh"
#include "sim/logging.hh"

namespace tlr
{

void
LockProfile::merge(const LockProfile &o)
{
    acquires += o.acquires;
    elisions += o.elisions;
    commits += o.commits;
    restarts += o.restarts;
    fallbacks += o.fallbacks;
    defers += o.defers;
    occupancyTicks += o.occupancyTicks;
}

const char *
msgClassName(MsgClass c)
{
    switch (c) {
      case MsgClass::AddrGetS: return "addr.GetS";
      case MsgClass::AddrGetX: return "addr.GetX";
      case MsgClass::AddrUpgrade: return "addr.Upgrade";
      case MsgClass::AddrWriteBack: return "addr.WriteBack";
      case MsgClass::Data: return "data";
      case MsgClass::Marker: return "marker";
      case MsgClass::Probe: return "probe";
      case MsgClass::DirFwd: return "dir.fwd";
    }
    return "?";
}

std::string
linkNodeName(int node)
{
    if (node == memNode)
        return "mem";
    if (node == ordNode)
        return "ord";
    return "cpu" + std::to_string(node);
}

//
// ---- MetricsSnapshot ----------------------------------------------------
//

void
MetricsSnapshot::merge(const MetricsSnapshot &o)
{
    csLatency.merge(o.csLatency);
    commitLatency.merge(o.commitLatency);
    abortLatency.merge(o.abortLatency);
    retries.merge(o.retries);
    deferWait.merge(o.deferWait);
    deferDepth.merge(o.deferDepth);
    for (const auto &[addr, p] : o.locks)
        locks[addr].merge(p);
    for (unsigned i = 0; i < numMsgClasses; ++i) {
        msgs[i].count += o.msgs[i].count;
        msgs[i].bytes += o.msgs[i].bytes;
    }
    for (const auto &[link, s] : o.links) {
        MsgStat &dst = links[link];
        dst.count += s.count;
        dst.bytes += s.bytes;
    }
    records += o.records;
    runTicks += o.runTicks;
}

std::uint64_t
MetricsSnapshot::totalCommits() const
{
    std::uint64_t n = 0;
    for (const auto &[addr, p] : locks)
        n += p.commits;
    return n;
}

std::uint64_t
MetricsSnapshot::totalRestarts() const
{
    std::uint64_t n = 0;
    for (const auto &[addr, p] : locks)
        n += p.restarts;
    return n;
}

double
MetricsSnapshot::abortRate() const
{
    double attempts = static_cast<double>(totalCommits()) +
                      static_cast<double>(totalRestarts());
    return attempts > 0
               ? static_cast<double>(totalRestarts()) / attempts
               : 0.0;
}

std::pair<Addr, std::uint64_t>
MetricsSnapshot::hottestLock() const
{
    std::pair<Addr, std::uint64_t> best{0, 0};
    for (const auto &[addr, p] : locks)
        if (p.contention() > best.second)
            best = {addr, p.contention()};
    return best;
}

std::string
MetricsSnapshot::json() const
{
    std::ostringstream os;
    os << "{\n";
    os << "    \"histograms\": {\n";
    const std::pair<const char *, const Histogram *> hists[] = {
        {"cs_latency", &csLatency},     {"commit_latency", &commitLatency},
        {"abort_latency", &abortLatency}, {"retries", &retries},
        {"defer_wait", &deferWait},     {"defer_depth", &deferDepth},
    };
    for (size_t i = 0; i < std::size(hists); ++i)
        os << "      \"" << hists[i].first
           << "\": " << hists[i].second->json()
           << (i + 1 < std::size(hists) ? ",\n" : "\n");
    os << "    },\n";

    os << "    \"locks\": [";
    bool first = true;
    for (const auto &[addr, p] : locks) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << strfmt("      {\"addr\": %llu, \"acquires\": %llu, "
                     "\"elisions\": %llu, \"commits\": %llu, "
                     "\"restarts\": %llu, \"fallbacks\": %llu, "
                     "\"defers\": %llu, \"occupancy_ticks\": %llu}",
                     static_cast<unsigned long long>(addr),
                     static_cast<unsigned long long>(p.acquires),
                     static_cast<unsigned long long>(p.elisions),
                     static_cast<unsigned long long>(p.commits),
                     static_cast<unsigned long long>(p.restarts),
                     static_cast<unsigned long long>(p.fallbacks),
                     static_cast<unsigned long long>(p.defers),
                     static_cast<unsigned long long>(p.occupancyTicks));
    }
    os << (first ? "],\n" : "\n    ],\n");

    os << "    \"interconnect\": {\n      \"types\": {";
    first = true;
    for (unsigned i = 0; i < numMsgClasses; ++i) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << strfmt("        \"%s\": {\"count\": %llu, \"bytes\": %llu}",
                     msgClassName(static_cast<MsgClass>(i)),
                     static_cast<unsigned long long>(msgs[i].count),
                     static_cast<unsigned long long>(msgs[i].bytes));
    }
    os << "\n      },\n      \"links\": [";
    first = true;
    for (const auto &[link, s] : links) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << strfmt("        {\"from\": \"%s\", \"to\": \"%s\", "
                     "\"count\": %llu, \"bytes\": %llu}",
                     linkNodeName(link.first).c_str(),
                     linkNodeName(link.second).c_str(),
                     static_cast<unsigned long long>(s.count),
                     static_cast<unsigned long long>(s.bytes));
    }
    os << (first ? "]\n    },\n" : "\n      ]\n    },\n");

    // Schema v3: per-workload abort digest (sim/build_info.hh).
    const auto [hotAddr, hotCont] = hottestLock();
    os << strfmt("    \"aborts\": {\"commits\": %llu, "
                 "\"restarts\": %llu, \"abort_rate\": %.6f, "
                 "\"hottest_lock\": %llu, "
                 "\"hottest_lock_contention\": %llu},\n",
                 static_cast<unsigned long long>(totalCommits()),
                 static_cast<unsigned long long>(totalRestarts()),
                 abortRate(),
                 static_cast<unsigned long long>(hotAddr),
                 static_cast<unsigned long long>(hotCont));

    os << "    \"records\": " << records << ",\n";
    os << "    \"run_ticks\": " << runTicks << "\n";
    os << "  }";
    return os.str();
}

std::string
MetricsSnapshot::summary(size_t maxLocks) const
{
    std::string out;
    out += "-- latency histograms (cycles) --\n";
    out += strfmt("  %-14s %10s %10s %10s %10s %10s %10s\n", "metric",
                  "count", "mean", "p50", "p90", "p99", "max");
    const std::pair<const char *, const Histogram *> hists[] = {
        {"cs-latency", &csLatency},     {"commit-latency", &commitLatency},
        {"abort-latency", &abortLatency}, {"retries", &retries},
        {"defer-wait", &deferWait},     {"defer-depth", &deferDepth},
    };
    for (const auto &[name, h] : hists) {
        out += strfmt("  %-14s %10llu %10.1f %10.0f %10.0f %10.0f "
                      "%10llu\n",
                      name, static_cast<unsigned long long>(h->count()),
                      h->mean(), h->percentile(50), h->percentile(90),
                      h->percentile(99),
                      static_cast<unsigned long long>(h->max()));
    }

    {
        const auto [hotAddr, hotCont] = hottestLock();
        out += strfmt("-- aborts --\n  commits %llu  restarts %llu  "
                      "abort-rate %.2f%%  hottest-lock %#llx "
                      "(contention %llu)\n",
                      static_cast<unsigned long long>(totalCommits()),
                      static_cast<unsigned long long>(totalRestarts()),
                      100.0 * abortRate(),
                      static_cast<unsigned long long>(hotAddr),
                      static_cast<unsigned long long>(hotCont));
    }

    out += "-- hottest locks --\n";
    out += strfmt("  %-10s %8s %8s %8s %8s %9s %7s %12s %6s\n", "addr",
                  "acquires", "elisions", "commits", "restarts",
                  "fallbacks", "defers", "occ-ticks", "occ%");
    std::vector<std::pair<Addr, LockProfile>> ranked(locks.begin(),
                                                     locks.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto &a,
                                               const auto &b) {
        if (a.second.contention() != b.second.contention())
            return a.second.contention() > b.second.contention();
        if (a.second.occupancyTicks != b.second.occupancyTicks)
            return a.second.occupancyTicks > b.second.occupancyTicks;
        return a.first < b.first;
    });
    size_t shown = std::min(maxLocks, ranked.size());
    for (size_t i = 0; i < shown; ++i) {
        const auto &[addr, p] = ranked[i];
        double occPct =
            runTicks ? 100.0 * static_cast<double>(p.occupancyTicks) /
                           static_cast<double>(runTicks)
                     : 0.0;
        out += strfmt("  %#-10llx %8llu %8llu %8llu %8llu %9llu %7llu "
                      "%12llu %6.1f\n",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(p.acquires),
                      static_cast<unsigned long long>(p.elisions),
                      static_cast<unsigned long long>(p.commits),
                      static_cast<unsigned long long>(p.restarts),
                      static_cast<unsigned long long>(p.fallbacks),
                      static_cast<unsigned long long>(p.defers),
                      static_cast<unsigned long long>(p.occupancyTicks),
                      occPct);
    }
    if (ranked.size() > shown)
        out += strfmt("  (%zu more locks)\n", ranked.size() - shown);

    out += "-- interconnect messages --\n";
    out += strfmt("  %-14s %10s %12s\n", "type", "count", "bytes");
    for (unsigned i = 0; i < numMsgClasses; ++i) {
        if (msgs[i].count == 0)
            continue;
        out += strfmt("  %-14s %10llu %12llu\n",
                      msgClassName(static_cast<MsgClass>(i)),
                      static_cast<unsigned long long>(msgs[i].count),
                      static_cast<unsigned long long>(msgs[i].bytes));
    }
    std::vector<std::pair<std::pair<int, int>, MsgStat>> busiest(
        links.begin(), links.end());
    std::sort(busiest.begin(), busiest.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.bytes != b.second.bytes)
                      return a.second.bytes > b.second.bytes;
                  return a.first < b.first;
              });
    size_t nlinks = std::min<size_t>(12, busiest.size());
    if (nlinks) {
        out += strfmt("  %-14s %10s %12s\n", "link (busiest)", "count",
                      "bytes");
        for (size_t i = 0; i < nlinks; ++i) {
            const auto &[link, s] = busiest[i];
            out += strfmt("  %-14s %10llu %12llu\n",
                          (linkNodeName(link.first) + "->" +
                           linkNodeName(link.second))
                              .c_str(),
                          static_cast<unsigned long long>(s.count),
                          static_cast<unsigned long long>(s.bytes));
        }
        if (busiest.size() > nlinks)
            out += strfmt("  (%zu more links)\n",
                          busiest.size() - nlinks);
    }
    return out;
}

//
// ---- MetricsCollector ---------------------------------------------------
//

void
MetricsCollector::closed(const TxnState::Txn &t)
{
    using Outcome = TxnState::Outcome;
    // An unfinished instance is dropped rather than guessed at.
    if (t.outcome == Outcome::Unfinished)
        return;
    const Tick span = t.end - t.begin;
    snap_.retries.record(t.restarts);
    if (t.outcome != Outcome::Commit) {
        snap_.abortLatency.record(span);
        if (t.outcome == Outcome::Fallback)
            ++locks_[t.lock].fallbacks;
        return;
    }
    snap_.csLatency.record(span);
    if (t.inCommit)
        snap_.commitLatency.record(t.end - t.commitStart);
    LockProfile &p = locks_[t.lock];
    ++p.commits;
    p.occupancyTicks += span;
}

void
MetricsCollector::accountMsg(MsgClass cls, std::uint64_t bytes, int from,
                             int to)
{
    MsgStat &m = snap_.msgs[static_cast<unsigned>(cls)];
    ++m.count;
    m.bytes += bytes;
    const auto row = static_cast<size_t>(from - ordNode);
    const auto col = static_cast<size_t>(to - ordNode);
    if (std::max(row, col) >= linkDim_) {
        const size_t dim = std::max(row, col) + 1;
        std::vector<MsgStat> grown(dim * dim);
        for (size_t i = 0; i < linkDim_; ++i)
            for (size_t j = 0; j < linkDim_; ++j)
                grown[i * dim + j] = links_[i * linkDim_ + j];
        links_ = std::move(grown);
        linkDim_ = dim;
    }
    MsgStat &l = links_[row * linkDim_ + col];
    ++l.count;
    l.bytes += bytes;
}

void
MetricsCollector::apply(const TxnState::Change &c)
{
    if (!c.record)
        return; // closes at finish() are unfinished work: dropped
    const TraceRecord &r = *c.record;
    ++snap_.records;
    if (c.opened)
        ++locks_[c.opened->lock].elisions;
    if (c.restarted)
        ++locks_[c.restarted->lock].restarts;
    if (c.closed)
        closed(*c.closed);
    if (c.deferClosed)
        snap_.deferWait.record(r.tick - c.deferClosed->start);
    switch (r.kind) {
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        // Attribute the deferral to a lock: the line itself if it is a
        // lock line, otherwise the lock the deferring owner holds.
        if (isLock_ && isLock_(r.addr)) {
            ++locks_[r.addr].defers;
        } else if (const TxnState::Txn *t = state().live(r.cpu)) {
            ++locks_[t->lock].defers;
        }
        return;
      }
      case TraceEvent::CohDeferDepth:
        snap_.deferDepth.record(r.a0);
        return;
      case TraceEvent::CohOrder: {
        MsgClass cls = MsgClass::AddrGetS;
        switch (static_cast<ReqType>(r.a0)) {
          case ReqType::GetS: cls = MsgClass::AddrGetS; break;
          case ReqType::GetX: cls = MsgClass::AddrGetX; break;
          case ReqType::Upgrade: cls = MsgClass::AddrUpgrade; break;
          case ReqType::WriteBack: cls = MsgClass::AddrWriteBack; break;
        }
        accountMsg(cls, addrMsgBytes, r.cpu, ordNode);
        return;
      }
      case TraceEvent::CohData:
        accountMsg(MsgClass::Data, dataMsgBytes, r.cpu,
                   static_cast<int>(r.a0));
        return;
      case TraceEvent::CohMarker:
        accountMsg(MsgClass::Marker, markerMsgBytes, r.cpu,
                   static_cast<int>(r.a0));
        return;
      case TraceEvent::CohProbe:
        accountMsg(MsgClass::Probe, probeMsgBytes, r.cpu,
                   static_cast<int>(r.a0));
        return;
      case TraceEvent::CohFwd:
        accountMsg(MsgClass::DirFwd, addrMsgBytes, ordNode,
                   static_cast<int>(r.a0));
        return;
      case TraceEvent::MemWrite: {
        // Real (non-elided) lock occupancy, from committed writes to
        // lock words: a non-zero store opens a hold, the zero store
        // releases it. Exact for test&test&set locks (BASE/SLE/TLR
        // fallback); approximate for MCS, whose queue-node handoffs
        // also live on classified sync lines.
        if (!isLock_ || !isLock_(r.addr))
            return;
        Hold &h = held_[r.addr];
        if (r.a0 != 0) {
            if (!h.held) {
                h = {true, r.tick};
                ++locks_[r.addr].acquires;
            }
        } else if (h.held) {
            Tick heldFor = r.tick - h.since;
            snap_.csLatency.record(heldFor);
            locks_[r.addr].occupancyTicks += heldFor;
            h.held = false;
        }
        return;
      }
      default:
        return;
    }
}

void
MetricsCollector::finish(Tick now)
{
    // Unfinished work (open transactions, still-held locks, never
    // serviced deferrals) is dropped rather than guessed at, so the
    // reducer's closes at the end of the stream are not needed.
    snap_.runTicks = now;
    snap_.locks.clear();
    locks_.forEach([&](Addr addr, const LockProfile &p) {
        snap_.locks.emplace(addr, p);
    });
    snap_.links.clear();
    for (size_t i = 0; i < linkDim_; ++i) {
        for (size_t j = 0; j < linkDim_; ++j) {
            const MsgStat &l = links_[i * linkDim_ + j];
            if (l.count > 0)
                snap_.links[{static_cast<int>(i) + ordNode,
                             static_cast<int>(j) + ordNode}] = l;
        }
    }
}

} // namespace tlr
