#include "timeline/timeline.hh"

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>
#include <tuple>

#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "trace/events.hh"

namespace tlr
{

EpochTimeline::EpochTimeline(Tick epoch_len) : len_(epoch_len)
{
    if (len_ == 0)
        panic("EpochTimeline requires a positive epoch length");
    acc_.epoch = 0;
    acc_.startTick = 0;
}

namespace
{

/** Key of an alert-once (line, waiter) pair. */
std::uint64_t
pairKey(Addr line, std::int16_t waiter)
{
    return (line << 16) | static_cast<std::uint16_t>(waiter);
}

} // namespace

EpochTimeline::LineState &
EpochTimeline::touch(Addr line)
{
    LineState &ls = lines_[line];
    if (ls.touched != cur_ + 1) {
        ls.touched = cur_ + 1;
        epochLines_.push_back(line);
    }
    return ls;
}

void
EpochTimeline::onRecord(const TraceRecord &r)
{
    if (finished_)
        return;
    // The sink delivers records in nondecreasing tick order (events
    // execute in tick order), so epoch boundaries are crossings, never
    // back-fills.
    while (r.tick >= static_cast<Tick>(cur_ + 1) * len_)
        closeEpoch();
    TxnStateView::onRecord(r);
}

void
EpochTimeline::apply(const TxnState::Change &c)
{
    if (!c.record)
        return; // finish() closes epochs itself
    const TraceRecord &r = *c.record;
    ++acc_.records;
    switch (r.kind) {
      case TraceEvent::TxnElide:
        if (r.a3 != 0)
            ++acc_.elisions;
        return;
      case TraceEvent::TxnCommit:
        ++acc_.commits;
        return;
      case TraceEvent::TxnRestart:
        ++acc_.restarts;
        if (r.a2 != 0)
            ++acc_.fallbacks;
        if (r.addr != 0)
            ++touch(r.addr).score;
        return;
      case TraceEvent::TxnQuantumEnd:
        ++acc_.quantumEnds;
        return;
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        ++acc_.defers;
        LineState &ls = touch(r.addr);
        ++ls.score;
        if (c.deferOpened) {
            ls.hasQueueMax = true;
            ls.queueMax = std::max<std::uint64_t>(
                ls.queueMax, state().waiters(r.addr));
        }
        return;
      }
      case TraceEvent::CohService: {
        ++acc_.services;
        if (c.deferClosed) {
            std::uint64_t span = r.tick - c.deferClosed->start;
            acc_.deferWaitSum += span;
            ++acc_.deferWaitCount;
            acc_.deferWaitMax = std::max(acc_.deferWaitMax, span);
            waitHist_.record(span);
        }
        return;
      }
      case TraceEvent::CohDeferDepth:
        acc_.maxDeferDepth = std::max(acc_.maxDeferDepth, r.a0);
        return;
      case TraceEvent::CohOrder:
        ++acc_.orders;
        return;
      default:
        return;
    }
}

void
EpochTimeline::finish(Tick now)
{
    if (finished_)
        return;
    // finished_ goes up first so the epoch callback (a live progress
    // line) stays quiet while the final rows are closed.
    finished_ = true;
    finalTick_ = now;
    while (now >= static_cast<Tick>(cur_ + 1) * len_)
        closeEpoch();
    closeEpoch(); // the partial final epoch containing `now`
}

void
EpochTimeline::closeEpoch()
{
    Tick boundary = static_cast<Tick>(cur_ + 1) * len_;
    // Hottest line of the epoch: most defers + conflict restarts, ties
    // to the lowest address.
    for (Addr line : epochLines_) {
        const LineState &ls = *lines_.find(line);
        if (ls.score > acc_.hotScore ||
            (ls.score == acc_.hotScore && ls.score > 0 &&
             line < acc_.hotLine)) {
            acc_.hotScore = ls.score;
            acc_.hotLine = line;
        }
        if (ls.hasQueueMax)
            acc_.maxQueue = std::max(acc_.maxQueue, ls.queueMax);
    }

    runDetectors(acc_, boundary);
    rows_.push_back(acc_);

    histRestarts_.push_back(acc_.restarts);
    histCommits_.push_back(acc_.commits);
    if (histRestarts_.size() > trailingWindow) {
        histRestarts_.erase(histRestarts_.begin());
        histCommits_.erase(histCommits_.begin());
    }
    if (onEpoch_ && !finished_)
        onEpoch_(rows_.back(), alerts_.size());

    ++cur_;
    acc_ = EpochRow{};
    acc_.epoch = cur_;
    acc_.startTick = boundary;
    for (Addr line : epochLines_) {
        LineState &ls = *lines_.find(line);
        ls.score = 0;
        ls.queueMax = 0;
        ls.hasQueueMax = false;
    }
    epochLines_.clear();
    // Waiters still parked carry their queue into the next epoch: a
    // convoy that persists keeps its high-water mark without needing
    // fresh deferrals.
    state().forEachDeferral([&](const TxnState::Deferral &d) {
        LineState &ls = touch(d.line);
        ls.hasQueueMax = true;
        ls.queueMax = state().waiters(d.line);
    });
}

void
EpochTimeline::runDetectors(const EpochRow &row, Tick boundary)
{
    // Trailing histories exclude the row being closed (they are
    // appended after detection), so each detector compares the new
    // epoch against up to trailingWindow previous ones.

    // 1. Restart storm: restarts spike to stormFactor x the trailing
    //    mean (an empty history counts as mean 0, so a storm that
    //    starts at epoch 0 — the Figure 2 livelock — still fires).
    {
        std::uint64_t sum = std::accumulate(
            histRestarts_.begin(), histRestarts_.end(), std::uint64_t{0});
        std::uint64_t n = std::max<std::uint64_t>(histRestarts_.size(), 1);
        bool storm = row.restarts >= stormMinRestarts &&
                     row.restarts * n > stormFactor * sum;
        if (storm && !stormActive_) {
            std::uint64_t thr = std::max(stormMinRestarts,
                                         stormFactor * sum / n);
            fire("restart-storm", row.hotLine, row.restarts, thr,
                 boundary);
        }
        stormActive_ = storm;
    }

    // 2. Convoy onset: a line's simultaneous-waiter queue reached
    //    convoyMinQueue this epoch. Per line, edge-triggered: the line
    //    re-arms once its queue high-water mark drops back below the
    //    threshold, or it has no queue mark at all this epoch. Alerts
    //    fire in address order.
    {
        std::vector<Addr> onset;
        for (Addr line : epochLines_) {
            LineState &ls = *lines_.find(line);
            if (!ls.hasQueueMax)
                continue;
            if (ls.queueMax < convoyMinQueue) {
                ls.convoy = false;
            } else if (!ls.convoy) {
                ls.convoy = true;
                convoyLines_.push_back(line);
                onset.push_back(line);
            }
        }
        std::erase_if(convoyLines_, [&](Addr line) {
            LineState &ls = *lines_.find(line);
            if (!ls.hasQueueMax)
                ls.convoy = false;
            return !ls.convoy;
        });
        std::sort(onset.begin(), onset.end());
        for (Addr line : onset)
            fire("convoy", line, lines_.find(line)->queueMax,
                 convoyMinQueue, boundary);
    }

    // 3. Starvation: an open deferral's age crosses a threshold
    //    derived from the completed-wait distribution (starvationFactor
    //    x p99), floored at four epochs so sparse histograms cannot
    //    trip it on ordinary waits. One alert per (line, waiter), in
    //    (line, waiter) order.
    {
        double p99 = waitHist_.percentile(starvationPercentile);
        std::uint64_t thr = std::max<std::uint64_t>(
            4 * len_,
            starvationFactor * static_cast<std::uint64_t>(p99));
        std::vector<std::tuple<Addr, std::int16_t, Tick>> aged;
        state().forEachDeferral([&](const TxnState::Deferral &d) {
            if (boundary - d.start > thr)
                aged.emplace_back(d.line, d.waiter, d.start);
        });
        std::sort(aged.begin(), aged.end());
        for (const auto &[line, waiter, start] : aged) {
            bool &alerted = starvedAlerted_[pairKey(line, waiter)];
            if (!alerted) {
                alerted = true;
                fire("starvation", line, boundary - start, thr, boundary);
            }
        }
    }

    // 4. Throughput collapse: commits drop below 1/collapseFactor of
    //    the trailing mean while conflicts (restarts or deferrals)
    //    continue — progress stopped, activity did not.
    {
        std::uint64_t sum = std::accumulate(
            histCommits_.begin(), histCommits_.end(), std::uint64_t{0});
        std::uint64_t n = histCommits_.size();
        bool collapse = n > 0 && sum >= collapseMinCommits &&
                        row.commits * collapseFactor * n < sum &&
                        (row.restarts + row.defers) > 0;
        if (collapse && !collapseActive_)
            fire("throughput-collapse", row.hotLine, row.commits,
                 sum / (n * collapseFactor), boundary);
        collapseActive_ = collapse;
    }
}

void
EpochTimeline::fire(const std::string &kind, Addr line,
                    std::uint64_t value, std::uint64_t threshold,
                    Tick boundary)
{
    TimelineAlert a;
    a.kind = kind;
    a.epoch = cur_;
    a.line = line;
    a.value = value;
    a.threshold = threshold;
    a.chain = chainFrom(line, boundary);
    alerts_.push_back(std::move(a));
}

std::string
EpochTimeline::chainFrom(Addr line, Tick at) const
{
    // Follow the longest-pending deferral on `line`, then the owner's
    // own longest deferral, and so on, over the deferrals live at fire
    // time. (The explainer's chains answer a different question: they
    // follow each closed instance's longest deferral.) Ties go to the
    // lowest waiter on the first hop and the lowest line after it.
    std::string out;
    std::array<std::int16_t, maxChainHops> visited{};
    std::int16_t waiter = -1;
    for (unsigned hop = 0; hop < maxChainHops; ++hop) {
        const TxnState::Deferral *best = nullptr;
        state().forEachDeferral([&](const TxnState::Deferral &d) {
            if ((hop == 0 ? d.line == line : d.waiter == waiter) &&
                (!best || d.start < best->start))
                best = &d;
        });
        if (!best)
            break;
        if (std::find(visited.begin(), visited.begin() + hop,
                      best->waiter) != visited.begin() + hop)
            break; // wait cycle: stop rather than loop
        visited[hop] = best->waiter;
        if (!out.empty())
            out += " -> ";
        out += strfmt("cpu%d waits on cpu%d (line %#llx, %llut)",
                      best->waiter, best->owner,
                      static_cast<unsigned long long>(best->line),
                      static_cast<unsigned long long>(at - best->start));
        waiter = best->owner;
    }
    return out;
}

std::string
EpochTimeline::csv() const
{
    std::string out;
    out += strfmt("# tlr-timeline schema=%d epoch_len=%llu "
                  "final_tick=%llu epochs=%zu alerts=%zu\n",
                  timelineSchemaVersion,
                  static_cast<unsigned long long>(len_),
                  static_cast<unsigned long long>(finalTick_),
                  rows_.size(), alerts_.size());
    out += "epoch,start_tick,records,commits,restarts,fallbacks,"
           "elisions,quantum_ends,defers,services,orders,"
           "defer_wait_sum,defer_wait_count,defer_wait_max,"
           "max_defer_depth,max_queue,hot_line,hot_score\n";
    for (const EpochRow &e : rows_) {
        out += strfmt(
            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu,%#llx,%llu\n",
            static_cast<unsigned long long>(e.epoch),
            static_cast<unsigned long long>(e.startTick),
            static_cast<unsigned long long>(e.records),
            static_cast<unsigned long long>(e.commits),
            static_cast<unsigned long long>(e.restarts),
            static_cast<unsigned long long>(e.fallbacks),
            static_cast<unsigned long long>(e.elisions),
            static_cast<unsigned long long>(e.quantumEnds),
            static_cast<unsigned long long>(e.defers),
            static_cast<unsigned long long>(e.services),
            static_cast<unsigned long long>(e.orders),
            static_cast<unsigned long long>(e.deferWaitSum),
            static_cast<unsigned long long>(e.deferWaitCount),
            static_cast<unsigned long long>(e.deferWaitMax),
            static_cast<unsigned long long>(e.maxDeferDepth),
            static_cast<unsigned long long>(e.maxQueue),
            static_cast<unsigned long long>(e.hotLine),
            static_cast<unsigned long long>(e.hotScore));
    }
    for (const TimelineAlert &a : alerts_) {
        out += strfmt("alert,%s,%llu,%#llx,%llu,%llu,\"%s\"\n",
                      a.kind.c_str(),
                      static_cast<unsigned long long>(a.epoch),
                      static_cast<unsigned long long>(a.line),
                      static_cast<unsigned long long>(a.value),
                      static_cast<unsigned long long>(a.threshold),
                      a.chain.c_str());
    }
    return out;
}

std::string
EpochTimeline::json() const
{
    std::ostringstream os;
    os << "{\n";
    os << "    \"schema\": " << timelineSchemaVersion << ",\n";
    os << "    \"epoch_len\": " << len_ << ",\n";
    os << "    \"final_tick\": " << finalTick_ << ",\n";
    os << "    \"epochs\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
        const EpochRow &e = rows_[i];
        os << (i == 0 ? "\n" : ",\n");
        os << strfmt(
            "      {\"epoch\": %llu, \"start_tick\": %llu, "
            "\"records\": %llu, \"commits\": %llu, \"restarts\": %llu, "
            "\"fallbacks\": %llu, \"elisions\": %llu, "
            "\"quantum_ends\": %llu, \"defers\": %llu, "
            "\"services\": %llu, \"orders\": %llu, "
            "\"defer_wait_sum\": %llu, \"defer_wait_count\": %llu, "
            "\"defer_wait_max\": %llu, \"max_defer_depth\": %llu, "
            "\"max_queue\": %llu, \"hot_line\": %llu, "
            "\"hot_score\": %llu}",
            static_cast<unsigned long long>(e.epoch),
            static_cast<unsigned long long>(e.startTick),
            static_cast<unsigned long long>(e.records),
            static_cast<unsigned long long>(e.commits),
            static_cast<unsigned long long>(e.restarts),
            static_cast<unsigned long long>(e.fallbacks),
            static_cast<unsigned long long>(e.elisions),
            static_cast<unsigned long long>(e.quantumEnds),
            static_cast<unsigned long long>(e.defers),
            static_cast<unsigned long long>(e.services),
            static_cast<unsigned long long>(e.orders),
            static_cast<unsigned long long>(e.deferWaitSum),
            static_cast<unsigned long long>(e.deferWaitCount),
            static_cast<unsigned long long>(e.deferWaitMax),
            static_cast<unsigned long long>(e.maxDeferDepth),
            static_cast<unsigned long long>(e.maxQueue),
            static_cast<unsigned long long>(e.hotLine),
            static_cast<unsigned long long>(e.hotScore));
    }
    os << (rows_.empty() ? "],\n" : "\n    ],\n");
    os << "    \"alerts\": [";
    for (size_t i = 0; i < alerts_.size(); ++i) {
        const TimelineAlert &a = alerts_[i];
        os << (i == 0 ? "\n" : ",\n");
        os << strfmt("      {\"kind\": \"%s\", \"epoch\": %llu, "
                     "\"line\": %llu, \"value\": %llu, "
                     "\"threshold\": %llu, \"chain\": \"%s\"}",
                     a.kind.c_str(),
                     static_cast<unsigned long long>(a.epoch),
                     static_cast<unsigned long long>(a.line),
                     static_cast<unsigned long long>(a.value),
                     static_cast<unsigned long long>(a.threshold),
                     a.chain.c_str());
    }
    os << (alerts_.empty() ? "]\n  }" : "\n    ]\n  }");
    return os.str();
}

std::string
EpochTimeline::report() const
{
    std::string out;
    out += strfmt("-- timeline (epoch = %llu cycles, %zu epochs, "
                  "%zu alerts) --\n",
                  static_cast<unsigned long long>(len_), rows_.size(),
                  alerts_.size());
    const EpochRow *busiest = nullptr;
    for (const EpochRow &e : rows_)
        if (!busiest || e.records > busiest->records)
            busiest = &e;
    if (busiest && busiest->records > 0) {
        out += strfmt("  busiest epoch %llu: %llu commits, "
                      "%llu restarts, %llu defers (hot line %#llx)\n",
                      static_cast<unsigned long long>(busiest->epoch),
                      static_cast<unsigned long long>(busiest->commits),
                      static_cast<unsigned long long>(busiest->restarts),
                      static_cast<unsigned long long>(busiest->defers),
                      static_cast<unsigned long long>(busiest->hotLine));
    }
    if (alerts_.empty()) {
        out += "  (no alerts)\n";
        return out;
    }
    for (const TimelineAlert &a : alerts_) {
        out += strfmt("  [epoch %llu] %s: %llu vs threshold %llu on "
                      "line %#llx\n",
                      static_cast<unsigned long long>(a.epoch),
                      a.kind.c_str(),
                      static_cast<unsigned long long>(a.value),
                      static_cast<unsigned long long>(a.threshold),
                      static_cast<unsigned long long>(a.line));
        if (!a.chain.empty())
            out += strfmt("      chain: %s\n", a.chain.c_str());
    }
    return out;
}

} // namespace tlr
