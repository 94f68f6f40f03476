#include "explain/explain.hh"

#include <algorithm>
#include <array>
#include <map>

#include "sim/logging.hh"

namespace tlr
{

namespace
{

std::string
fmtU(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

template <typename Fn>
unsigned
Explainer::walkChain(const TxnInstance &t, Fn &&hop) const
{
    // At most maxChainHops instances are ever visited, so the cycle
    // check is a scan of a fixed array.
    std::array<std::pair<std::int16_t, std::uint64_t>, maxChainHops>
        visited;
    unsigned hops = 0;
    const TxnInstance *cur = &t;
    while (cur && hops < maxChainHops) {
        const std::pair<std::int16_t, std::uint64_t> key{cur->cpu,
                                                         cur->serial};
        if (std::find(visited.begin(), visited.begin() + hops, key) !=
            visited.begin() + hops)
            break; // wait cycle: stop rather than loop forever
        visited[hops] = key;
        if (cur->longestDeferSpan == 0 || cur->longestDeferOwner < 0)
            break;
        const TxnInstance *owner = path_.instanceAt(
            cur->longestDeferOwner, cur->longestDeferTick);
        hop(*cur, owner);
        ++hops;
        cur = owner;
    }
    return hops;
}

std::vector<ChainLink>
Explainer::chainFor(const TxnInstance &t) const
{
    std::vector<ChainLink> out;
    walkChain(t, [&](const TxnInstance &cur, const TxnInstance *owner) {
        ChainLink link;
        link.waiter = cur.name();
        link.owner = owner ? owner->name()
                           : "cpu" + std::to_string(cur.longestDeferOwner);
        link.ownerCpu = cur.longestDeferOwner;
        link.line = cur.longestDeferLine;
        link.waitTicks = cur.longestDeferSpan;
        out.push_back(link);
    });
    return out;
}

unsigned
Explainer::maxChainDepth() const
{
    unsigned best = 0;
    for (const TxnInstance &t : path_.instances())
        best = std::max(best, walkChain(t, [](const TxnInstance &,
                                              const TxnInstance *) {}));
    return best;
}

std::vector<const TxnInstance *>
Explainer::ranked(size_t k) const
{
    std::vector<const TxnInstance *> v;
    v.reserve(path_.instances().size());
    for (const TxnInstance &t : path_.instances())
        v.push_back(&t);
    k = std::min(k, v.size());
    std::partial_sort(v.begin(), v.begin() + static_cast<long>(k),
                      v.end(),
                      [](const TxnInstance *a, const TxnInstance *b) {
                          if (a->delay() != b->delay())
                              return a->delay() > b->delay();
                          return a->serial < b->serial;
                      });
    v.resize(k);
    return v;
}

std::string
Explainer::report(ExplainMode mode) const
{
    std::string s = "=== causal conflict explainer ===\n";
    std::uint64_t commits = 0, fallbacks = 0, restarts = 0;
    for (const TxnInstance &t : path_.instances()) {
        restarts += t.restarts;
        if (t.outcome == "commit")
            ++commits;
        else if (t.outcome.rfind("fallback:", 0) == 0)
            ++fallbacks;
    }
    std::uint64_t serviced = 0;
    for (const DeferEdge &e : graph_.edges())
        serviced += e.serviced ? 1 : 0;
    s += strfmt("instances=%zu commits=%llu fallbacks=%llu "
                "restarts=%llu\n",
                path_.instances().size(),
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(fallbacks),
                static_cast<unsigned long long>(restarts));
    s += strfmt("defer-edges=%zu (serviced=%llu) restart-edges=%zu "
                "wait-cycles=%zu convoy-lines=%zu\n",
                graph_.edges().size(),
                static_cast<unsigned long long>(serviced),
                graph_.restartEdges().size(), graph_.cycles().size(),
                graph_.convoyLines().size());
    s += strfmt("max causal chain depth: %u\n", maxChainDepth());

    if (mode == ExplainMode::Lock) {
        s += "\nper-lock/line contention (by total wait):\n";
        const std::map<Addr, LineContention> lines = graph_.lines();
        std::vector<std::pair<Addr, LineContention>> rows(lines.begin(),
                                                          lines.end());
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.waitTicks != b.second.waitTicks)
                          return a.second.waitTicks > b.second.waitTicks;
                      return a.first < b.first;
                  });
        unsigned n = 0;
        for (const auto &[addr, lc] : rows) {
            if (++n > topK_)
                break;
            s += strfmt("  line %#llx: defers=%llu (relaxed=%llu) "
                        "restarts=%llu wait=%llu ticks max-queue=%u\n",
                        static_cast<unsigned long long>(addr),
                        static_cast<unsigned long long>(lc.defers),
                        static_cast<unsigned long long>(
                            lc.relaxedDefers),
                        static_cast<unsigned long long>(lc.restarts),
                        static_cast<unsigned long long>(lc.waitTicks),
                        lc.maxQueue);
        }
        return s;
    }

    if (mode == ExplainMode::Cpu) {
        s += "\nper-cpu critical-path decomposition:\n";
        std::map<std::int16_t, TxnInstance> agg;
        std::map<std::int16_t, unsigned> count;
        for (const TxnInstance &t : path_.instances()) {
            TxnInstance &a = agg[t.cpu];
            a.execTicks += t.execTicks;
            a.deferTicks += t.deferTicks;
            a.missTicks += t.missTicks;
            a.redoTicks += t.redoTicks;
            a.restarts += t.restarts;
            ++count[t.cpu];
        }
        for (const auto &[cpu, a] : agg) {
            s += strfmt("  cpu%-2d: txns=%u exec=%llu defer=%llu "
                        "miss=%llu redo=%llu restarts=%u\n",
                        cpu, count[cpu],
                        static_cast<unsigned long long>(a.execTicks),
                        static_cast<unsigned long long>(a.deferTicks),
                        static_cast<unsigned long long>(a.missTicks),
                        static_cast<unsigned long long>(a.redoTicks),
                        a.restarts);
        }
        return s;
    }

    s += strfmt("\ntop %u delayed transactions:\n", topK_);
    std::vector<const TxnInstance *> v = ranked(topK_);
    unsigned n = 0;
    for (const TxnInstance *t : v) {
        if (t->delay() == 0)
            break;
        if (++n > topK_)
            break;
        s += strfmt("#%u %s lock=%#llx: total %llu ticks | exec %llu "
                    "defer %llu miss %llu redo %llu | restarts %u | %s\n",
                    n, t->name().c_str(),
                    static_cast<unsigned long long>(t->lock),
                    static_cast<unsigned long long>(t->total()),
                    static_cast<unsigned long long>(t->execTicks),
                    static_cast<unsigned long long>(t->deferTicks),
                    static_cast<unsigned long long>(t->missTicks),
                    static_cast<unsigned long long>(t->redoTicks),
                    t->restarts, t->outcome.c_str());
        if (t->restarts > 0 && t->lastRestartWinner >= 0) {
            s += strfmt("   restarted %ux, last lost to cpu%d\n",
                        t->restarts, t->lastRestartWinner);
        }
        std::vector<ChainLink> chain = chainFor(*t);
        std::string indent = "   ";
        for (const ChainLink &l : chain) {
            s += strfmt("%s%s waited %llu ticks for line %#llx held "
                        "by %s\n",
                        indent.c_str(), l.waiter.c_str(),
                        static_cast<unsigned long long>(l.waitTicks),
                        static_cast<unsigned long long>(l.line),
                        l.owner.c_str());
            indent += "  ";
        }
        if (chain.size() >= 2)
            s += strfmt("   chain depth %zu\n", chain.size());
    }
    if (n == 0)
        s += "  (no delayed transactions)\n";
    return s;
}

std::string
Explainer::json() const
{
    std::string s = "{\n";
    s += strfmt("  \"final_tick\": %llu,\n",
                static_cast<unsigned long long>(finalTick_));
    s += strfmt("  \"max_chain_depth\": %u,\n", maxChainDepth());

    s += "  \"instances\": [\n";
    const auto &inst = path_.instances();
    for (size_t i = 0; i < inst.size(); ++i) {
        const TxnInstance &t = inst[i];
        s += strfmt("    {\"name\": \"%s\", \"cpu\": %d, \"lock\": "
                    "%llu, \"begin\": %llu, \"end\": %llu, \"exec\": "
                    "%llu, \"defer\": %llu, \"miss\": %llu, \"redo\": "
                    "%llu, \"restarts\": %u, \"outcome\": \"%s\"}%s\n",
                    t.name().c_str(), t.cpu,
                    static_cast<unsigned long long>(t.lock),
                    static_cast<unsigned long long>(t.begin),
                    static_cast<unsigned long long>(t.end),
                    static_cast<unsigned long long>(t.execTicks),
                    static_cast<unsigned long long>(t.deferTicks),
                    static_cast<unsigned long long>(t.missTicks),
                    static_cast<unsigned long long>(t.redoTicks),
                    t.restarts, t.outcome.c_str(),
                    i + 1 < inst.size() ? "," : "");
    }
    s += "  ],\n";

    s += "  \"defer_edges\": [\n";
    const auto &edges = graph_.edges();
    for (size_t i = 0; i < edges.size(); ++i) {
        const DeferEdge &e = edges[i];
        s += strfmt("    {\"waiter\": %d, \"owner\": %d, \"line\": "
                    "%llu, \"start\": %llu, \"end\": %llu, "
                    "\"serviced\": %s, \"relaxed\": %s, \"cause\": "
                    "\"%s\"}%s\n",
                    e.waiter, e.owner,
                    static_cast<unsigned long long>(e.line),
                    static_cast<unsigned long long>(e.start),
                    static_cast<unsigned long long>(e.end),
                    e.serviced ? "true" : "false",
                    e.relaxed ? "true" : "false",
                    e.serviced ? serviceCauseName(e.cause) : "none",
                    i + 1 < edges.size() ? "," : "");
    }
    s += "  ],\n";

    s += "  \"restart_edges\": [\n";
    const auto &re = graph_.restartEdges();
    for (size_t i = 0; i < re.size(); ++i) {
        s += strfmt("    {\"loser\": %d, \"winner\": %d, \"line\": "
                    "%llu, \"tick\": %llu}%s\n",
                    re[i].loser, re[i].winner,
                    static_cast<unsigned long long>(re[i].line),
                    static_cast<unsigned long long>(re[i].tick),
                    i + 1 < re.size() ? "," : "");
    }
    s += "  ],\n";

    s += "  \"cycles\": [\n";
    const auto &cy = graph_.cycles();
    for (size_t i = 0; i < cy.size(); ++i) {
        s += "    {\"tick\": " + fmtU(cy[i].tick) + ", \"cpus\": [";
        for (size_t j = 0; j < cy[i].cpus.size(); ++j)
            s += (j ? ", " : "") + std::to_string(cy[i].cpus[j]);
        s += "]}";
        s += (i + 1 < cy.size() ? ",\n" : "\n");
    }
    s += "  ]\n}\n";
    return s;
}

} // namespace tlr
