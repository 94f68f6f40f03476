/**
 * @file
 * Reproduces the paper's Figure 2 vs Figure 4 demonstration: two
 * processors write locations A and B in opposite orders inside the
 * same critical section.
 *
 *  - Restart-only speculation (SLE with an unbounded retry budget)
 *    livelocks: both processors keep restarting each other and no
 *    critical section ever commits (Figure 2).
 *  - Standard SLE stays correct by giving up and acquiring the lock.
 *  - TLR resolves the conflicts with timestamps and completes
 *    lock-free (Figure 4).
 */

#include "bench_common.hh"

#include "workloads/scenarios.hh"

using namespace tlr;
using namespace tlrbench;

namespace
{

constexpr std::uint64_t kIters = 200;
constexpr Tick kHorizon = 5'000'000;

RunStats
runVariant(const std::string &name)
{
    MachineParams mp;
    mp.numCpus = 2;
    mp.maxTicks = kHorizon;
    if (name == "restart-only") {
        mp.spec = schemeSpecConfig(Scheme::BaseSle);
        mp.spec.sleMaxRetries = 1'000'000'000; // never give up: Fig. 2
        mp.spec.specMaxCycles = 1'000'000'000; // no quantum escape
    } else if (name == "sle") {
        mp.spec = schemeSpecConfig(Scheme::BaseSle);
    } else {
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    }
    return runWorkload(mp, makeReverseWriters(2, kIters * envScale()));
}

void
registerAll()
{
    for (const char *v : {"restart-only", "sle", "tlr"})
        registerSim(std::string("livelock/") + v,
                    [v] { return runVariant(v); });
}

void
printTable()
{
    std::printf("\n=== Figures 2 and 4: reverse-order writers, 2 "
                "processors, %llu critical sections each ===\n",
                static_cast<unsigned long long>(kIters * envScale()));
    Table t({"variant", "completed", "commits", "restarts", "fallbacks",
             "cycles"});
    for (const char *v : {"restart-only", "sle", "tlr"}) {
        const RunStats &r = results().at(std::string("livelock/") + v);
        t.addRow({v, r.completed ? "yes" : "NO (livelock)",
                  Table::num(r.commits), Table::num(r.restarts),
                  Table::num(r.fallbacks),
                  r.completed ? Table::num(r.cycles) : "-"});
    }
    std::printf("%s", t.str().c_str());
    std::printf("(restart-only speculation must livelock — Figure 2; "
                "TLR completes lock-free — Figure 4; plain SLE "
                "completes by acquiring the lock)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, registerAll, printTable);
}
