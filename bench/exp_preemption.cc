/**
 * @file
 * Stability experiment (paper Section 4): behavior under OS
 * de-scheduling. The paper argues locks interact poorly with thread
 * scheduling — if the lock owner is preempted, every thread waiting
 * for that lock stalls for the whole scheduling quantum — while TLR
 * is non-blocking: a preempted transaction aborts, the lock (never
 * acquired) stays free, and the remaining threads keep committing.
 *
 * This bench preempts cores round-robin at a fixed period and sweeps
 * the quantum length. BASE/MCS degrade with the quantum (lock-holder
 * convoying); TLR is nearly insensitive.
 */

#include "bench_common.hh"

#include <algorithm>

#include "workloads/micro.hh"

using namespace tlr;
using namespace tlrbench;

namespace
{

constexpr int kProcs = 8;

const std::vector<Tick> kQuanta{0, 1000, 4000, 16000};

RunStats
runOne(Scheme s, Tick quantum)
{
    MicroParams p;
    p.numCpus = kProcs;
    p.lockKind = schemeLockKind(s);
    p.totalOps = 1024 * envScale();

    MachineParams mp;
    mp.numCpus = kProcs;
    mp.spec = schemeSpecConfig(s);
    if (quantum > 0) {
        // Bound the suspended fraction (at most half of one core of
        // eight off-cpu at a time) while preemptions keep landing
        // throughout the run.
        mp.preemptEvery = std::max<Tick>(5000, 2 * quantum);
        mp.preemptQuantum = quantum;
    }
    return runWorkload(mp, makeSingleCounter(p), s);
}

std::string
key(Scheme s, Tick q)
{
    return std::string("preempt/") + schemeName(s) + "/q" +
           std::to_string(q);
}

void
registerAll()
{
    for (Scheme s : {Scheme::Base, Scheme::Mcs, Scheme::BaseSleTlr})
        for (Tick q : kQuanta)
            registerSim(key(s, q), [s, q] { return runOne(s, q); });
}

void
printTable()
{
    std::printf("\n=== Section 4: stability under OS preemption, %d "
                "processors, single-counter ===\n",
                kProcs);
    Table t({"quantum", "BASE", "MCS", "BASE+SLE+TLR",
             "TLR slowdown vs no-preempt"});
    const RunStats &tlr0 =
        results().at(key(Scheme::BaseSleTlr, kQuanta.front()));
    for (Tick q : kQuanta) {
        const RunStats &b = results().at(key(Scheme::Base, q));
        const RunStats &m = results().at(key(Scheme::Mcs, q));
        const RunStats &r = results().at(key(Scheme::BaseSleTlr, q));
        t.addRow({q == 0 ? "none" : std::to_string(q),
                  Table::num(b.cycles) + (b.valid ? "" : " INVALID"),
                  Table::num(m.cycles) + (m.valid ? "" : " INVALID"),
                  Table::num(r.cycles) + (r.valid ? "" : " INVALID"),
                  Table::num(tlr0.cycles
                                 ? static_cast<double>(r.cycles) /
                                       static_cast<double>(tlr0.cycles)
                                 : 0.0)});
    }
    std::printf("%s", t.str().c_str());
    std::printf("(execution cycles; preempting a BASE/MCS lock holder "
                "stalls everyone for the quantum — TLR transactions "
                "abort, leave the lock free and retry: non-blocking "
                "behavior, paper Section 4)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, registerAll, printTable);
}
