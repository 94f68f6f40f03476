/**
 * @file
 * Stability example (paper Sections 2.1.1, 4 and Figures 2/4):
 * livelock freedom, starvation freedom and graceful resource
 * fallback.
 *
 * Part 1 — conflict resolution: two processors write two locations in
 * opposite orders inside the same critical section. Restart-only
 * speculation (SLE whose retry budget never runs out) livelocks;
 * TLR's timestamps resolve every conflict and both processors finish.
 *
 * Part 2 — fairness: under TLR, the per-processor commit counts are
 * exactly equal and every logical clock advanced — nobody starved,
 * because a restarting processor keeps its timestamp until it wins.
 *
 * Part 3 — resource constraints: a critical section writing more
 * unique lines than the speculative write buffer holds cannot run
 * lock-free; TLR falls back to really acquiring the lock and the
 * result is still correct (the paper's conditional guarantee).
 *
 * Build & run:  ./build/examples/stability
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "workloads/scenarios.hh"

using namespace tlr;

int
main()
{
    // ---- Part 1: Figure 2 vs Figure 4 ------------------------------
    std::printf("Part 1: reverse-order writers (paper Figures 2/4)\n");
    {
        MachineParams mp;
        mp.numCpus = 2;
        mp.spec = schemeSpecConfig(Scheme::BaseSle);
        mp.spec.sleMaxRetries = 1'000'000'000; // restart forever
        mp.maxTicks = 2'000'000;
        RunStats r = runWorkload(mp, makeReverseWriters(2, 100));
        std::printf("  restart-only speculation: completed=%s after "
                    "%llu restarts -> livelock (Figure 2)\n",
                    r.completed ? "yes?!" : "no",
                    static_cast<unsigned long long>(r.restarts));
    }
    {
        RunStats r = runScheme(Scheme::BaseSleTlr, 2,
                               makeReverseWriters(2, 100));
        std::printf("  TLR:                      completed=%s, "
                    "%llu commits, 0 lock acquisitions (Figure 4)\n\n",
                    r.completed && r.valid ? "yes" : "NO",
                    static_cast<unsigned long long>(r.commits));
    }

    // ---- Part 2: starvation freedom --------------------------------
    std::printf("Part 2: fairness across 8 contending processors\n");
    {
        const int cpus = 8;
        MachineParams mp;
        mp.numCpus = cpus;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        System sys(mp);
        RunStats r = simulate(sys, makeRotatedBlocks(cpus, 64));
        std::printf("  completed=%s valid=%s; per-cpu commits:",
                    r.completed ? "yes" : "NO", r.valid ? "yes" : "NO");
        for (int c = 0; c < cpus; ++c)
            std::printf(" %llu",
                        static_cast<unsigned long long>(sys.stats().get(
                            "spec" + std::to_string(c), "commits")));
        std::printf("\n  (equal counts: every processor eventually "
                    "wins — timestamps are retained across restarts)\n"
                    "\n");
    }

    // ---- Part 3: resource fallback ---------------------------------
    std::printf("Part 3: conditional guarantee under resource "
                "limits\n");
    for (unsigned wbLines : {2u, 64u}) {
        MachineParams mp;
        mp.numCpus = 4;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        mp.spec.writeBufferLines = wbLines;
        // Each critical section of rotated-blocks writes 3 lines.
        RunStats r = runWorkload(mp, makeRotatedBlocks(4, 64));
        std::printf("  write buffer = %2u lines: valid=%s commits=%llu "
                    "lock fallbacks=%llu\n",
                    wbLines, r.valid ? "yes" : "NO",
                    static_cast<unsigned long long>(r.commits),
                    static_cast<unsigned long long>(r.fallbacks));
    }
    std::printf("  (too-small buffer: execution stays correct but "
                "falls back to the lock;\n   the paper's wait-free "
                "guarantee is conditional on transaction footprint)\n");
    return 0;
}
