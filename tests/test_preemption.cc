/**
 * @file
 * Stability under OS de-scheduling (paper Section 4).
 *
 * TLR makes critical sections restartable and non-blocking: if the OS
 * preempts a thread mid-transaction, the speculative updates are
 * discarded and the lock — which was never acquired — stays free, so
 * every other thread keeps making progress. Under BASE, preempting a
 * thread that holds the lock stalls the whole machine for the entire
 * scheduling quantum.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "trace_digest.hh"
#include "workloads/micro.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

/** Preempt core k mod @p cpus at tick k * @p preempt_every for
 *  @p duration cycles, k = 1, 2, ...: until every core has halted, or
 *  for the first @p bound periods only when @p bound > 0. */
RunStats
runWithPreemptions(Scheme scheme, int cpus, std::uint64_t ops,
                   Tick preempt_every, Tick duration, Tick bound = 0)
{
    MicroParams p;
    p.numCpus = cpus;
    p.lockKind = schemeLockKind(scheme);
    p.totalOps = ops;
    Workload wl = makeSingleCounter(p);

    MachineParams mp;
    mp.numCpus = cpus;
    mp.spec = schemeSpecConfig(scheme);
    mp.maxTicks = 500'000'000ull;
    if (bound == 0) {
        mp.preemptEvery = preempt_every;
        mp.preemptQuantum = duration;
    }
    System sys(mp);
    for (Tick k = 1; k <= bound; ++k)
        sys.preemptCore(static_cast<int>(k % static_cast<Tick>(cpus)),
                        k * preempt_every, duration);
    return simulate(sys, wl);
}

/** Run @p workload under @p scheme on 8 cpus, preempting core k mod 8
 *  at tick k * @p every for @p quantum cycles: through MachineParams
 *  when @p viaParams, else as an explicit preemptCore loop queued
 *  before the run up to the watchdog, well past the last halt.
 *  @return the completion tick, the trace digest and every counter. */
std::string
runPreempted(const char *workload, Scheme scheme, Protocol protocol,
             Tick every, Tick quantum, bool viaParams)
{
    constexpr int cpus = 8;
    MachineParams mp;
    mp.numCpus = cpus;
    mp.protocol = protocol;
    mp.spec = schemeSpecConfig(scheme);
    mp.seed = 2;
    mp.maxTicks = 1'000'000;
    if (viaParams) {
        mp.preemptEvery = every;
        mp.preemptQuantum = quantum;
    }
    WorkloadParams wp;
    wp.numCpus = cpus;
    wp.ops = 64;
    wp.seed = mp.seed;
    wp.lockKind = schemeLockKind(scheme);

    System sys(mp);
    DigestListener dig;
    sys.addTraceListener(&dig);
    for (Tick k = 1; !viaParams && k * every < mp.maxTicks; ++k)
        sys.preemptCore(static_cast<int>(k % cpus), k * every, quantum);
    RunStats r = simulate(sys, makeRegisteredWorkload(workload, wp));
    EXPECT_TRUE(r.completed);
    return "cycles " + std::to_string(r.cycles) + ", trace digest " +
           std::to_string(dig.h) + "\n" + sys.stats().dump("");
}

} // namespace

TEST(Preemption, ParamsScheduleMatchesAnExplicitPreemptCoreLoop)
{
    // MachineParams' chained schedule fires each preemption at
    // EventPrio::Preempt, where a preemption queued before the run
    // fired among its tick's events, and stops once every core has
    // halted. Neither may move the simulated machine. Period 300 on
    // reverse-writers/tlr/directory is where a chain at
    // EventPrio::Default reorders events.
    const Tick periods[][2] = {{2000, 500}, {300, 200}, {97, 31}};
    for (const char *w : {"single-counter", "reverse-writers", "dlist"})
        for (Scheme s :
             {Scheme::BaseSle, Scheme::BaseSleTlr, Scheme::TlrStrictTs})
            for (Protocol p : {Protocol::Broadcast, Protocol::Directory})
                for (const auto &[every, quantum] : periods)
                    EXPECT_EQ(runPreempted(w, s, p, every, quantum, true),
                              runPreempted(w, s, p, every, quantum, false))
                        << w << " " << schemeName(s)
                        << (p == Protocol::Directory ? " directory"
                                                     : " broadcast")
                        << " every " << every;
}

TEST(Preemption, E9Section4TlrShrugsOffPreemptionWhileMcsConvoys)
{
    // Claim E9 (paper Section 4) at exp_preemption's sizes: a
    // preempted TLR transaction aborts and leaves its lock free, so
    // TLR stays within 1.2x of its unpreempted run, while preempting
    // an MCS lock holder stalls every waiter for the quantum. Each
    // claimed cell must actually have been preempted: at quantum
    // 16000 the 32000-cycle period outlasts the whole TLR run.
    auto run = [](Scheme s, Tick quantum) {
        RunStats r = runWithPreemptions(
            s, 8, 1024, quantum ? std::max<Tick>(5000, 2 * quantum) : 0,
            quantum);
        EXPECT_TRUE(r.completed && r.valid) << schemeName(s) << quantum;
        return r;
    };
    const RunStats tlr0 = run(Scheme::BaseSleTlr, 0);
    for (Tick q : {Tick{1000}, Tick{4000}}) {
        const RunStats tlr = run(Scheme::BaseSleTlr, q);
        EXPECT_GT(tlr.preemptions, 0u) << "quantum " << q;
        EXPECT_LE(static_cast<double>(tlr.cycles),
                  1.2 * static_cast<double>(tlr0.cycles))
            << "quantum " << q;
    }
    const RunStats mcs0 = run(Scheme::Mcs, 0);
    const RunStats mcs = run(Scheme::Mcs, 16000);
    EXPECT_GT(mcs.preemptions, 0u);
    EXPECT_GE(static_cast<double>(mcs.cycles),
              1.5 * static_cast<double>(mcs0.cycles));
}

TEST(Preemption, CorrectUnderEveryScheme)
{
    for (Scheme s : {Scheme::Base, Scheme::BaseSle, Scheme::BaseSleTlr,
                     Scheme::Mcs}) {
        RunStats r = runWithPreemptions(s, 4, 256, 1500, 3000);
        EXPECT_TRUE(r.completed) << schemeName(s);
        EXPECT_TRUE(r.valid) << schemeName(s);
    }
}

TEST(Preemption, TlrTransactionAbortsAndLockStaysFree)
{
    // With preemptions hitting mid-transaction, the TLR run must show
    // preemption-induced aborts and still commit everything lock-free.
    MicroParams p;
    p.numCpus = 4;
    p.totalOps = 256;
    Workload wl = makeSingleCounter(p);
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.maxTicks = 500'000'000ull;
    System sys(mp);
    installWorkload(sys, wl);
    for (int k = 1; k <= 100; ++k)
        sys.preemptCore(k % 4, static_cast<Tick>(k) * 700, 2000);
    ASSERT_TRUE(sys.run());
    EXPECT_TRUE(wl.validate(sys));
    EXPECT_GT(sys.stats().sum("spec", "abort.preempted"), 0u);
    EXPECT_GT(sys.stats().sum("core", "preemptions"), 0u);
}

TEST(Preemption, NonBlockingBeatsLockHolderPreemption)
{
    // The paper's stability claim, measured: preempting threads is far
    // cheaper under TLR (the victim aborts; others proceed) than under
    // BASE (the victim may sit on the lock for the whole quantum). A
    // burst of 200: a 20000-cycle quantum every 2500 cycles keeps all
    // four cores suspended for as long as it lasts.
    const Tick quantum = 20000;
    RunStats base =
        runWithPreemptions(Scheme::Base, 4, 512, 2500, quantum, 200);
    RunStats tlr =
        runWithPreemptions(Scheme::BaseSleTlr, 4, 512, 2500, quantum, 200);
    ASSERT_TRUE(base.completed && base.valid);
    ASSERT_TRUE(tlr.completed && tlr.valid);
    EXPECT_LT(tlr.cycles, base.cycles);
}

TEST(Preemption, SuspendedCoreResumesMidInstruction)
{
    // A preemption landing while a core waits on a miss must replay
    // the instruction cleanly after resume.
    MicroParams p;
    p.numCpus = 2;
    p.totalOps = 64;
    Workload wl = makeSingleCounter(p);
    MachineParams mp;
    mp.numCpus = 2;
    mp.spec = schemeSpecConfig(Scheme::Base);
    System sys(mp);
    installWorkload(sys, wl);
    for (Tick t = 50; t < 20000; t += 97)
        sys.preemptCore(static_cast<int>(t / 97) % 2, t, 31);
    ASSERT_TRUE(sys.run());
    EXPECT_TRUE(wl.validate(sys));
}
