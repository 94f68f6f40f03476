/**
 * @file
 * Host-performance benchmark for the simulation kernel — the repo's
 * perf-trajectory artifact (BENCH_kernel.json).
 *
 * Measures, on the host (nothing here is simulated time):
 *   1. raw kernel events/sec with small (16 B) captures — the core
 *      tick path;
 *   2. raw kernel events/sec with DataMsg-sized (~96 B) captures —
 *      the data-network path, still inline in the event node;
 *   3. full-simulation events/sec and sims/sec (single-counter, TLR,
 *      8 cpus);
 *   4. a fig08-style sweep serially and with --jobs=4 via runSweep();
 *   5. kernel allocation counters: pool chunk mallocs and spilled
 *      (heap-allocated) captures — steady state should be zero
 *      spills and a handful of chunks.
 *
 * Usage: bench_kernel [--json=FILE] [--quick]
 * CI runs this and uploads the JSON; compare events/sec across
 * commits to catch host-performance regressions. host_threads records
 * the machine's concurrency, which bounds the --jobs=4 sweep speedup.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/build_info.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace tlr;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// 1. Pure kernel: N self-rescheduling events with a small capture.
double
kernelSmall(std::uint64_t events)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    auto t0 = Clock::now();
    std::function<void()> chain = [&] {
        if (++fired < events)
            eq.scheduleIn(1 + (fired & 7), chain, EventPrio::CoreTick);
    };
    eq.schedule(0, chain);
    eq.run();
    return static_cast<double>(fired) / secondsSince(t0);
}

// 2. Kernel with a DataMsg-sized (96-byte) capture per event; fits
// the node's inline storage, so still allocation-free.
struct Payload
{
    std::uint64_t words[11];
};

double
kernelLarge(std::uint64_t events, std::uint64_t *spills_out)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t sink = 0;
    Payload p{};
    auto t0 = Clock::now();
    std::function<void()> chain = [&] {
        ++fired;
        Payload q = p;
        q.words[0] = fired;
        eq.scheduleIn(3, [&eq, &sink, q] { sink += q.words[0]; },
                      EventPrio::DataResponse);
        if (fired < events)
            eq.scheduleIn(2, chain, EventPrio::CoreTick);
    };
    eq.schedule(0, chain);
    eq.run();
    double rate = static_cast<double>(fired * 2) / secondsSince(t0);
    *spills_out = eq.kernelStats().spilledEvents;
    (void)sink;
    return rate;
}

// 3. Full simulation: events/sec and sims/sec over repeated runs.
void
fullSim(int reps, double *events_per_sec, double *sims_per_sec,
        std::uint64_t *events_out, EventQueue::KernelStats *kstats_out)
{
    MicroParams p;
    p.numCpus = 8;
    p.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    p.totalOps = 1024;
    std::uint64_t events = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
        MachineParams mp;
        mp.numCpus = 8;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        System sys(mp);
        installWorkload(sys, makeSingleCounter(p));
        sys.run();
        events += sys.eventQueue().executed();
        if (i == reps - 1)
            *kstats_out = sys.eventQueue().kernelStats();
    }
    double dt = secondsSince(t0);
    *events_per_sec = static_cast<double>(events) / dt;
    *sims_per_sec = reps / dt;
    *events_out = events;
}

// 4. fig08-style sweep: multiple-counter grid, serial vs jobs=4.
std::vector<SweepTask>
sweepTasks(std::uint64_t ops)
{
    std::vector<SweepTask> tasks;
    for (Scheme s : {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
                     Scheme::BaseSleTlr}) {
        for (int n : {2, 4, 8, 12}) {
            MicroParams p;
            p.numCpus = n;
            p.lockKind = schemeLockKind(s);
            p.totalOps = ops;
            MachineParams mp;
            mp.numCpus = n;
            mp.spec = schemeSpecConfig(s);
            tasks.push_back(makeSweepTask(
                std::string(schemeName(s)) + "/p" + std::to_string(n),
                mp, makeMultipleCounter(p)));
        }
    }
    return tasks;
}

double
sweepWall(const std::vector<SweepTask> &tasks, unsigned jobs)
{
    auto t0 = Clock::now();
    runSweep(tasks, jobs);
    return secondsSince(t0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonFile;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonFile = argv[i] + 7;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::fprintf(stderr,
                         "usage: bench_kernel [--json=FILE] [--quick]\n");
            return 1;
        }
    }
    const std::uint64_t smallN = quick ? 400'000 : 4'000'000;
    const std::uint64_t largeN = quick ? 100'000 : 1'000'000;
    const int simReps = quick ? 5 : 40;
    const std::uint64_t sweepOps = quick ? 512 : 2048;

    double evSmall = kernelSmall(smallN);
    std::uint64_t largeSpills = 0;
    double evLarge = kernelLarge(largeN, &largeSpills);
    double simEv = 0, simsPs = 0;
    std::uint64_t simEvents = 0;
    EventQueue::KernelStats ks{};
    fullSim(simReps, &simEv, &simsPs, &simEvents, &ks);
    std::vector<SweepTask> tasks = sweepTasks(sweepOps);
    double sweepSerial = sweepWall(tasks, 1);
    double sweepJobs4 = sweepWall(tasks, 4);

    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema_version\": %d,\n"
        "  \"kernel_small_events_per_sec\": %.0f,\n"
        "  \"kernel_large_events_per_sec\": %.0f,\n"
        "  \"kernel_large_spilled_captures\": %llu,\n"
        "  \"sim_events_per_sec\": %.0f,\n"
        "  \"sims_per_sec\": %.2f,\n"
        "  \"sim_events_total\": %llu,\n"
        "  \"sim_pool_chunks\": %llu,\n"
        "  \"sim_spilled_captures\": %llu,\n"
        "  \"sim_inline_captures\": %llu,\n"
        "  \"sweep_fig08_serial_sec\": %.3f,\n"
        "  \"sweep_fig08_jobs4_sec\": %.3f,\n"
        "  \"host_threads\": %u\n"
        "}\n",
        statsSchemaVersion, evSmall, evLarge,
        static_cast<unsigned long long>(largeSpills), simEv, simsPs,
        static_cast<unsigned long long>(simEvents),
        static_cast<unsigned long long>(ks.poolChunks),
        static_cast<unsigned long long>(ks.spilledEvents),
        static_cast<unsigned long long>(ks.inlineEvents), sweepSerial,
        sweepJobs4, defaultJobs());
    std::fputs(buf, stdout);
    if (!jsonFile.empty()) {
        std::ofstream out(jsonFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonFile.c_str());
            return 1;
        }
        out << buf;
    }
    return 0;
}
