/**
 * @file
 * The one run path: simulate() installs a workload on a built system,
 * runs it to completion and collects the metrics the paper reports;
 * runWorkload() builds that system, applies the TLR_* environment
 * hooks and files the TLR_REPORT bundle.
 */

#ifndef TLR_HARNESS_RUNNER_HH
#define TLR_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>

#include "harness/scheme.hh"
#include "harness/system.hh"
#include "report/bundle.hh"
#include "workloads/workload.hh"

namespace tlr
{

/** Metrics gathered from one simulation run. */
struct RunStats
{
    bool completed = false; ///< all cores halted before maxTicks
    bool valid = false;     ///< workload validation passed
    Tick cycles = 0;        ///< parallel execution time (paper y-axes)

    std::uint64_t commits = 0;
    std::uint64_t elisions = 0;
    std::uint64_t restarts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t defers = 0;
    std::uint64_t relaxedDefers = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t markerMsgs = 0;
    std::uint64_t probeMsgs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t writeBufferAborts = 0;
    std::uint64_t preemptions = 0; ///< OS preemptions of a running core

    /** @{ observability (populated when tracing/checking enabled) */
    std::uint64_t traceRecords = 0;        ///< events emitted by the sink
    std::uint64_t invariantViolations = 0; ///< checker hits (keep-going)
    /** Full metrics snapshot (latency histograms, lock contention,
     *  interconnect traffic); null unless MachineParams::collectMetrics
     *  was set. Shared so RunStats stays cheaply copyable in sweeps. */
    std::shared_ptr<const MetricsSnapshot> metrics;
    /** Causal-conflict report (explain subsystem); null unless
     *  MachineParams::explain was set. Shared for the same reason as
     *  metrics: RunStats must stay cheaply copyable in sweeps. */
    std::shared_ptr<const std::string> explainReport;
    /** Epoch-timeline digest (src/timeline/); null unless
     *  MachineParams::timelineEpoch was set. Shared for the same
     *  reason as metrics. */
    std::shared_ptr<const std::string> timelineReport;
    /** @} */

    /** Host-side: kernel events the run executed (events/sec metric;
     *  a function of the config only, so still deterministic). */
    std::uint64_t kernelEvents = 0;

    /** Per-cpu time integrals for the Figure 11 breakdown. */
    std::uint64_t lockCycles = 0;     ///< stalls on lock variables
    std::uint64_t dataStallCycles = 0;
    std::uint64_t busyCycles = 0;

    /** Fraction of aggregate cpu time spent on lock accesses. */
    double
    lockFraction(int num_cpus) const
    {
        double total = static_cast<double>(cycles) * num_cpus;
        return total > 0 ? static_cast<double>(lockCycles) / total : 0.0;
    }
};

/** Install @p wl on @p sys, run it until every core halts or the
 *  watchdog expires, validate it and fill every RunStats field.
 *  runWorkload() and tlrsim run every simulation through it. */
RunStats simulate(System &sys, const Workload &wl);

/** The --stats-json document of a finished run: every counter, plus
 *  the "metrics" and "timeline" sections when @p sys carries those
 *  listeners. */
std::string statsDocument(System &sys);

/** The run-bundle manifest fields of run @p r of @p workload on
 *  @p mp, filed under @p scheme. Workload sizes (ops, theta, keys,
 *  partitions) and the host's jobs are left to the caller. */
BundleMeta bundleMeta(const MachineParams &mp, const std::string &workload,
                      const std::string &scheme, const RunStats &r);

/** Run @p wl on a machine configured by @p mp. TLR_METRICS,
 *  TLR_EXPLAIN and TLR_TIMELINE add their listeners, and TLR_REPORT
 *  files a bundle under the scheme label that @p mp's spec flags
 *  name. */
RunStats runWorkload(const MachineParams &mp, const Workload &wl);

/** runWorkload, filing the TLR_REPORT bundle under
 *  schemeName(@p scheme): MCS has BASE's spec flags, so only the
 *  caller can name it. */
RunStats runWorkload(const MachineParams &mp, const Workload &wl,
                     Scheme scheme);

/** Convenience: configure the machine for @p scheme and run it as
 *  runWorkload does, filing a TLR_REPORT bundle under
 *  schemeName(@p scheme). */
RunStats runScheme(Scheme scheme, int num_cpus, const Workload &wl,
                   Tick max_ticks = 2'000'000'000ull);

/** Workload-scale multiplier from the TLR_SCALE environment variable
 *  (default 1): lets users regenerate paper-sized runs. */
std::uint64_t envScale();

/** Ledger directory from the TLR_REPORT environment variable ("" =
 *  off, the default): runWorkload() then appends a run bundle (see
 *  src/report/bundle.hh) for every simulation it executes, so bench
 *  and experiment binaries produce tlrreport-renderable flight
 *  reports without new flags. */
std::string envReportDir();

} // namespace tlr

#endif // TLR_HARNESS_RUNNER_HH
