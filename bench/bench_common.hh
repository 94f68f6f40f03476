/**
 * @file
 * Shared scaffolding for the figure-reproduction benchmarks: each
 * bench binary registers one simulation per (scheme, x-value)
 * configuration, runs the whole grid once through runSweep
 * (harness/sweep.hh) on `--jobs` host threads, and prints the
 * paper-style tables from the results.
 *
 * The tables are simulated cycles only, so stdout is a pure function
 * of the configuration: the same for every `--jobs` value. Host time
 * is measured by tlrbench/, not here.
 */

#ifndef TLR_BENCH_COMMON_HH
#define TLR_BENCH_COMMON_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "metrics/collector.hh"

namespace tlrbench
{

using tlr::RunStats;
using tlr::Scheme;

/** Simulation results keyed by config string. benchMain fills it on
 *  the main thread once the sweep is done; table printers read it. */
inline std::map<std::string, RunStats> &
results()
{
    static std::map<std::string, RunStats> r;
    return r;
}

/** Every simulation registered by this binary, in registration order. */
inline std::vector<tlr::SweepTask> &
sweepTasks()
{
    static std::vector<tlr::SweepTask> t;
    return t;
}

/** Register one simulation; its result lands in results()[name]. */
inline void
registerSim(const std::string &name, std::function<RunStats()> fn)
{
    sweepTasks().push_back({name, std::move(fn)});
}

/** The four schemes every microbenchmark figure compares. */
inline std::vector<Scheme>
microSchemes()
{
    return {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
            Scheme::BaseSleTlr};
}

/** Processor counts on the x-axis of Figures 8-10. */
inline std::vector<int>
procCounts()
{
    return {2, 4, 6, 8, 10, 12, 14, 16};
}

/** Canonical results() key for a (figure, scheme, cpu-count) cell. */
inline std::string
gridKey(const std::string &prefix, Scheme s, int procs)
{
    return prefix + tlr::schemeName(s) + "/p" + std::to_string(procs);
}

/** Register the full scheme × processor-count grid of one figure. */
inline void
registerSchemeGrid(const std::string &prefix,
                   const std::vector<Scheme> &schemes,
                   const std::vector<int> &procs,
                   const std::function<RunStats(Scheme, int)> &runOne)
{
    for (Scheme s : schemes)
        for (int n : procs)
            registerSim(gridKey(prefix, s, n),
                        [s, n, runOne] { return runOne(s, n); });
}

/** Optional extra per-row column for printSchemeGrid. */
struct GridExtraCol
{
    std::string header;
    std::function<std::string(int procs)> value;
};

/**
 * Print the standard figure table: one row per processor count, one
 * "cycles (INVALID?)" column per scheme, plus any extra columns.
 * Shared by fig08/fig09/fig10 (satellite: the per-figure printers
 * used to copy this loop verbatim).
 */
inline void
printSchemeGrid(const std::string &title, const std::string &prefix,
                const std::vector<Scheme> &schemes,
                const std::vector<int> &procs, const std::string &footer,
                const std::vector<GridExtraCol> &extras = {})
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::vector<std::string> head{"procs"};
    for (Scheme s : schemes)
        head.push_back(tlr::schemeName(s));
    for (const GridExtraCol &c : extras)
        head.push_back(c.header);
    tlr::Table t(head);
    for (int n : procs) {
        std::vector<std::string> row{std::to_string(n)};
        for (Scheme s : schemes) {
            const RunStats &r = results().at(gridKey(prefix, s, n));
            row.push_back(tlr::Table::num(r.cycles) +
                          (r.valid ? "" : " INVALID"));
        }
        for (const GridExtraCol &c : extras)
            row.push_back(c.value(n));
        t.addRow(row);
    }
    std::printf("%s", t.str().c_str());
    if (!footer.empty())
        std::printf("%s\n", footer.c_str());
}

/**
 * One-line latency/contention digest per config, printed when
 * the runs carried metrics (TLR_METRICS=1 makes runWorkload() attach
 * a MetricsCollector). Silent otherwise, so default bench output is
 * unchanged.
 */
inline void
maybePrintMetricsTable()
{
    bool any = false;
    for (const auto &[key, r] : results())
        if (r.metrics)
            any = true;
    if (!any)
        return;
    std::printf("\n=== metrics digest (TLR_METRICS) ===\n");
    tlr::Table t({"config", "cs p50", "cs p90", "cs p99", "defer p99",
                  "restarts", "abort%", "hottest lock"});
    for (const auto &[key, r] : results()) {
        if (!r.metrics)
            continue;
        const tlr::MetricsSnapshot &m = *r.metrics;
        auto pct = [](const tlr::Histogram &h, double p) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.0f", h.percentile(p));
            return std::string(buf);
        };
        char abt[32];
        std::snprintf(abt, sizeof(abt), "%.1f", 100.0 * m.abortRate());
        const auto [hotAddr, hotCont] = m.hottestLock();
        char hot[48];
        std::snprintf(hot, sizeof(hot), "%#llx (%llu)",
                      static_cast<unsigned long long>(hotAddr),
                      static_cast<unsigned long long>(hotCont));
        t.addRow({key, pct(m.csLatency, 50), pct(m.csLatency, 90),
                  pct(m.csLatency, 99), pct(m.deferWait, 99),
                  tlr::Table::num(r.restarts), abt,
                  hotCont ? hot : "-"});
    }
    std::printf("%s", t.str().c_str());
}

/**
 * Per-config text reports, printed when the runs carried them:
 * causal-conflict reports under TLR_EXPLAIN=1, epoch-timeline digests
 * under TLR_TIMELINE=N (runWorkload() attaches the listener). Silent
 * otherwise.
 */
inline void
maybePrintReports(std::shared_ptr<const std::string> RunStats::*report,
                  const char *hook)
{
    for (const auto &[key, r] : results())
        if (r.*report)
            std::printf("\n--- %s (%s) ---\n%s", key.c_str(), hook,
                        (r.*report)->c_str());
}

/**
 * One closing pointer when TLR_REPORT=LEDGER_DIR was set: every
 * simulation this binary ran appended a run bundle to the ledger
 * (runWorkload's env hook), so tell the user where the flight reports
 * come from. Silent otherwise, keeping default bench output unchanged.
 */
inline void
maybePrintReportLedgerNote()
{
    std::string dir = tlr::envReportDir();
    if (dir.empty())
        return;
    std::printf("\nrun bundles appended to %s (TLR_REPORT); render "
                "with: tlrreport %s/<entry> | tlrreport --trend %s\n",
                dir.c_str(), dir.c_str(), dir.c_str());
}

/** The value of `--jobs=N`: a decimal count, 0 = hardware
 *  concurrency. @return false for anything else. */
inline bool
parseJobs(const char *v, unsigned &jobs)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long n = std::strtoul(v, &end, 10);
    if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE ||
        n > std::numeric_limits<unsigned>::max())
        return false;
    jobs = static_cast<unsigned>(n);
    return true;
}

/**
 * Standard driver: register the grid, run it, print the tables.
 *
 * Accepts only `--jobs=N` (default 1; 0 = hardware concurrency),
 * which sets how many simulations runSweep runs at once. Any other
 * argument, or a malformed N, prints @p usage and exits 1.
 */
inline int
benchMain(int argc, char **argv, const std::function<void()> &register_fn,
          const std::function<void()> &print_fn,
          const char *usage = "[--jobs=N]")
{
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const bool isJobs = std::strncmp(argv[i], "--jobs=", 7) == 0;
        if (isJobs && parseJobs(argv[i] + 7, jobs))
            continue;
        if (isJobs)
            std::fprintf(stderr, "%s: invalid value for --jobs: '%s'\n",
                         argv[0], argv[i] + 7);
        else
            std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0],
                         argv[i]);
        std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
        return 1;
    }
    register_fn();
    std::vector<tlr::SweepResult> res = tlr::runSweep(sweepTasks(), jobs);
    for (std::size_t i = 0; i < res.size(); ++i)
        results().emplace(sweepTasks()[i].key, std::move(res[i].stats));
    print_fn();
    maybePrintMetricsTable();
    maybePrintReports(&RunStats::explainReport, "TLR_EXPLAIN");
    maybePrintReports(&RunStats::timelineReport, "TLR_TIMELINE");
    maybePrintReportLedgerNote();
    return 0;
}

} // namespace tlrbench

#endif // TLR_BENCH_COMMON_HH
