/**
 * @file
 * tlrsim — command-line driver for the TLR simulator.
 *
 * Runs any built-in workload under any scheme without writing C++:
 *
 *   tlrsim --workload=single-counter --scheme=tlr --cpus=16 --ops=4096
 *   tlrsim --workload=radiosity --scheme=base --stats=spec
 *   tlrsim --workload=dlist --scheme=tlr --trace-raw=t.bin && tlrquery t.bin
 *
 * `--cpus` and `--scheme` accept comma-separated lists; more than one
 * combination turns the invocation into a sweep executed on `--jobs`
 * host threads (default: hardware concurrency). `--bench-json=FILE`
 * records per-config wall-clock and events/sec either way.
 *
 * A sweep simulates the same machine per config as a single run,
 * invariant checkers included, and refuses the flags that name one
 * run's files. Run with --help for the full flag list. Exit status,
 * for a run and a sweep alike: 1 on a usage error or if any config
 * threw (a checker panic); else 3 if any hit the watchdog (livelock);
 * else 2 if any failed validation; else 0.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h> // isatty: --progress is a TTY-only status line

#include "cli.hh"
#include "explain/rawtrace.hh"
#include "report/bundle.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "metrics/collector.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

struct Options
{
    std::string workload = "single-counter";
    std::string scheme = "tlr";
    std::string protocol = "broadcast";
    std::vector<int> cpus{8};
    std::uint64_t ops = 1024;
    std::uint64_t seed = 12345;
    double theta = 0.6;      // db family: Zipfian key skew
    unsigned keys = 256;     // db family: key-space size
    unsigned partitions = 4; // db family: partitions / warehouses
    std::string traceRaw;    // binary trace destination (tlrquery)
    std::string traceFilter; // record filter for --trace-raw
    cli::ExplainFlags explain; // causal conflict explainer
    bool checkInvariants = false;
    bool metrics = false;    // latency/contention/traffic profiling
    Tick timelineEpoch = 0;  // epoch-sliced telemetry; 0 = off
    std::string timelineOut; // timeline CSV destination
    bool progress = false;   // per-epoch stderr status line (TTY only)
    std::string statsJson;   // JSON counter dump destination ("-" = stdout)
    std::string benchJson;   // per-config host-perf dump ("-" = stdout)
    std::string reportDir;   // run-ledger directory; "" = no bundle
    unsigned jobs = 0;       // 0 = auto (hardware concurrency)
    size_t ringCapacity = 4096;
    std::string statsPrefix; // empty = no dump; "all" = everything
    Tick maxTicks = 2'000'000'000ull;
    unsigned wbLines = 64;
    unsigned victimEntries = 16;
    Tick yieldTimeout = 1000;
    Tick preemptEvery = 0;   // 0 = no OS preemption
    Tick preemptQuantum = 10000;
    bool listWorkloads = false;
};

void
usage()
{
    std::printf(
        "tlrsim — Transactional Lock Removal simulator driver\n\n"
        "  --workload=NAME     workload to run (see --list)\n"
        "  --scheme=S[,S...]   base | sle | tlr | tlr-strict | mcs\n"
        "  --protocol=P        broadcast | directory\n"
        "  --cpus=N[,N...]     processor count(s) (default 8); more\n"
        "                      than one (scheme, cpus) combination\n"
        "                      runs as a host-parallel sweep\n"
        "  --jobs=N|auto       host threads for a sweep; auto (the\n"
        "                      default) = hardware concurrency\n"
        "  --ops=N             total operations / iterations per cpu\n"
        "  --seed=N            deterministic RNG seed\n"
        "  --theta=X           db workloads: Zipfian key skew in\n"
        "                      [0,1] (0 = uniform, default 0.6)\n"
        "  --keys=N            db workloads: key-space size (256)\n"
        "  --partitions=N      db workloads: partition / warehouse\n"
        "                      count (4)\n"
        "  --wb-lines=N        speculative write-buffer lines (64)\n"
        "  --victim=N          victim-cache entries (16)\n"
        "  --yield-timeout=N   deadlock-recovery window in cycles\n"
        "  --preempt-every=N   preempt a core every N cycles (0 = off)\n"
        "  --preempt-quantum=N suspension length in cycles\n"
        "  --max-ticks=N       watchdog horizon\n"
        "  --stats[=PREFIX]    dump counters (optionally filtered)\n"
        "  --stats-json=FILE   write all counters as JSON ('-' =\n"
        "                      stdout; the human summary then moves to\n"
        "                      stderr. At most one output flag may\n"
        "                      be '-')\n"
        "  --report-dir=DIR    append a run bundle (manifest, stats\n"
        "                      json, timeline CSV, explain digest, raw\n"
        "                      trace) to the ledger directory DIR;\n"
        "                      render it with tlrreport\n"
        "  --metrics           collect latency histograms, per-lock\n"
        "                      contention and interconnect traffic;\n"
        "                      prints tables and extends --stats-json\n"
        "  --bench-json=FILE   write per-config wall-clock and\n"
        "                      events/sec as JSON ('-' = stdout)\n"
        "  --trace-raw=FILE    record the event stream as a versioned\n"
        "                      binary trace (tlrquery input; its\n"
        "                      --chrome-trace mode writes the\n"
        "                      Perfetto view)\n"
        "  --trace-filter=SPEC thin the --trace-raw file to matching\n"
        "                      records, e.g. cpu:3,class:Coh,\n"
        "                      kind:defer,tick:0-5000 (repeated keys\n"
        "                      OR, distinct keys AND). Applies to the\n"
        "                      raw file only: --explain and --metrics\n"
        "                      always see the full stream\n"
        "  --explain[=MODE]    causal conflict report on stdout after\n"
        "                      the run; MODE = txn (top-K delayed\n"
        "                      transactions with causal chains,\n"
        "                      default) | lock | cpu\n"
        "  --explain-json=FILE write instances/edges/cycles as JSON\n"
        "                      (implies --explain)\n"
        "  --timeline-epoch=N  slice the run into N-cycle epochs: per-\n"
        "                      epoch commit/restart/defer deltas plus\n"
        "                      online restart-storm/convoy/starvation/\n"
        "                      throughput-collapse alerts (report on\n"
        "                      stdout, \"timeline\" section in\n"
        "                      --stats-json; DESIGN.md §13)\n"
        "  --timeline-out=FILE write the per-epoch rows and alert\n"
        "                      stream as CSV (byte-identical to\n"
        "                      tlrquery --timeline offline\n"
        "                      reconstruction; '-' = stdout)\n"
        "  --progress          one stderr status line refreshed per\n"
        "                      epoch (needs --timeline-epoch);\n"
        "                      auto-disabled when stderr is not a TTY\n"
        "  --trace-ring=N      flight-recorder depth in records for\n"
        "                      --check-invariants dumps (4096)\n"
        "  --check-invariants  run online invariant checkers; panic at\n"
        "                      the first violating tick\n"
        "  --version           build metadata + schema versions\n"
        "  --list              list workloads and exit\n");
}

Scheme
parseScheme(const std::string &s)
{
    if (s == "base")
        return Scheme::Base;
    if (s == "sle")
        return Scheme::BaseSle;
    if (s == "tlr")
        return Scheme::BaseSleTlr;
    if (s == "tlr-strict")
        return Scheme::TlrStrictTs;
    if (s == "mcs")
        return Scheme::Mcs;
    fatal("unknown scheme '%s' (base|sle|tlr|tlr-strict|mcs)",
          s.c_str());
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

Workload
buildWorkload(const Options &o, int cpus, LockKind kind)
{
    WorkloadParams wp;
    wp.numCpus = cpus;
    wp.ops = o.ops;
    wp.seed = o.seed;
    wp.lockKind = kind;
    wp.theta = o.theta;
    wp.keys = o.keys;
    wp.partitions = o.partitions;
    return makeRegisteredWorkload(o.workload, wp);
}

/** Trace records carry the cpu id in 16 signed bits. */
constexpr int maxCpus = 32767;

/** The one machine a (scheme, cpus) config of @p o simulates, for a
 *  single run and for every config of a sweep alike. */
MachineParams
buildMachineParams(const Options &o, Scheme scheme, int cpus)
{
    MachineParams mp;
    mp.numCpus = cpus;
    if (o.protocol == "directory")
        mp.protocol = Protocol::Directory;
    else if (o.protocol != "broadcast")
        fatal("unknown protocol '%s' (broadcast|directory)",
              o.protocol.c_str());
    mp.spec = schemeSpecConfig(scheme);
    mp.spec.writeBufferLines = o.wbLines;
    mp.l1.victimEntries = o.victimEntries;
    mp.l1.yieldTimeout = o.yieldTimeout;
    mp.seed = o.seed;
    mp.maxTicks = o.maxTicks;
    mp.collectMetrics = o.metrics;
    mp.timelineEpoch = o.timelineEpoch;
    mp.preemptEvery = o.preemptEvery;
    mp.preemptQuantum = o.preemptQuantum;
    mp.trace.ringCapacity = o.checkInvariants ? o.ringCapacity : 0;
    mp.trace.checkInvariants = o.checkInvariants;
    mp.explain = o.explain.on;
    return mp;
}

/** One (scheme, cpus) config of a run or sweep, with host-side
 *  measurements. */
struct ConfigRow
{
    std::string schemeStr;
    int cpus = 0;
    RunStats stats;
    double wallSec = 0;
    bool threw = false; ///< the simulation threw (e.g. a checker panic)
};

/** The exit status of a run or sweep: 1 if any config threw, else 3 if
 *  any hit the watchdog, else 2 if any failed validation, else 0. */
int
exitStatus(const std::vector<ConfigRow> &rows)
{
    auto any = [&](auto pred) {
        return std::any_of(rows.begin(), rows.end(), pred);
    };
    if (any([](const ConfigRow &r) { return r.threw; }))
        return 1;
    if (any([](const ConfigRow &r) { return !r.stats.completed; }))
        return 3;
    if (any([](const ConfigRow &r) { return !r.stats.valid; }))
        return 2;
    return 0;
}

/** The output flags that can name stdout ('-'). */
constexpr const char *kOutputFlags =
    "--stats-json/--timeline-out/--bench-json/--explain-json";

/** How many output files of @p o are stdout. */
int
stdoutSinks(const Options &o)
{
    int n = 0;
    for (const std::string *path :
         {&o.statsJson, &o.timelineOut, &o.benchJson, &o.explain.json})
        n += *path == "-";
    return n;
}

/** Where the human-readable summary goes: a '-' sink owns stdout, so
 *  the summary moves to stderr and the machine document stays clean
 *  for pipes. main() already refused more than one stdout sink. */
FILE *
reportStream(const Options &o)
{
    return stdoutSinks(o) > 0 ? stderr : stdout;
}

/** Write one output file of the run; a failure is fatal and names
 *  the @p flag that asked for it. */
void
writeArtifact(const char *flag, const std::string &path,
              const std::string &text)
{
    std::string err = cli::writeText(path, text);
    if (!err.empty())
        fatal("%s: %s", flag, err.c_str());
}

void
writeBenchJson(const Options &o, const std::vector<ConfigRow> &rows)
{
    std::string doc = "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const ConfigRow &r = rows[i];
        double evps = r.wallSec > 0 ?
                          static_cast<double>(r.stats.kernelEvents) /
                              r.wallSec :
                          0;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "  {\"workload\": \"%s\", \"scheme\": \"%s\", "
            "\"cpus\": %d, \"ops\": %llu, \"completed\": %s, "
            "\"valid\": %s, \"cycles\": %llu, \"events\": %llu, "
            "\"wall_sec\": %.6f, \"events_per_sec\": %.0f}%s\n",
            o.workload.c_str(), r.schemeStr.c_str(), r.cpus,
            static_cast<unsigned long long>(o.ops),
            r.stats.completed ? "true" : "false",
            r.stats.valid ? "true" : "false",
            static_cast<unsigned long long>(r.stats.cycles),
            static_cast<unsigned long long>(r.stats.kernelEvents),
            r.wallSec, evps, i + 1 < rows.size() ? "," : "");
        doc += buf;
    }
    doc += "]\n";
    writeArtifact("--bench-json", o.benchJson, doc);
}

int
runSingle(const Options &o, const std::string &schemeStr, int cpus)
{
    Scheme scheme = parseScheme(schemeStr);
    MachineParams mp = buildMachineParams(o, scheme, cpus);
    FILE *rpt = reportStream(o);

    if (!o.traceFilter.empty() && o.traceRaw.empty())
        fatal("--trace-filter only thins the --trace-raw file; "
              "add --trace-raw=FILE");
    if (!o.timelineOut.empty() && o.timelineEpoch == 0)
        fatal("--timeline-out needs --timeline-epoch=N");
    if (o.progress && o.timelineEpoch == 0)
        fatal("--progress refreshes per epoch; add --timeline-epoch=N");

    System sys(mp);
    // Live status line, refreshed at every epoch boundary. Stderr-only
    // and host-time based, so it can never perturb the simulated run
    // or any compared artifact; silently off when stderr is a pipe so
    // CI logs stay clean.
    bool progressActive = o.progress && sys.timeline() &&
                          isatty(fileno(stderr));
    if (progressActive) {
        auto start = std::chrono::steady_clock::now();
        auto total = std::make_shared<std::uint64_t>(0);
        sys.timeline()->setEpochCallback(
            [start, total](const EpochRow &e, std::uint64_t alerts) {
                *total += e.records;
                double sec = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start)
                                 .count();
                double evps = sec > 0 ?
                                  static_cast<double>(*total) / sec :
                                  0;
                std::uint64_t tried = e.commits + e.restarts;
                double abortPct = tried > 0 ?
                                      100.0 *
                                          static_cast<double>(
                                              e.restarts) /
                                          static_cast<double>(tried) :
                                      0;
                std::fprintf(stderr,
                             "\r\033[Kepoch %llu @ %llu cycles | "
                             "abort rate %.1f%% | %.2fM rec/s | "
                             "alerts %llu",
                             static_cast<unsigned long long>(e.epoch),
                             static_cast<unsigned long long>(
                                 e.startTick),
                             abortPct, evps / 1e6,
                             static_cast<unsigned long long>(alerts));
                std::fflush(stderr);
            });
    }
    RawTraceWriter rawWriter;
    if (!o.traceRaw.empty()) {
        std::string err = rawWriter.open(o.traceRaw);
        if (!err.empty())
            fatal("--trace-raw: %s", err.c_str());
        if (!o.traceFilter.empty()) {
            TraceFilter f;
            err = f.parse(o.traceFilter);
            if (!err.empty())
                fatal("--trace-filter: %s", err.c_str());
            rawWriter.setFilter(f);
        }
        sys.addTraceListener(&rawWriter);
    }
    Workload wl = buildWorkload(o, cpus, schemeLockKind(scheme));

    auto t0 = std::chrono::steady_clock::now();
    const RunStats r = simulate(sys, wl);
    double wallSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (progressActive)
        std::fprintf(stderr, "\n");

    std::fprintf(rpt, "workload=%s scheme=%s cpus=%d ops=%llu\n",
                 wl.name.c_str(), schemeName(scheme), cpus,
                 static_cast<unsigned long long>(o.ops));
    std::fprintf(rpt, "completed=%s valid=%s cycles=%llu\n",
                 r.completed ? "yes" : "NO (watchdog)",
                 r.valid ? "yes" : "NO",
                 static_cast<unsigned long long>(r.cycles));
    std::fprintf(rpt,
                 "commits=%llu restarts=%llu fallbacks=%llu defers=%llu "
                 "probes=%llu busTxns=%llu\n",
                 static_cast<unsigned long long>(r.commits),
                 static_cast<unsigned long long>(r.restarts),
                 static_cast<unsigned long long>(r.fallbacks),
                 static_cast<unsigned long long>(r.defers),
                 static_cast<unsigned long long>(r.probeMsgs),
                 static_cast<unsigned long long>(r.busTransactions));
    if (o.checkInvariants)
        std::fprintf(rpt, "invariantViolations=%llu (traceRecords=%llu)\n",
                     static_cast<unsigned long long>(r.invariantViolations),
                     static_cast<unsigned long long>(r.traceRecords));
    if (!o.statsPrefix.empty()) {
        std::fprintf(rpt, "%s",
                     sys.stats()
                         .dump(o.statsPrefix == "all" ? "" : o.statsPrefix)
                         .c_str());
    }
    if (r.metrics)
        std::fprintf(rpt, "%s", r.metrics->summary().c_str());
    if (r.timelineReport)
        std::fprintf(rpt, "%s", r.timelineReport->c_str());
    if (!o.timelineOut.empty())
        writeArtifact("--timeline-out", o.timelineOut,
                      sys.timeline()->csv());
    if (o.explain.on) {
        std::fprintf(rpt, "%s",
                     sys.explainer()->report(o.explain.mode).c_str());
        std::string err = cli::writeExplainJson(o.explain, *sys.explainer());
        if (!err.empty())
            fatal("--explain: %s", err.c_str());
    }
    if (!o.traceRaw.empty()) {
        // The file is complete once closed; a failed write, flush or
        // close means it is not, so the run fails rather than report
        // records that never reached the disk.
        std::string err = rawWriter.close();
        if (!err.empty())
            fatal("--trace-raw: %s", err.c_str());
        std::fprintf(stderr, "wrote %llu raw trace records to %s\n",
                     static_cast<unsigned long long>(
                         rawWriter.written()),
                     o.traceRaw.c_str());
    }
    if (!o.statsJson.empty() || !o.reportDir.empty()) {
        std::string statsDoc = statsDocument(sys);
        if (!o.statsJson.empty())
            writeArtifact("--stats-json", o.statsJson, statsDoc);
        if (!o.reportDir.empty()) {
            BundleMeta bm = bundleMeta(mp, wl.name, schemeName(scheme), r);
            bm.ops = o.ops;
            bm.theta = o.theta;
            bm.keys = o.keys;
            bm.partitions = o.partitions;
            bm.jobs = o.jobs;

            BundleArtifacts art;
            art.statsJson = statsDoc;
            if (sys.timeline())
                art.timelineCsv = sys.timeline()->csv();
            if (o.explain.on)
                art.explainText = sys.explainer()->report(o.explain.mode);
            // The raw writer was closed above (header back-patched,
            // every record written), so the file is safe to copy.
            art.rawTracePath = o.traceRaw;

            std::string err;
            std::string entry = writeRunBundle(o.reportDir, bm, art, err);
            if (entry.empty())
                fatal("--report-dir: %s", err.c_str());
            std::fprintf(stderr, "report: wrote bundle %s\n",
                         entry.c_str());
        }
    }
    const std::vector<ConfigRow> rows{{schemeStr, cpus, r, wallSec, false}};
    if (!o.benchJson.empty())
        writeBenchJson(o, rows);
    return exitStatus(rows);
}

int
runSweepMode(const Options &o, const std::vector<std::string> &schemes,
             const std::vector<int> &cpusList)
{
    // Flags that name one run's files or its terminal.
    const std::pair<const char *, bool> perRunFlags[] = {
        {"--trace-raw", !o.traceRaw.empty()},
        {"--trace-filter", !o.traceFilter.empty()},
        {"--explain", o.explain.on},
        {"--timeline-epoch", o.timelineEpoch > 0},
        {"--timeline-out", !o.timelineOut.empty()},
        {"--progress", o.progress},
        {"--stats", !o.statsPrefix.empty()},
        {"--report-dir", !o.reportDir.empty()},
    };
    for (const auto &[flag, given] : perRunFlags)
        if (given)
            fatal("%s needs a single (scheme, cpus) config; narrow "
                  "--scheme/--cpus",
                  flag);
    if (!o.statsJson.empty() && !o.metrics)
        fatal("--stats-json in a sweep requires --metrics (writes the "
              "per-scheme merged metrics document); narrow "
              "--scheme/--cpus for a raw counter dump");
    FILE *rpt = reportStream(o);

    std::vector<ConfigRow> rows;
    for (const std::string &ss : schemes)
        for (int cpus : cpusList)
            rows.push_back({ss, cpus, {}, 0, false});
    std::vector<SweepTask> tasks;
    for (ConfigRow &row : rows) {
        Scheme scheme = parseScheme(row.schemeStr);
        MachineParams mp = buildMachineParams(o, scheme, row.cpus);
        Workload wl = buildWorkload(o, row.cpus, schemeLockKind(scheme));
        // runSweep leaves a throwing task at completed=false; the task
        // records the throw so that it reads as failed, not as a
        // watchdog timeout. Each task writes only its own row.
        tasks.push_back({row.schemeStr + "/p" + std::to_string(row.cpus),
                         [mp, wl, threw = &row.threw] {
                             try {
                                 System sys(mp);
                                 return simulate(sys, wl);
                             } catch (...) {
                                 *threw = true;
                                 throw;
                             }
                         }});
    }

    unsigned jobs = o.jobs ? o.jobs : defaultJobs();
    std::fprintf(rpt,
                 "sweep: %zu configs of workload=%s on %u host "
                 "thread(s)\n",
                 tasks.size(), o.workload.c_str(), jobs);
    std::vector<SweepResult> res = runSweep(tasks, jobs);

    Table t({"scheme", "cpus", "completed", "valid", "cycles",
             "commits", "restarts", "wall(s)", "Mev/s"});
    for (size_t i = 0; i < res.size(); ++i) {
        rows[i].stats = res[i].stats;
        rows[i].wallSec = res[i].wallSeconds;
        const RunStats &r = res[i].stats;
        char wall[32], mevs[32];
        std::snprintf(wall, sizeof(wall), "%.3f", res[i].wallSeconds);
        std::snprintf(mevs, sizeof(mevs), "%.2f",
                      res[i].wallSeconds > 0 ?
                          static_cast<double>(r.kernelEvents) / 1e6 /
                              res[i].wallSeconds :
                          0);
        t.addRow({rows[i].schemeStr, std::to_string(rows[i].cpus),
                  rows[i].threw ? "FAILED" : r.completed ? "yes" : "NO",
                  r.valid ? "yes" : "NO", Table::num(r.cycles),
                  Table::num(r.commits), Table::num(r.restarts), wall,
                  mevs});
    }
    std::fprintf(rpt, "%s", t.str().c_str());
    if (o.metrics) {
        // Deterministic shard merge: one snapshot per scheme,
        // accumulated in the fixed (scheme, cpus) task order, so the
        // output is independent of host-thread completion order.
        std::vector<std::pair<std::string, MetricsSnapshot>> merged;
        for (size_t i = 0; i < res.size(); ++i) {
            if (!res[i].stats.metrics)
                continue;
            if (merged.empty() || merged.back().first != rows[i].schemeStr)
                merged.emplace_back(rows[i].schemeStr, MetricsSnapshot{});
            merged.back().second.merge(*res[i].stats.metrics);
        }
        for (const auto &[schemeStr, snap] : merged) {
            std::fprintf(rpt,
                         "\n=== scheme %s (all cpu counts merged) ===\n%s",
                         schemeStr.c_str(), snap.summary().c_str());
        }
        if (!o.statsJson.empty()) {
            std::string doc =
                "{\n  \"schema_version\": " +
                std::to_string(metricsSchemaVersion) +
                ",\n  \"meta\": " + buildMetaJson() +
                ",\n  \"schemes\": {\n";
            for (size_t i = 0; i < merged.size(); ++i) {
                doc += "  \"" + merged[i].first +
                       "\": " + merged[i].second.json() +
                       (i + 1 < merged.size() ? "," : "") + "\n";
            }
            doc += "  }\n}\n";
            writeArtifact("--stats-json", o.statsJson, doc);
        }
    }
    if (!o.benchJson.empty())
        writeBenchJson(o, rows);
    return exitStatus(rows);
}

/**
 * Fill @p o from the command line. @return -1 to go on and run, or the
 * exit status once --help, --version or an unknown flag has been
 * handled. A malformed value throws std::invalid_argument.
 */
int
parseArgs(int argc, char **argv, Options &o)
{
    using cli::parseFlag;
    using cli::parseNumber;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (parseFlag(a, "--workload", v)) o.workload = v;
        else if (parseFlag(a, "--scheme", v)) o.scheme = v;
        else if (parseFlag(a, "--protocol", v)) o.protocol = v;
        else if (parseFlag(a, "--cpus", v)) {
            // Every comma-separated item must be a count, so an
            // empty item ("8,,16", "8,") is refused too.
            o.cpus.clear();
            for (size_t pos = 0;;) {
                const size_t comma = v.find(',', pos);
                o.cpus.push_back(parseNumber<int>(
                    "cpus", v.substr(pos, comma - pos), 1, maxCpus));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        }
        else if (parseFlag(a, "--jobs", v))
            o.jobs = v == "auto" ? 0 : parseNumber<unsigned>("jobs", v);
        else if (parseFlag(a, "--ops", v))
            o.ops = parseNumber<std::uint64_t>("ops", v);
        else if (parseFlag(a, "--seed", v))
            o.seed = parseNumber<std::uint64_t>("seed", v);
        else if (parseFlag(a, "--theta", v))
            o.theta = parseNumber<double>("theta", v, 0.0, 1.0);
        else if (parseFlag(a, "--keys", v))
            o.keys = parseNumber<unsigned>("keys", v);
        else if (parseFlag(a, "--partitions", v))
            o.partitions = parseNumber<unsigned>("partitions", v);
        else if (parseFlag(a, "--wb-lines", v))
            o.wbLines = parseNumber<unsigned>("wb-lines", v);
        else if (parseFlag(a, "--victim", v))
            o.victimEntries = parseNumber<unsigned>("victim", v);
        else if (parseFlag(a, "--yield-timeout", v))
            o.yieldTimeout = parseNumber<Tick>("yield-timeout", v);
        else if (parseFlag(a, "--preempt-every", v))
            // A negative period has always meant no preemption.
            o.preemptEvery = static_cast<Tick>(
                std::max(0, parseNumber<int>("preempt-every", v)));
        else if (parseFlag(a, "--preempt-quantum", v))
            o.preemptQuantum = parseNumber<Tick>("preempt-quantum", v);
        else if (parseFlag(a, "--max-ticks", v))
            o.maxTicks = parseNumber<Tick>("max-ticks", v);
        else if (parseFlag(a, "--stats", v)) o.statsPrefix = v;
        else if (std::strcmp(a, "--stats") == 0) o.statsPrefix = "all";
        else if (parseFlag(a, "--stats-json", v)) o.statsJson = v;
        else if (parseFlag(a, "--bench-json", v)) o.benchJson = v;
        else if (parseFlag(a, "--report-dir", v)) o.reportDir = v;
        else if (parseFlag(a, "--trace-raw", v)) o.traceRaw = v;
        else if (parseFlag(a, "--trace-filter", v)) o.traceFilter = v;
        else if (cli::parseExplainFlag(a, o.explain)) continue;
        else if (parseFlag(a, "--trace-ring", v))
            o.ringCapacity = parseNumber<size_t>("trace-ring", v);
        else if (std::strcmp(a, "--check-invariants") == 0)
            o.checkInvariants = true;
        else if (std::strcmp(a, "--metrics") == 0) o.metrics = true;
        else if (parseFlag(a, "--timeline-epoch", v))
            o.timelineEpoch = parseNumber<Tick>("timeline-epoch", v);
        else if (parseFlag(a, "--timeline-out", v)) o.timelineOut = v;
        else if (std::strcmp(a, "--progress") == 0) o.progress = true;
        else if (std::strcmp(a, "--version") == 0) {
            std::printf("%s", versionString("tlrsim").c_str());
            return 0;
        }
        else if (std::strcmp(a, "--list") == 0) o.listWorkloads = true;
        else if (std::strcmp(a, "--help") == 0 ||
                 std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", a);
            usage();
            return 1;
        }
    }
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        const int rc = parseArgs(argc, argv, o);
        if (rc >= 0)
            return rc;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "tlrsim: %s\n", e.what());
        return 1;
    }
    if (o.listWorkloads) {
        std::printf("%s", workloadListText().c_str());
        return 0;
    }

    // stdout can carry exactly one machine document; two '-' sinks
    // would interleave into an unparseable stream.
    if (const int n = stdoutSinks(o); n > 1) {
        std::fprintf(stderr,
                     "tlrsim: at most one of %s may write to stdout "
                     "('-'); got %d\n",
                     kOutputFlags, n);
        return 1;
    }

    std::vector<std::string> schemes = splitList(o.scheme);
    const std::vector<int> &cpusList = o.cpus;

    // fatal() throws after printing its message; a CLI should turn
    // that into a clean non-zero exit, not an abort.
    try {
        if (schemes.empty() || cpusList.empty())
            fatal("--scheme/--cpus must name at least one value");
        if (schemes.size() * cpusList.size() == 1)
            return runSingle(o, schemes[0], cpusList[0]);
        return runSweepMode(o, schemes, cpusList);
    } catch (const std::exception &) {
        return 1;
    }
}
