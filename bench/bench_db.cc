/**
 * @file
 * Database workload sweep: theta (Zipfian skew) x mix (YCSB A/B/C,
 * ordered index, partitioned table, tpcc-lite) x scheme (BASE, MCS,
 * SLE, TLR) at 8 processors.
 *
 * Unlike the figure benches this one always attaches the metrics
 * collector: the point is the abort/contention profile — how the
 * restart rate and the hottest lock respond to key skew under each
 * scheme. `--jobs=N` runs the grid on N host threads;
 * `--bench-json=FILE` dumps the per-config digest (cycles, commits,
 * restarts, abort rate, hottest lock) as a versioned JSON document
 * for tooling (tests assert the TLR abort metrics rise with theta).
 *
 * Usage: bench_db [--jobs=N] [--bench-json=FILE]
 */

#include "bench_common.hh"

#include <cstdio>
#include <fstream>

#include "sim/build_info.hh"
#include "workloads/db/db.hh"

using namespace tlr;
using namespace tlrbench;

namespace
{

constexpr int kProcs = 8;

struct Mix
{
    const char *name;
    Workload (*make)(const DbParams &);
};

const Mix kMixes[] = {
    {"ycsb-a", [](const DbParams &p) { return makeYcsb('a', p); }},
    {"ycsb-b", [](const DbParams &p) { return makeYcsb('b', p); }},
    {"ycsb-c", [](const DbParams &p) { return makeYcsb('c', p); }},
    {"ordered-index", makeOrderedIndex},
    {"partition", makePartitionedTable},
    {"tpcc-lite", makeTpccLite},
};

const double kThetas[] = {0.0, 0.6, 0.99};

std::vector<Scheme>
schemes()
{
    return {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
            Scheme::BaseSleTlr};
}

std::string
thetaTag(double theta)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%.2f", theta);
    return buf;
}

std::string
key(const Mix &m, double theta, Scheme s)
{
    return std::string("db/") + m.name + "/" + thetaTag(theta) + "/" +
           schemeName(s);
}

RunStats
runOne(const Mix &m, double theta, Scheme s)
{
    DbParams p;
    p.numCpus = kProcs;
    p.opsPerCpu = 128 * envScale();
    p.theta = theta;
    p.lockKind = schemeLockKind(s);
    MachineParams mp;
    mp.numCpus = kProcs;
    mp.spec = schemeSpecConfig(s);
    mp.collectMetrics = true; // the abort profile is the product here
    return runWorkload(mp, m.make(p), s);
}

void
registerAll()
{
    for (const Mix &m : kMixes)
        for (double theta : kThetas)
            for (Scheme s : schemes())
                registerSim(key(m, theta, s), [&m, theta, s] {
                    return runOne(m, theta, s);
                });
}

double
abortRate(const RunStats &r)
{
    double attempts =
        static_cast<double>(r.commits) + static_cast<double>(r.restarts);
    return attempts > 0 ? static_cast<double>(r.restarts) / attempts
                        : 0.0;
}

/** Hottest lock of a run: (address, contention); (0,0) if none. */
std::pair<Addr, std::uint64_t>
hottestLock(const RunStats &r)
{
    return r.metrics ? r.metrics->hottestLock()
                     : std::pair<Addr, std::uint64_t>{0, 0};
}

void
printTable()
{
    std::printf("\n=== database workloads: cycles by scheme, abort "
                "profile under TLR (%d processors) ===\n",
                kProcs);
    Table t({"mix", "theta", "base", "mcs", "sle", "tlr", "tlr abort%",
             "tlr hottest lock", "valid"});
    for (const Mix &m : kMixes) {
        for (double theta : kThetas) {
            std::vector<std::string> row{m.name, thetaTag(theta)};
            bool allValid = true;
            for (Scheme s : schemes()) {
                const RunStats &r = results().at(key(m, theta, s));
                row.push_back(Table::num(r.cycles));
                allValid = allValid && r.valid;
            }
            const RunStats &tlrRun =
                results().at(key(m, theta, Scheme::BaseSleTlr));
            char pct[32];
            std::snprintf(pct, sizeof(pct), "%.1f",
                          100.0 * abortRate(tlrRun));
            auto [addr, cont] = hottestLock(tlrRun);
            char hot[48];
            std::snprintf(hot, sizeof(hot), "0x%llx (%llu)",
                          static_cast<unsigned long long>(addr),
                          static_cast<unsigned long long>(cont));
            row.push_back(pct);
            row.push_back(cont ? hot : "-");
            row.push_back(allValid ? "yes" : "NO");
            t.addRow(row);
        }
    }
    std::printf("%s", t.str().c_str());
    std::printf("(every cell runs the workload's data-integrity "
                "validator; abort%% = restarts / (commits + restarts) "
                "under tlr)\n");
}

void
writeBenchJson(const std::string &file)
{
    std::ofstream out(file);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", file.c_str());
        std::exit(1);
    }
    out << "{\n  \"schema_version\": " << metricsSchemaVersion << ",\n";
    out << "  \"meta\": " << buildMetaJson() << ",\n";
    out << "  \"configs\": {\n";
    bool first = true;
    for (const Mix &m : kMixes) {
        for (double theta : kThetas) {
            for (Scheme s : schemes()) {
                const std::string k = key(m, theta, s);
                const RunStats &r = results().at(k);
                auto [addr, cont] = hottestLock(r);
                if (!first)
                    out << ",\n";
                first = false;
                char buf[512];
                std::snprintf(
                    buf, sizeof(buf),
                    "    \"%s\": {\"theta\": %.2f, \"cycles\": %llu, "
                    "\"valid\": %s, \"commits\": %llu, "
                    "\"elisions\": %llu, \"restarts\": %llu, "
                    "\"fallbacks\": %llu, \"defers\": %llu, "
                    "\"abort_rate\": %.6f, \"hottest_lock\": \"0x%llx\", "
                    "\"hottest_lock_contention\": %llu, "
                    "\"bus_transactions\": %llu}",
                    k.c_str(), theta,
                    static_cast<unsigned long long>(r.cycles),
                    r.valid ? "true" : "false",
                    static_cast<unsigned long long>(r.commits),
                    static_cast<unsigned long long>(r.elisions),
                    static_cast<unsigned long long>(r.restarts),
                    static_cast<unsigned long long>(r.fallbacks),
                    static_cast<unsigned long long>(r.defers),
                    abortRate(r),
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned long long>(cont),
                    static_cast<unsigned long long>(r.busTransactions));
                out << buf;
            }
        }
    }
    out << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // --bench-json is this binary's own flag; the shared driver
    // refuses every flag but --jobs.
    std::string jsonFile;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
            jsonFile = argv[i] + 13;
            continue;
        }
        argv[out++] = argv[i];
    }
    int rc = benchMain(out, argv, registerAll, printTable,
                       "[--jobs=N] [--bench-json=FILE]");
    if (rc == 0 && !jsonFile.empty())
        writeBenchJson(jsonFile);
    return rc;
}
