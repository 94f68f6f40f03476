#include "harness/runner.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace tlr
{

namespace
{

/** The nearest canonical scheme label for a machine built by hand
 *  (runWorkload callers hand over a SpecConfig, not a Scheme; MCS has
 *  BASE's spec flags, so it reads as BASE here). */
const char *
specSchemeName(const SpecConfig &spec)
{
    if (spec.enableTlr)
        return schemeName(spec.strictTimestamps ? Scheme::TlrStrictTs
                                                : Scheme::BaseSleTlr);
    return schemeName(spec.enableSle ? Scheme::BaseSle : Scheme::Base);
}

/** True when environment variable @p name is set and not "0". */
bool
envFlag(const char *name)
{
    const char *s = std::getenv(name);
    return s && *s && std::string(s) != "0";
}

/** Epoch length from the TLR_TIMELINE environment variable (cycles;
 *  0 = off, the default). */
Tick
envTimelineEpoch()
{
    const char *s = std::getenv("TLR_TIMELINE");
    if (!s)
        return 0;
    long long v = std::atoll(s);
    return v > 0 ? static_cast<Tick>(v) : 0;
}

/** Run @p wl on @p mp with the TLR_* hooks applied: TLR_METRICS,
 *  TLR_EXPLAIN and TLR_TIMELINE add their listeners, and TLR_REPORT
 *  appends a run bundle filed under @p scheme, mirroring what `tlrsim
 *  --report-dir` records. Every harness entry point — bench binaries,
 *  figure generators, exp_* experiments — comes through here, so each
 *  gets the hooks without growing its own flag. A bundle that cannot
 *  be written warns and continues: telemetry must never kill a run. */
RunStats
runLabelled(MachineParams mp, const Workload &wl, const char *scheme)
{
    mp.collectMetrics = mp.collectMetrics || envFlag("TLR_METRICS");
    mp.explain = mp.explain || envFlag("TLR_EXPLAIN");
    if (mp.timelineEpoch == 0)
        mp.timelineEpoch = envTimelineEpoch();
    System sys(mp);
    RunStats r = simulate(sys, wl);

    const std::string dir = envReportDir();
    if (dir.empty())
        return r;
    BundleArtifacts art;
    art.statsJson = statsDocument(sys);
    if (sys.timeline())
        art.timelineCsv = sys.timeline()->csv();
    if (r.explainReport)
        art.explainText = *r.explainReport;
    std::string err;
    std::string entry =
        writeRunBundle(dir, bundleMeta(mp, wl.name, scheme, r), art, err);
    if (entry.empty())
        std::fprintf(stderr, "TLR_REPORT: %s (continuing)\n",
                     err.c_str());
    else
        std::fprintf(stderr, "report: wrote bundle %s\n", entry.c_str());
    return r;
}

} // namespace

RunStats
simulate(System &sys, const Workload &wl)
{
    installWorkload(sys, wl);
    RunStats r;
    r.completed = sys.run();
    r.valid = wl.validate ? wl.validate(sys) : true;
    r.cycles = sys.completionTick();

    const StatSet &s = sys.stats();
    r.commits = s.sum("spec", "commits");
    r.elisions = s.sum("spec", "elisions");
    r.restarts = s.sum("spec", "restarts");
    r.fallbacks = s.sum("spec", "fallbacks");
    r.defers = s.sum("l1_", "defers");
    r.relaxedDefers = s.sum("l1_", "relaxedDefers");
    r.busTransactions = s.get("bus", "transactions");
    r.markerMsgs = s.get("net", "markerMsgs");
    r.probeMsgs = s.get("net", "probeMsgs");
    r.l1Misses = s.sum("l1_", "misses");
    r.writeBufferAborts = s.sum("spec", "abort.write-buffer-full");
    r.preemptions = s.sum("core", "preemptions");
    r.lockCycles = s.sum("core", "lockCycles");
    r.dataStallCycles = s.sum("core", "dataStallCycles");
    r.busyCycles = s.sum("core", "busyCycles");
    r.traceRecords = sys.traceSink().emitted();
    r.invariantViolations = s.get("trace", "violations");
    r.kernelEvents = sys.eventQueue().executed();
    if (sys.metrics())
        r.metrics = std::make_shared<MetricsSnapshot>(
            sys.metrics()->snapshot());
    if (sys.explainer())
        r.explainReport = std::make_shared<std::string>(
            sys.explainer()->report(ExplainMode::Txn));
    if (sys.timeline())
        r.timelineReport = std::make_shared<std::string>(
            sys.timeline()->report());
    return r;
}

std::string
statsDocument(System &sys)
{
    std::string extra;
    if (sys.metrics())
        extra = "  \"metrics\": " + sys.metrics()->snapshot().json();
    if (sys.timeline()) {
        if (!extra.empty())
            extra += ",\n";
        extra += "  \"timeline\": " + sys.timeline()->json();
    }
    return sys.stats().dumpJson(extra);
}

BundleMeta
bundleMeta(const MachineParams &mp, const std::string &workload,
           const std::string &scheme, const RunStats &r)
{
    BundleMeta bm;
    bm.workload = workload;
    bm.scheme = scheme;
    bm.protocol =
        mp.protocol == Protocol::Directory ? "directory" : "broadcast";
    bm.cpus = mp.numCpus;
    bm.seed = mp.seed;
    bm.wbLines = mp.spec.writeBufferLines;
    bm.victimEntries = mp.l1.victimEntries;
    bm.yieldTimeout = mp.l1.yieldTimeout;
    bm.preemptEvery = mp.preemptEvery;
    bm.preemptQuantum = mp.preemptQuantum;
    bm.maxTicks = mp.maxTicks;
    bm.timelineEpoch = mp.timelineEpoch;
    bm.metrics = mp.collectMetrics;
    bm.explain = mp.explain;
    bm.checkInvariants = mp.trace.checkInvariants;
    bm.completed = r.completed;
    bm.valid = r.valid;
    bm.cycles = r.cycles;
    bm.invariantViolations = r.invariantViolations;
    return bm;
}

RunStats
runWorkload(const MachineParams &mp, const Workload &wl)
{
    return runLabelled(mp, wl, specSchemeName(mp.spec));
}

RunStats
runWorkload(const MachineParams &mp, const Workload &wl, Scheme scheme)
{
    return runLabelled(mp, wl, schemeName(scheme));
}

RunStats
runScheme(Scheme scheme, int num_cpus, const Workload &wl, Tick max_ticks)
{
    MachineParams mp;
    mp.numCpus = num_cpus;
    mp.spec = schemeSpecConfig(scheme);
    mp.maxTicks = max_ticks;
    return runWorkload(mp, wl, scheme);
}

std::uint64_t
envScale()
{
    const char *s = std::getenv("TLR_SCALE");
    if (!s)
        return 1;
    long v = std::atol(s);
    return v > 0 ? static_cast<std::uint64_t>(v) : 1;
}

std::string
envReportDir()
{
    const char *s = std::getenv("TLR_REPORT");
    return s ? s : "";
}

} // namespace tlr
