#include "harness/runner.hh"

#include <cstdio>
#include <cstdlib>

#include "report/bundle.hh"
#include "sim/logging.hh"

namespace tlr
{

namespace
{

/** TLR_REPORT hook: append a run bundle for this run to the ledger
 *  directory named by the environment, mirroring what `tlrsim
 *  --report-dir` records. Lives here so every harness entry point —
 *  bench binaries, figure generators, exp_* experiments — gets flight
 *  reports without growing its own flag. The scheme label is derived
 *  from the spec flags (callers hand us a SpecConfig, not a Scheme;
 *  experiment variants with tweaked knobs report the nearest canonical
 *  label). Failures warn and continue: telemetry must never kill a
 *  run. */
void
maybeWriteEnvBundle(const MachineParams &mp, const Workload &wl,
                    System &sys, const RunStats &r)
{
    const char *dir = std::getenv("TLR_REPORT");
    if (!dir || !*dir)
        return;

    BundleMeta bm;
    bm.workload = wl.name;
    bm.scheme = mp.spec.enableTlr
                    ? (mp.spec.strictTimestamps
                           ? "BASE+SLE+TLR-strict-ts"
                           : "BASE+SLE+TLR")
                    : (mp.spec.enableSle ? "BASE+SLE" : "BASE");
    bm.protocol =
        mp.protocol == Protocol::Directory ? "directory" : "broadcast";
    bm.cpus = mp.numCpus;
    bm.seed = mp.seed;
    bm.wbLines = mp.spec.writeBufferLines;
    bm.victimEntries = mp.l1.victimEntries;
    bm.yieldTimeout = mp.l1.yieldTimeout;
    bm.maxTicks = mp.maxTicks;
    bm.timelineEpoch = mp.timelineEpoch;
    bm.metrics = mp.collectMetrics;
    bm.explain = mp.explain;
    bm.checkInvariants = mp.trace.checkInvariants;
    bm.completed = r.completed;
    bm.valid = r.valid;
    bm.cycles = r.cycles;
    bm.invariantViolations = r.invariantViolations;

    BundleArtifacts art;
    std::string extra;
    if (sys.metrics())
        extra = "  \"metrics\": " + sys.metrics()->snapshot().json();
    if (sys.timeline()) {
        if (!extra.empty())
            extra += ",\n";
        extra += "  \"timeline\": " + sys.timeline()->json();
        art.timelineCsv = sys.timeline()->csv();
    }
    art.statsJson = sys.stats().dumpJson(extra);
    if (sys.explainer())
        art.explainText = sys.explainer()->report(ExplainMode::Txn);

    std::string err;
    std::string entry = writeRunBundle(dir, bm, art, err);
    if (entry.empty())
        std::fprintf(stderr, "TLR_REPORT: %s (continuing)\n",
                     err.c_str());
    else
        std::fprintf(stderr, "report: wrote bundle %s\n", entry.c_str());
}

} // namespace

RunStats
runWorkload(const MachineParams &mp, const Workload &wl)
{
    System sys(mp);
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
    maybeWriteEnvBundle(mp, wl, sys, r);
    return r;
}

RunStats
runScheme(Scheme scheme, int num_cpus, const Workload &wl, Tick max_ticks)
{
    MachineParams mp;
    mp.numCpus = num_cpus;
    mp.spec = schemeSpecConfig(scheme);
    mp.maxTicks = max_ticks;
    mp.collectMetrics = envMetrics();
    mp.explain = envExplain();
    mp.timelineEpoch = envTimelineEpoch();
    return runWorkload(mp, wl);
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

bool
envMetrics()
{
    const char *s = std::getenv("TLR_METRICS");
    return s && *s && std::string(s) != "0";
}

bool
envExplain()
{
    const char *s = std::getenv("TLR_EXPLAIN");
    return s && *s && std::string(s) != "0";
}

Tick
envTimelineEpoch()
{
    const char *s = std::getenv("TLR_TIMELINE");
    if (!s)
        return 0;
    long long v = std::atoll(s);
    return v > 0 ? static_cast<Tick>(v) : 0;
}

std::string
envReportDir()
{
    const char *s = std::getenv("TLR_REPORT");
    return s ? s : "";
}

} // namespace tlr
