/**
 * @file
 * Host-time benchmark of the tlrsim library.
 *
 * One process links the simulator library and drives it through its
 * public calls: makeRegisteredWorkload, the System constructor,
 * installWorkload, System::run, the workload validator, runSweep and
 * System::addTraceListener. It times those calls from outside and reads
 * StatSet and EventQueue::kernelStats() for exact counts.
 *
 *   tlrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--state FILE] [--spans FILE]
 *
 * One operation is one simulation. A run does an untimed reference pass
 * (serial for the sweep), then timed passes until --seconds have gone.
 * With --trace 0 it reports the end-to-end metrics of the timed
 * passes; with --trace 1 it interleaves traced passes (spans around each
 * layer call, listeners behind timing proxies) with untraced ones and
 * reports the per-layer metrics. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Correctness gate: every simulation completes and passes its
 * validator; telemetry-on reports no invariant violation; every exact
 * count repeats across passes, against the serial reference pass and
 * against an earlier run of the same binary (--state); telemetry-on
 * matches tlr-contended in every model count. A breach counts as a
 * failed operation; it never aborts the run.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "explain/rawtrace.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "trace/checkers.hh"
#include "workloads/registry.hh"
#include "tracing.hh"

namespace
{

using namespace tlr;
using tlrbench::Clock;
using tlrbench::Scope;
using tlrbench::secondsBetween;
using tlrbench::SpanLog;
using tlrbench::TimedListener;

constexpr int kCpus = 8;
/** Host threads of the lock-sweep pool; the benchmark never uses more. */
constexpr unsigned kSweepJobs = 2;
/** --timeline-epoch of the telemetry-on workload. */
constexpr Tick kTimelineEpoch = 1000;
/** Flight-recorder depth tlrsim arms with --check-invariants. */
constexpr std::size_t kRingRecords = 4096;
constexpr std::uint64_t kDefaultSeed = 12345;
constexpr std::size_t kMinPasses = 5;

// ---------------------------------------------------------------- counts

/** Exact counts of one simulation: a function of config and seed only. */
enum Count : std::size_t
{
    Cycles,
    Events,
    Scheduled,
    FarEvents,
    PoolChunks,
    SpilledEvents,
    Instructions,
    BusyCycles,
    DataStallCycles,
    LockCycles,
    Elisions,
    Commits,
    Restarts,
    Fallbacks,
    L1Hits,
    L1Misses,
    L1Upgrades,
    L1Writebacks,
    Defers,
    RelaxedDefers,
    ProbesSent,
    MarkerMsgs,
    ProbeMsgs,
    BusTxns,
    DataMsgs,
    DirForwardedSnoops,
    DirInvalidations,
    L2Hits,
    L2Misses,
    VictimInserts,
    WriteBufferAborts,
    TraceRecords,
    NumCounts
};

struct CountInfo
{
    const char *name;
    const char *unit;
};

constexpr CountInfo kCount[NumCounts] = {
    {"sim_cycles", "cycles"},
    {"sim.events", "count"},
    {"sim.scheduled", "count"},
    {"sim.far_events", "count"},
    {"sim.pool_chunks", "count"},
    {"sim.spilled_events", "count"},
    {"cpu.instructions", "count"},
    {"cpu.busy_cycles", "cycles"},
    {"cpu.data_stall_cycles", "cycles"},
    {"cpu.lock_cycles", "cycles"},
    {"core.elisions", "count"},
    {"core.commits", "count"},
    {"core.restarts", "count"},
    {"core.fallbacks", "count"},
    {"coherence.l1_hits", "count"},
    {"coherence.l1_misses", "count"},
    {"coherence.l1_upgrades", "count"},
    {"coherence.l1_writebacks", "count"},
    {"coherence.defers", "count"},
    {"coherence.relaxed_defers", "count"},
    {"coherence.probes_sent", "count"},
    {"coherence.marker_msgs", "count"},
    {"coherence.probe_msgs", "count"},
    {"coherence.bus_txns", "count"},
    {"coherence.data_msgs", "count"},
    {"coherence.dir_forwarded_snoops", "count"},
    {"coherence.dir_invalidations", "count"},
    {"coherence.l2_hits", "count"},
    {"coherence.l2_misses", "count"},
    {"mem.victim_inserts", "count"},
    {"mem.write_buffer_aborts", "count"},
    {"trace.records", "count"},
};

using Counts = std::array<std::uint64_t, NumCounts>;

Counts
collectCounts(System &sys)
{
    const StatSet &s = sys.stats();
    const EventQueue::KernelStats &k = sys.eventQueue().kernelStats();
    Counts c{};
    c[Cycles] = sys.completionTick();
    c[Events] = sys.eventQueue().executed();
    c[Scheduled] = k.wheelEvents + k.farEvents;
    c[FarEvents] = k.farEvents;
    c[PoolChunks] = k.poolChunks;
    c[SpilledEvents] = k.spilledEvents;
    c[Instructions] = s.sum("core", "instRetired");
    c[BusyCycles] = s.sum("core", "busyCycles");
    c[DataStallCycles] = s.sum("core", "dataStallCycles");
    c[LockCycles] = s.sum("core", "lockCycles");
    c[Elisions] = s.sum("spec", "elisions");
    c[Commits] = s.sum("spec", "commits");
    c[Restarts] = s.sum("spec", "restarts");
    c[Fallbacks] = s.sum("spec", "fallbacks");
    c[L1Hits] = s.sum("l1_", "hits");
    c[L1Misses] = s.sum("l1_", "misses");
    c[L1Upgrades] = s.sum("l1_", "upgrades");
    c[L1Writebacks] = s.sum("l1_", "writeBacks");
    c[Defers] = s.sum("l1_", "defers");
    c[RelaxedDefers] = s.sum("l1_", "relaxedDefers");
    c[ProbesSent] = s.sum("l1_", "probesSent");
    c[MarkerMsgs] = s.get("net", "markerMsgs");
    c[ProbeMsgs] = s.get("net", "probeMsgs");
    c[BusTxns] = s.get("bus", "transactions");
    c[DataMsgs] = s.get("net", "dataMsgs");
    c[DirForwardedSnoops] = s.get("dir", "forwardedSnoops");
    c[DirInvalidations] = s.get("dir", "invalidations");
    c[L2Hits] = s.get("mem", "l2Hits");
    c[L2Misses] = s.get("mem", "l2Misses");
    c[VictimInserts] = s.sum("l1_", "victimInserts");
    c[WriteBufferAborts] = s.sum("spec", "abort.write-buffer-full");
    c[TraceRecords] = sys.traceSink().emitted();
    return c;
}

// ------------------------------------------------------------- workloads

struct SimSpec
{
    std::string key; ///< scheme/protocol/program
    std::string program;
    WorkloadParams wp;
    MachineParams mp;
};

struct BenchWorkload
{
    std::string name;
    std::vector<SimSpec> sims;
    bool telemetry = false; ///< attach the five observability listeners
    bool sweep = false;     ///< run the sims through runSweep
};

/** @p theta applies to the db workloads only; the micro-benchmarks get
 *  the registry default. */
SimSpec
makeSim(Scheme scheme, Protocol proto, const char *program,
        std::uint64_t ops, double theta, std::uint64_t seed)
{
    SimSpec s;
    s.program = program;
    s.key = std::string(scheme == Scheme::Mcs    ? "mcs"
                        : scheme == Scheme::Base ? "base"
                                                 : "tlr") +
            (proto == Protocol::Directory ? "/directory/" : "/broadcast/") +
            program;
    s.wp.numCpus = kCpus;
    s.wp.ops = ops;
    s.wp.seed = seed;
    s.wp.lockKind = schemeLockKind(scheme);
    s.wp.theta = theta;
    s.wp.partitions = 4;
    s.mp.numCpus = kCpus;
    s.mp.protocol = proto;
    s.mp.spec = schemeSpecConfig(scheme);
    s.mp.seed = seed;
    return s;
}

/** The tlr-contended simulations: Figs 9-10 plus the db suite. */
std::vector<SimSpec>
tlrSims(std::uint64_t seed)
{
    const Scheme s = Scheme::BaseSleTlr;
    const Protocol p = Protocol::Broadcast;
    return {makeSim(s, p, "single-counter", 8192, 0.6, seed),
            makeSim(s, p, "dlist", 4096, 0.6, seed),
            makeSim(s, p, "tpcc-lite", 512, 0.99, seed)};
}

/** @return a workload with no sims when @p name is unknown. */
BenchWorkload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    BenchWorkload w;
    w.name = name;
    if (name == "tlr-contended") {
        w.sims = tlrSims(seed);
    } else if (name == "telemetry-on") {
        w.sims = tlrSims(seed);
        w.telemetry = true;
        for (SimSpec &s : w.sims) {
            s.mp.trace.ringCapacity = kRingRecords;
            s.mp.trace.keepGoingOnViolation = true;
        }
    } else if (name == "lock-sweep") {
        w.sweep = true;
        for (Scheme s : {Scheme::Base, Scheme::Mcs})
            for (Protocol p : {Protocol::Broadcast, Protocol::Directory}) {
                w.sims.push_back(
                    makeSim(s, p, "single-counter", 4096, 0.6, seed));
                w.sims.push_back(
                    makeSim(s, p, "multiple-counter", 8192, 0.6, seed));
                w.sims.push_back(makeSim(s, p, "ycsb-b", 512, 0.99, seed));
            }
    }
    return w;
}

// ------------------------------------------------------------- telemetry

/** The listeners `tlrsim --metrics --timeline-epoch=1000 --explain
 *  --check-invariants --trace-raw=/dev/null` attaches, built here so
 *  the traced run can put each behind a timing proxy. */
struct Telemetry
{
    InvariantRegistry checkers;
    MetricsCollector metrics;
    Explainer explainer;
    EpochTimeline timeline;
    RawTraceWriter raw;

    Telemetry(System &sys, const MachineParams &mp, const Workload &wl)
        : checkers(sys.stats(), &sys.traceSink(), mp.trace,
                   mp.spec.deferUntimestamped, mp.l1.yieldTimeout),
          explainer(mp.explainTopK), timeline(kTimelineEpoch)
    {
        std::string err = raw.open("/dev/null");
        if (!err.empty())
            throw std::runtime_error("raw trace writer: " + err);
        metrics.setLockClassifier(wl.lockClassifier);
    }

    /** In tlrsim's attach order, with the span name of each. */
    std::array<std::pair<const char *, TraceListener *>, 5>
    listeners()
    {
        return {{{"trace.checkers", &checkers},
                 {"metrics.collector", &metrics},
                 {"explain.explainer", &explainer},
                 {"timeline.epochs", &timeline},
                 {"trace.raw_writer", &raw}}};
    }
};

// ------------------------------------------------------------ simulation

struct SimOutcome
{
    std::string error; ///< exception text; empty when the sim ran
    bool completed = false;
    bool valid = false;
    std::uint64_t violations = 0;
    Counts counts{};
    double setupS = 0; ///< workload build + System + listeners + install
    double runS = 0;   ///< inside System::run
};

SimOutcome
runSim(const SimSpec &spec, bool telemetry, SpanLog *log, int parent,
       int sim, const char *spanName)
{
    SimOutcome o;
    Scope top(log, spanName, parent, sim);
    try {
        const Clock::time_point t0 = Clock::now();
        Workload wl;
        {
            Scope s(log, "workloads.build", top.id(), sim);
            wl = makeRegisteredWorkload(spec.program, spec.wp);
        }
        // Declared so the System, whose sink points at the listeners,
        // is destroyed first.
        std::unique_ptr<Telemetry> tel;
        std::vector<std::unique_ptr<TimedListener>> proxies;
        std::unique_ptr<System> sys;
        {
            Scope s(log, "harness.system_build", top.id(), sim);
            sys = std::make_unique<System>(spec.mp);
            if (telemetry) {
                tel = std::make_unique<Telemetry>(*sys, spec.mp, wl);
                for (auto [name, l] : tel->listeners()) {
                    if (log) {
                        proxies.push_back(
                            std::make_unique<TimedListener>(name, *l));
                        l = proxies.back().get();
                    }
                    sys->addTraceListener(l);
                }
            }
        }
        {
            Scope s(log, "harness.install", top.id(), sim);
            installWorkload(*sys, wl);
        }
        const Clock::time_point t1 = Clock::now();
        o.setupS = secondsBetween(t0, t1);
        {
            Scope s(log, "harness.run", top.id(), sim);
            o.completed = sys->run();
            o.runS = secondsBetween(t1, Clock::now());
            for (const auto &p : proxies)
                log->aggregate(p->name(), s.id(), sim, p->ns(), p->calls());
        }
        {
            Scope s(log, "workloads.validate", top.id(), sim);
            o.valid = wl.validate ? wl.validate(*sys) : true;
        }
        if (tel) {
            // The end-of-run reports tlrsim prints; built, then dropped.
            {
                Scope s(log, "metrics.snapshot", top.id(), sim);
                tel->metrics.snapshot().summary();
            }
            {
                Scope s(log, "explain.report", top.id(), sim);
                tel->explainer.report(ExplainMode::Txn);
            }
            {
                Scope s(log, "timeline.report", top.id(), sim);
                tel->timeline.report();
            }
            o.violations = tel->checkers.violations();
        }
        o.counts = collectCounts(*sys);
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    return o;
}

// ------------------------------------------------------------------ pass

struct PassOutcome
{
    double wallS = 0;
    double setupS = 0;
    double runS = 0;
    std::vector<SimOutcome> sims;
    /** Host seconds per simulation; runSweep's per-task seconds on a
     *  sweep. A serial pass is a sweep with jobs=1. */
    std::vector<double> taskS;
    unsigned jobs = 1;
    Counts total{};
};

PassOutcome
runPass(const BenchWorkload &w, unsigned jobs, SpanLog *log)
{
    PassOutcome p;
    p.sims.resize(w.sims.size());
    p.jobs = w.sweep ? jobs : 1;
    const Clock::time_point t0 = Clock::now();
    {
        Scope pass(log, "bench.pass", -1, -1);
        if (!w.sweep) {
            for (std::size_t i = 0; i < w.sims.size(); ++i) {
                const Clock::time_point ts = Clock::now();
                p.sims[i] = runSim(w.sims[i], w.telemetry, log, pass.id(),
                                   static_cast<int>(i),
                                   "harness.simulation");
                p.taskS.push_back(secondsBetween(ts, Clock::now()));
            }
        } else {
            Scope sweep(log, "harness.sweep", pass.id(), -1);
            std::vector<SweepTask> tasks;
            for (std::size_t i = 0; i < w.sims.size(); ++i) {
                tasks.push_back(SweepTask{w.sims[i].key, [&, i] {
                    SimOutcome &o = p.sims[i];
                    o = runSim(w.sims[i], w.telemetry, log, sweep.id(),
                               static_cast<int>(i), "harness.sweep_task");
                    RunStats r;
                    r.completed = o.completed;
                    r.valid = o.valid;
                    r.cycles = o.counts[Cycles];
                    return r;
                }});
            }
            for (const SweepResult &r : runSweep(tasks, jobs))
                p.taskS.push_back(r.wallSeconds);
        }
    }
    p.wallS = secondsBetween(t0, Clock::now());
    for (const SimOutcome &o : p.sims) {
        p.setupS += o.setupS;
        p.runS += o.runS;
        for (std::size_t c = 0; c < NumCounts; ++c)
            p.total[c] += o.counts[c];
    }
    return p;
}

// ------------------------------------------------------------------ gate

using PriorCounts = std::map<std::string, std::uint64_t>;

/** What a pass must agree with, beyond each simulation's own checks. */
struct Expect
{
    const PassOutcome *same = nullptr;  ///< every count, sim by sim
    const PassOutcome *model = nullptr; ///< every count but trace records
    const PriorCounts *prior = nullptr; ///< an earlier run of this binary
};

struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const BenchWorkload &w, const PassOutcome &p, const Expect &e)
    {
        for (std::size_t i = 0; i < p.sims.size(); ++i) {
            ++attempted;
            std::string why = breach(w, i, p.sims[i], e);
            if (why.empty())
                continue;
            ++failed;
            if (failed <= 20)
                std::fprintf(stderr, "tlrbench: FAILED %s/%s: %s\n",
                             w.name.c_str(), w.sims[i].key.c_str(),
                             why.c_str());
        }
    }

  private:
    static std::string
    breach(const BenchWorkload &w, std::size_t i, const SimOutcome &s,
           const Expect &e)
    {
        if (!s.error.empty())
            return s.error;
        if (!s.completed)
            return "did not complete";
        if (!s.valid)
            return "failed its workload validator";
        if (s.violations)
            return std::to_string(s.violations) + " invariant violations";
        const Counts &c = s.counts;
        if (e.same && c != e.same->sims[i].counts)
            return "exact counts differ from the reference pass";
        if (e.model) {
            for (std::size_t k = 0; k < NumCounts; ++k)
                if (k != TraceRecords && c[k] != e.model->sims[i].counts[k])
                    return std::string(kCount[k].name) +
                           " differs from tlr-contended";
        }
        if (e.prior) {
            for (std::size_t k = 0; k < NumCounts; ++k) {
                auto it = e.prior->find(w.sims[i].key + " " + kCount[k].name);
                if (it == e.prior->end() || it->second != c[k])
                    return std::string(kCount[k].name) +
                           " differs from an earlier run";
            }
        }
        if (w.sweep && (c[Elisions] || c[Commits] || c[Restarts] ||
                        c[Defers]))
            return "speculated under a lock-only scheme";
        if (!w.telemetry && c[TraceRecords])
            return "emitted trace records with telemetry off";
        return {};
    }
};

/** Counts of an earlier run ("key name value" lines); null when none. */
std::unique_ptr<PriorCounts>
loadPrior(const std::string &path)
{
    std::ifstream in(path);
    if (path.empty() || !in)
        return nullptr;
    auto m = std::make_unique<PriorCounts>();
    std::string key, name;
    std::uint64_t v = 0;
    while (in >> key >> name >> v)
        (*m)[key + " " + name] = v;
    return m;
}

void
savePrior(const std::string &path, const BenchWorkload &w,
          const PassOutcome &p)
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < p.sims.size(); ++i)
        for (std::size_t k = 0; k < NumCounts; ++k)
            out << w.sims[i].key << ' ' << kCount[k].name << ' '
                << p.sims[i].counts[k] << '\n';
}

// --------------------------------------------------------------- results

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Peak resident set of this process image. getrusage's ru_maxrss is
 *  not used: Linux carries it across exec, so under a launcher it
 *  reports the launcher's footprint. VmHWM restarts at exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Metric>
endToEnd(const std::vector<PassOutcome> &passes)
{
    std::vector<double> wall, setup, evps;
    for (const PassOutcome &p : passes) {
        wall.push_back(p.wallS);
        setup.push_back(p.setupS);
        evps.push_back(ratio(static_cast<double>(p.total[Events]), p.runS));
    }
    return {{"wall_s", median(wall), "s"},
            {"setup_s", median(setup), "s"},
            {"events_per_s", median(evps), "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles",
             static_cast<double>(passes.front().total[Cycles]), "cycles"}};
}

/** Layers that own spans, in report order. */
constexpr const char *kLayers[] = {"bench",   "harness",  "workloads",
                                   "trace",   "metrics",  "explain",
                                   "timeline"};

std::string
layerOf(const char *span)
{
    const char *dot = std::strchr(span, '.');
    return dot ? std::string(span, dot) : std::string(span);
}

std::vector<Metric>
perLayer(const BenchWorkload &w, const PassOutcome &ref,
         const std::vector<PassOutcome> &untraced,
         const std::vector<PassOutcome> &traced,
         const std::vector<PassOutcome> &tlrPasses, const SpanLog &log)
{
    std::vector<Metric> m;
    const Counts &c = ref.total;
    auto count = [&](Count k) {
        m.push_back({kCount[k].name, static_cast<double>(c[k]),
                     kCount[k].unit});
    };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    // Exact counts (identical in every pass; the gate enforces it).
    count(Events);
    std::vector<double> nsPerEvent;
    for (const PassOutcome &p : untraced)
        nsPerEvent.push_back(1e9 * ratio(p.runS, d(p.total[Events])));
    m.push_back({"sim.ns_per_event", median(nsPerEvent), "ns"});
    m.push_back({"sim.far_share", ratio(d(c[FarEvents]), d(c[Scheduled])),
                 "ratio"});
    count(PoolChunks);
    count(SpilledEvents);
    for (Count k : {Instructions, BusyCycles, DataStallCycles, LockCycles,
                    Elisions, Commits, Restarts, Fallbacks})
        count(k);
    m.push_back({"core.commit_ratio",
                 ratio(d(c[Commits]), d(c[Commits] + c[Restarts])),
                 "ratio"});
    count(L1Hits);
    count(L1Misses);
    m.push_back({"coherence.l1_hit_ratio",
                 ratio(d(c[L1Hits]), d(c[L1Hits] + c[L1Misses])), "ratio"});
    for (Count k : {L1Upgrades, L1Writebacks, Defers, RelaxedDefers,
                    ProbesSent, MarkerMsgs, ProbeMsgs, BusTxns, DataMsgs,
                    DirForwardedSnoops, DirInvalidations, L2Hits, L2Misses,
                    VictimInserts, WriteBufferAborts, TraceRecords})
        count(k);

    // Host time per layer from the traced passes: per-pass sums of span
    // durations, self times and listener totals, then medians.
    const std::size_t n = traced.size();
    const std::vector<double> self = log.selfSeconds();
    std::map<std::string, std::vector<double>> spanS, selfS, layerS, aggNs,
        aggCalls;
    auto slot = [n](std::map<std::string, std::vector<double>> &mp,
                    const std::string &k) -> std::vector<double> & {
        auto &v = mp[k];
        v.resize(n, 0.0);
        return v;
    };
    const std::vector<tlrbench::Span> &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const tlrbench::Span &s = spans[i];
        auto p = static_cast<std::size_t>(s.pass);
        if (s.aggregate) {
            slot(aggNs, s.name)[p] += d(static_cast<std::uint64_t>(s.endNs));
            slot(aggCalls, s.name)[p] += d(s.calls);
        } else {
            slot(spanS, s.name)[p] += 1e-9 * d(static_cast<std::uint64_t>(
                                                 s.endNs - s.startNs));
        }
        slot(selfS, s.name)[p] += self[i];
        slot(layerS, layerOf(s.name))[p] += self[i];
    }
    auto spanMedian = [&](const char *name) {
        return median(slot(spanS, name));
    };
    m.push_back({"workloads.build_s", spanMedian("workloads.build"), "s"});
    m.push_back({"harness.system_build_s", spanMedian("harness.system_build"),
                 "s"});
    m.push_back({"harness.install_s", spanMedian("harness.install"), "s"});
    // The run span minus the listener time it holds.
    m.push_back({"harness.run_s", median(slot(selfS, "harness.run")), "s"});
    m.push_back({"workloads.validate_s", spanMedian("workloads.validate"),
                 "s"});

    std::vector<double> eff, taskMax;
    for (const PassOutcome &p : traced) {
        double sum = 0;
        for (double t : p.taskS)
            sum += t;
        eff.push_back(ratio(sum, p.jobs * p.wallS));
        taskMax.push_back(*std::max_element(p.taskS.begin(), p.taskS.end()));
    }
    m.push_back({"harness.sweep_efficiency", median(eff), "ratio"});
    m.push_back({"harness.sweep_task_s.max", median(taskMax), "s"});

    const std::pair<const char *, const char *> perRecord[] = {
        {"trace.checkers", "trace.checkers_ns_per_record"},
        {"trace.raw_writer", "trace.raw_writer_ns_per_record"},
        {"metrics.collector", "metrics.ns_per_record"},
        {"explain.explainer", "explain.ns_per_record"},
        {"timeline.epochs", "timeline.ns_per_record"}};
    for (const auto &[span, metric] : perRecord) {
        std::vector<double> v;
        const std::vector<double> &ns = slot(aggNs, span);
        const std::vector<double> &calls = slot(aggCalls, span);
        for (std::size_t p = 0; p < n; ++p)
            if (calls[p] > 0)
                v.push_back(ns[p] / calls[p]);
        m.push_back({metric, median(v), "ns"});
    }
    m.push_back({"metrics.snapshot_s", spanMedian("metrics.snapshot"), "s"});
    m.push_back({"explain.report_s", spanMedian("explain.report"), "s"});
    m.push_back({"timeline.report_s", spanMedian("timeline.report"), "s"});

    auto medianWall = [](const std::vector<PassOutcome> &ps) {
        std::vector<double> v;
        for (const PassOutcome &p : ps)
            v.push_back(p.wallS);
        return median(v);
    };
    const double untracedWall = medianWall(untraced);
    m.push_back({"trace.overhead_ratio",
                 w.telemetry ? ratio(untracedWall, medianWall(tlrPasses)) : 0,
                 "ratio"});
    m.push_back({"traced.overhead_ratio",
                 ratio(medianWall(traced), untracedWall), "ratio"});
    for (const char *layer : kLayers)
        m.push_back({std::string("self_s.") + layer,
                     median(slot(layerS, layer)), "s"});
    return m;
}

void
printResult(const Gate &g, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-36s %16.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += g.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(g.attempted);
    json += ", \"failed\": " + std::to_string(g.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string state; ///< exact counts of earlier runs of this binary
    std::string spans; ///< traced run: span dump
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--state") {
            a.state = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            return false;
        }
        if (end && (*end || end == v.c_str()))
            return false;
    }
    return !a.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: tlrbench --workload "
                     "tlr-contended|lock-sweep|telemetry-on [--seed N] "
                     "[--seconds S] [--trace 0|1] [--state FILE] "
                     "[--spans FILE]\n");
        return 2;
    }
    const BenchWorkload w = makeWorkload(a.workload, a.seed);
    if (w.sims.empty()) {
        std::fprintf(stderr, "tlrbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    std::printf("tlrbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%ld sims/pass=%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                w.sims.size());

    Gate gate;
    // Untimed reference passes. The sweep's reference runs serially, so
    // every timed jobs=2 pass is checked against a serial run.
    const BenchWorkload tlr = makeWorkload("tlr-contended", a.seed);
    PassOutcome tlrRef;
    if (w.telemetry) {
        tlrRef = runPass(tlr, 1, nullptr);
        gate.check(tlr, tlrRef, {});
    }
    const PassOutcome ref = runPass(w, 1, nullptr);
    std::unique_ptr<PriorCounts> prior = loadPrior(a.state);
    gate.check(w, ref,
               {nullptr, w.telemetry ? &tlrRef : nullptr, prior.get()});
    if (!prior && !a.state.empty())
        savePrior(a.state, w, ref);

    std::vector<PassOutcome> untraced, traced, tlrPasses;
    SpanLog log;
    const Expect same{&ref, nullptr, nullptr};
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    while (Clock::now() < deadline || untraced.size() < kMinPasses) {
        untraced.push_back(runPass(w, kSweepJobs, nullptr));
        gate.check(w, untraced.back(), same);
        if (!a.trace)
            continue;
        log.setPass(static_cast<int>(traced.size()));
        traced.push_back(runPass(w, kSweepJobs, &log));
        gate.check(w, traced.back(), same);
        if (w.telemetry) {
            tlrPasses.push_back(runPass(tlr, 1, nullptr));
            gate.check(tlr, tlrPasses.back(), {&tlrRef, nullptr, nullptr});
        }
    }
    std::printf("tlrbench: %zu untraced and %zu traced passes, "
                "%llu simulations, %llu failed\n",
                untraced.size(), traced.size(),
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed));

    if (!a.trace) {
        printResult(gate, endToEnd(untraced));
        return 0;
    }
    if (!a.spans.empty() && !log.write(a.spans))
        std::fprintf(stderr, "tlrbench: cannot write spans to %s\n",
                     a.spans.c_str());
    printResult(gate, perLayer(w, ref, untraced, traced, tlrPasses, log));
    return 0;
}
