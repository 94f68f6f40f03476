/**
 * @file
 * tlrquery — query and explain on-disk binary traces.
 *
 * Reads the versioned raw-trace files tlrsim records with
 * `--trace-raw=FILE` and either prints/aggregates matching records or
 * replays them through an analysis: the explain and timeline
 * pipelines tlrsim also runs online, and the Chrome-trace export,
 * which exists only here:
 *
 *   tlrquery trace.bin                          # print every record
 *   tlrquery --filter=cpu:3,class:Coh trace.bin # filtered
 *   tlrquery --count=kind trace.bin             # histogram by kind
 *   tlrquery --explain trace.bin                # offline causal report
 *   tlrquery --timeline=1000 trace.bin          # epoch CSV
 *   tlrquery --chrome-trace --out=t.json trace.bin  # Perfetto view
 *   tlrquery --header trace.bin                 # header only
 *
 * Filters use the exact syntax of tlrsim --trace-filter; the
 * shorthands --cpu/--kind/--class/--lock/--tick merge into the same
 * filter. Output is deterministic: the same file and flags always
 * produce byte-identical output (CI relies on this). Exit status is 0
 * on success, 1 on any usage or file error.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli.hh"
#include "explain/rawtrace.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "timeline/timeline.hh"
#include "trace/filter.hh"
#include "trace/lifecycle.hh"

using namespace tlr;

namespace
{

struct Options
{
    std::string file;
    std::string filterSpec;
    bool header = false;
    std::string countKey;  // cpu | kind | class | lock | comp
    bool count = false;
    cli::ExplainFlags explain;
    std::string out;       // output destination ("" or "-" = stdout)
    std::uint64_t limit = 0; // 0 = unlimited
    Tick timelineEpoch = 0;  // --timeline=N offline reconstruction
    bool chromeTrace = false; // --chrome-trace export
};

void
usage()
{
    std::printf(
        "tlrquery — query tlrsim --trace-raw binary traces\n\n"
        "  tlrquery [flags] FILE\n\n"
        "  --header            print the file header and exit\n"
        "  --filter=SPEC       cpu:N,comp:C,kind:K,class:G,addr:A,\n"
        "                      tick:LO-HI (repeat keys to OR,\n"
        "                      distinct keys AND; same syntax as\n"
        "                      tlrsim --trace-filter)\n"
        "  --cpu=N --kind=K --class=G --lock=A --tick=LO-HI\n"
        "                      shorthands merged into --filter\n"
        "  --count[=KEY]       aggregate matching records by KEY =\n"
        "                      kind (default) | cpu | class | lock |\n"
        "                      comp\n"
        "  --limit=N           print at most N records\n"
        "  --explain[=MODE]    replay matching records through the\n"
        "                      causal explainer; MODE = txn | lock |\n"
        "                      cpu\n"
        "  --explain-json=FILE write the explain document as JSON\n"
        "  --timeline=N        replay the whole file through the epoch\n"
        "                      timeline (N-cycle epochs) and emit the\n"
        "                      CSV — byte-identical to the same run's\n"
        "                      online tlrsim --timeline-epoch=N\n"
        "                      --timeline-out\n"
        "  --chrome-trace      replay the whole file into Chrome\n"
        "                      trace-event JSON (opens in Perfetto):\n"
        "                      a span per transaction instance,\n"
        "                      instant markers, deferral flow arrows\n"
        "                      and per-cpu defer-depth tracks\n"
        "  --out=FILE          write output to FILE instead of stdout\n"
        "  --version           build metadata + schema versions\n");
}

std::string
countKeyOf(const TraceRecord &r, const std::string &key)
{
    if (key == "cpu")
        return "cpu" + std::to_string(r.cpu);
    if (key == "class")
        return traceClassName(traceClassOf(r.kind));
    if (key == "lock")
        return strfmt("%#llx", static_cast<unsigned long long>(r.addr));
    if (key == "comp")
        return traceCompName(r.comp);
    return traceEventName(r.kind); // "kind" (default)
}

/**
 * Fill @p o and @p filter from the command line. @return -1 to go on
 * and query, or the exit status once --help, --version or an unknown
 * flag has been handled. A malformed value or filter throws
 * std::invalid_argument.
 */
int
parseArgs(int argc, char **argv, Options &o, TraceFilter &filter)
{
    using cli::parseFlag;
    using cli::parseNumber;
    auto addFilterTerm = [&](const std::string &term) {
        std::string err = filter.parse(term);
        if (!err.empty())
            throw std::invalid_argument("bad filter: " + err);
    };
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (parseFlag(a, "--filter", v)) addFilterTerm(v);
        else if (parseFlag(a, "--cpu", v)) addFilterTerm("cpu:" + v);
        else if (parseFlag(a, "--kind", v)) addFilterTerm("kind:" + v);
        else if (parseFlag(a, "--class", v)) addFilterTerm("class:" + v);
        else if (parseFlag(a, "--lock", v)) addFilterTerm("addr:" + v);
        else if (parseFlag(a, "--addr", v)) addFilterTerm("addr:" + v);
        else if (parseFlag(a, "--tick", v)) addFilterTerm("tick:" + v);
        else if (parseFlag(a, "--count", v)) {
            o.count = true;
            o.countKey = v;
        }
        else if (std::strcmp(a, "--count") == 0) {
            o.count = true;
            o.countKey = "kind";
        }
        else if (parseFlag(a, "--limit", v))
            o.limit = parseNumber<std::uint64_t>("limit", v);
        else if (cli::parseExplainFlag(a, o.explain)) continue;
        else if (parseFlag(a, "--timeline", v))
            o.timelineEpoch = parseNumber<Tick>("timeline", v);
        else if (std::strcmp(a, "--chrome-trace") == 0)
            o.chromeTrace = true;
        else if (parseFlag(a, "--out", v)) o.out = v;
        else if (std::strcmp(a, "--header") == 0) o.header = true;
        else if (std::strcmp(a, "--version") == 0) {
            std::printf("%s", versionString("tlrquery").c_str());
            return 0;
        }
        else if (std::strcmp(a, "--help") == 0 ||
                 std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else if (a[0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", a);
            usage();
            return 1;
        } else if (o.file.empty()) {
            o.file = a;
        } else {
            std::fprintf(stderr, "more than one input file\n");
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
    TraceFilter filter;
    try {
        const int rc = parseArgs(argc, argv, o, filter);
        if (rc >= 0)
            return rc;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "tlrquery: %s\n", e.what());
        return 1;
    }
    if (o.file.empty()) {
        std::fprintf(stderr, "no input file\n");
        usage();
        return 1;
    }
    const int modes =
        o.count + o.explain.on + (o.timelineEpoch > 0) + o.chromeTrace;
    if (modes > 1) {
        std::fprintf(stderr, "--count, --explain, --timeline and "
                             "--chrome-trace are exclusive\n");
        return 1;
    }
    const char *wholeFile = o.chromeTrace ? "--chrome-trace"
                            : o.timelineEpoch > 0 ? "--timeline"
                                                  : nullptr;
    if (wholeFile && !filter.empty()) {
        // A thinned stream would reconstruct a different run than the
        // one recorded; refuse rather than silently diverge.
        std::fprintf(stderr,
                     "%s replays the full stream (no --filter); "
                     "record the file unfiltered\n",
                     wholeFile);
        return 1;
    }
    if (o.count && o.countKey != "kind" && o.countKey != "cpu" &&
        o.countKey != "class" && o.countKey != "lock" &&
        o.countKey != "comp") {
        std::fprintf(stderr,
                     "unknown count key '%s' "
                     "(kind|cpu|class|lock|comp)\n",
                     o.countKey.c_str());
        return 1;
    }

    RawTraceReader reader;
    std::string err = reader.open(o.file);
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }

    std::string buffer;
    auto emit = [&](const std::string &line) { buffer += line; };

    const RawTraceHeader &h = reader.header();
    if (o.header) {
        emit(strfmt("file: %s\n", o.file.c_str()));
        emit(strfmt("version: %u\nrecord_size: %u\nrecords: %llu\n"
                    "final_tick: %llu\n",
                    h.version, h.recordSize,
                    static_cast<unsigned long long>(h.recordCount),
                    static_cast<unsigned long long>(h.finalTick)));
    } else if (o.count) {
        std::map<std::string, std::uint64_t> counts;
        std::uint64_t total = 0;
        reader.forEach([&](const TraceRecord &r) {
            if (!filter.empty() && !filter.matches(r))
                return;
            ++counts[countKeyOf(r, o.countKey)];
            ++total;
        });
        for (const auto &[key, n] : counts)
            emit(strfmt("%12llu  %s\n",
                        static_cast<unsigned long long>(n),
                        key.c_str()));
        emit(strfmt("%12llu  total\n",
                    static_cast<unsigned long long>(total)));
    } else if (o.timelineEpoch > 0) {
        // The exact offline mirror of tlrsim --timeline-epoch: the
        // full record stream plus finish(finalTick), so the CSV is
        // byte-identical to the online --timeline-out file.
        EpochTimeline timeline(o.timelineEpoch);
        reader.replay(timeline);
        emit(timeline.csv());
    } else if (o.chromeTrace) {
        TxnLifecycle lifecycle;
        reader.replay(lifecycle);
        std::ostringstream os;
        lifecycle.exportChromeTrace(os);
        emit(os.str());
    } else if (o.explain.on) {
        Explainer explainer;
        reader.forEach([&](const TraceRecord &r) {
            if (!filter.empty() && !filter.matches(r))
                return;
            explainer.onRecord(r);
        });
        explainer.finish(h.finalTick);
        emit(explainer.report(o.explain.mode));
        std::string err = cli::writeExplainJson(o.explain, explainer);
        if (!err.empty()) {
            std::fprintf(stderr, "tlrquery: %s\n", err.c_str());
            return 1;
        }
    } else {
        std::uint64_t printed = 0;
        reader.forEach([&](const TraceRecord &r) {
            if (!filter.empty() && !filter.matches(r))
                return;
            if (o.limit && printed >= o.limit)
                return;
            emit(formatRecord(r) + "\n");
            ++printed;
        });
    }

    err = cli::writeText(o.out, buffer);
    if (!err.empty()) {
        std::fprintf(stderr, "tlrquery: %s\n", err.c_str());
        return 1;
    }
    return 0;
}
