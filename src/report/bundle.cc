#include "report/bundle.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "sim/build_info.hh"
#include "sim/logging.hh"

namespace tlr
{

namespace
{

bool
isDir(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/** mkdir -p: create every missing component of @p path. */
bool
makeDirs(const std::string &path, std::string &err)
{
    std::string cur;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            slash = path.size();
        cur = path.substr(0, slash);
        pos = slash + 1;
        if (cur.empty() || cur == ".")
            continue;
        if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
            err = "cannot create directory '" + cur +
                  "': " + std::strerror(errno);
            return false;
        }
    }
    if (!isDir(path)) {
        err = "'" + path + "' exists but is not a directory";
        return false;
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &text,
          std::string &err)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        err = "cannot write '" + path + "'";
        return false;
    }
    out << text;
    out.close();
    if (!out) {
        err = "write failed for '" + path + "'";
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** Sanitize a config string into a directory-name-safe slug. */
std::string
slugify(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '-') {
            out += c;
        } else if (c >= 'A' && c <= 'Z') {
            out += static_cast<char>(c - 'A' + 'a');
        } else {
            out += '-';
        }
    }
    return out;
}

} // namespace

std::string
renderManifest(const BundleMeta &meta, const BundleArtifacts &art)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": " << reportBundleSchemaVersion << ",\n";
    os << "  \"schemas\": {\"bundle\": " << reportBundleSchemaVersion
       << ", \"stats_json\": " << statsSchemaVersion
       << ", \"metrics\": " << metricsSchemaVersion
       << ", \"raw_trace\": " << rawTraceFormatVersion
       << ", \"timeline\": " << timelineSchemaVersion
       << ", \"diff_json\": " << diffJsonSchemaVersion << "},\n";
    os << "  \"build\": " << buildMetaJson() << ",\n";
    os << strfmt("  \"host\": {\"jobs\": %u},\n", meta.jobs);
    os << "  \"sim\": {\n";
    os << "    \"workload\": " << jsonStr(meta.workload) << ",\n";
    os << "    \"scheme\": " << jsonStr(meta.scheme) << ",\n";
    os << "    \"protocol\": " << jsonStr(meta.protocol) << ",\n";
    os << strfmt("    \"cpus\": %d, \"ops\": %llu, \"seed\": %llu,\n",
                 meta.cpus, static_cast<unsigned long long>(meta.ops),
                 static_cast<unsigned long long>(meta.seed));
    os << strfmt("    \"theta\": %.6g, \"keys\": %u, "
                 "\"partitions\": %u,\n",
                 meta.theta, meta.keys, meta.partitions);
    os << strfmt("    \"wb_lines\": %u, \"victim_entries\": %u, "
                 "\"yield_timeout\": %llu,\n",
                 meta.wbLines, meta.victimEntries,
                 static_cast<unsigned long long>(meta.yieldTimeout));
    os << strfmt("    \"preempt_every\": %d, \"preempt_quantum\": %llu, "
                 "\"max_ticks\": %llu,\n",
                 meta.preemptEvery,
                 static_cast<unsigned long long>(meta.preemptQuantum),
                 static_cast<unsigned long long>(meta.maxTicks));
    os << strfmt("    \"timeline_epoch\": %llu, \"metrics\": %s, "
                 "\"explain\": %s, \"check_invariants\": %s\n",
                 static_cast<unsigned long long>(meta.timelineEpoch),
                 meta.metrics ? "true" : "false",
                 meta.explain ? "true" : "false",
                 meta.checkInvariants ? "true" : "false");
    os << "  },\n";
    os << strfmt("  \"result\": {\"completed\": %s, \"valid\": %s, "
                 "\"cycles\": %llu, \"invariant_violations\": %llu},\n",
                 meta.completed ? "true" : "false",
                 meta.valid ? "true" : "false",
                 static_cast<unsigned long long>(meta.cycles),
                 static_cast<unsigned long long>(
                     meta.invariantViolations));
    os << "  \"artifacts\": {\"stats\": \"stats.json\""
       << ", \"timeline\": "
       << (art.timelineCsv.empty() ? "null" : "\"timeline.csv\"")
       << ", \"explain\": "
       << (art.explainText.empty() ? "null" : "\"explain.txt\"")
       << ", \"trace\": "
       << (art.rawTracePath.empty() ? "null" : "\"trace.bin\"")
       << "}\n";
    os << "}\n";
    return os.str();
}

std::string
writeRunBundle(const std::string &ledgerDir, const BundleMeta &meta,
               const BundleArtifacts &art, std::string &err)
{
    if (!makeDirs(ledgerDir, err))
        return "";

    // Next sequence number: max numeric prefix of existing entries
    // plus one. Deterministic and timestamp-free, so identical
    // command sequences produce identical ledgers.
    unsigned seq = 0;
    for (const std::string &entry : listLedger(ledgerDir)) {
        size_t slash = entry.find_last_of('/');
        std::string base = slash == std::string::npos
                               ? entry
                               : entry.substr(slash + 1);
        unsigned n = 0;
        size_t i = 0;
        while (i < base.size() && base[i] >= '0' && base[i] <= '9') {
            n = n * 10 + static_cast<unsigned>(base[i] - '0');
            ++i;
        }
        if (i > 0 && n > seq)
            seq = n;
    }
    ++seq;

    std::string slug = slugify(meta.workload) + "-" +
                       slugify(meta.scheme) + "-p" +
                       std::to_string(meta.cpus);
    std::string entryDir =
        ledgerDir + "/" + strfmt("%04u-", seq) + slug;
    if (!makeDirs(entryDir, err))
        return "";

    if (!writeFile(entryDir + "/manifest.json",
                   renderManifest(meta, art), err))
        return "";
    if (!writeFile(entryDir + "/stats.json", art.statsJson, err))
        return "";
    if (!art.timelineCsv.empty() &&
        !writeFile(entryDir + "/timeline.csv", art.timelineCsv, err))
        return "";
    if (!art.explainText.empty() &&
        !writeFile(entryDir + "/explain.txt", art.explainText, err))
        return "";
    if (!art.rawTracePath.empty()) {
        std::string bytes;
        if (!readFile(art.rawTracePath, bytes)) {
            err = "cannot read raw trace '" + art.rawTracePath + "'";
            return "";
        }
        if (!writeFile(entryDir + "/trace.bin", bytes, err))
            return "";
    }
    return entryDir;
}

bool
loadBundle(const std::string &dir, LoadedBundle &out, std::string &err)
{
    out = LoadedBundle{};
    out.dir = dir;
    size_t slash = dir.find_last_of('/');
    // Trailing slashes would make the basename empty; trim them.
    std::string trimmed = dir;
    while (!trimmed.empty() && trimmed.back() == '/')
        trimmed.pop_back();
    slash = trimmed.find_last_of('/');
    out.name = slash == std::string::npos ? trimmed
                                          : trimmed.substr(slash + 1);

    std::string text;
    if (!readFile(dir + "/manifest.json", text)) {
        err = "'" + dir + "' is not a run bundle (no manifest.json)";
        return false;
    }
    if (!parseJson(text, out.manifest, err)) {
        err = dir + "/manifest.json: " + err;
        return false;
    }
    const JsonValue *schema = out.manifest.find("schema_version");
    long v = schema && schema->isNumber()
                 ? static_cast<long>(schema->number)
                 : -1;
    if (v != reportBundleSchemaVersion) {
        err = strfmt("%s: bundle schema_version %ld, this tool "
                     "understands v%d (refusing to read across bundle "
                     "schema versions)",
                     dir.c_str(), v, reportBundleSchemaVersion);
        return false;
    }

    if (!readFile(dir + "/stats.json", text)) {
        err = "'" + dir + "' has no stats.json";
        return false;
    }
    if (!parseJson(text, out.stats, err)) {
        err = dir + "/stats.json: " + err;
        return false;
    }

    readFile(dir + "/timeline.csv", out.timelineCsv);
    readFile(dir + "/explain.txt", out.explainText);
    out.hasTrace = fileExists(dir + "/trace.bin");
    return true;
}

std::vector<std::string>
listLedger(const std::string &ledgerDir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(ledgerDir.c_str());
    if (!d)
        return out;
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        std::string path = ledgerDir + "/" + name;
        if (isDir(path) && fileExists(path + "/manifest.json"))
            out.push_back(path);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace tlr
