/**
 * @file
 * Command-line plumbing shared by tlrsim, tlrquery and tlrreport:
 * flag matching, checked number parsing, the --explain family of
 * flags, and the one text writer every output file goes through.
 *
 * A malformed value throws std::invalid_argument("invalid value for
 * --FLAG: 'V'"); each tool prints it and exits 1. A writer failure
 * comes back as a message naming the path.
 */

#ifndef TLR_TOOLS_CLI_HH
#define TLR_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "explain/explain.hh"
#include "sim/logging.hh"

namespace tlr::cli
{

/** True when @p arg is `NAME=VALUE`; @p out then holds VALUE. */
inline bool
parseFlag(const char *arg, const char *name, std::string &out)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

/**
 * The value of numeric flag --@p flag: an integer (decimal, or 0x/0
 * prefixed as in strtoull) or, for a floating-point @p T, a finite
 * decimal number, within [@p lo, @p hi]. Empty input, a sign on an
 * unsigned flag, trailing characters and out-of-range values throw
 * std::invalid_argument("invalid value for --FLAG: 'V'").
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &v,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    const char *begin = v.c_str();
    char *end = nullptr;
    errno = 0;
    bool ok = !v.empty() && !std::isspace(static_cast<unsigned char>(v[0]));
    T out{};
    if constexpr (std::is_floating_point_v<T>) {
        const double d = std::strtod(begin, &end);
        ok = ok && std::isfinite(d);
        out = static_cast<T>(d);
    } else if constexpr (std::is_signed_v<T>) {
        const long long x = std::strtoll(begin, &end, 0);
        ok = ok && x >= lo && x <= hi;
        out = static_cast<T>(x);
    } else {
        const unsigned long long x = std::strtoull(begin, &end, 0);
        ok = ok && v[0] != '-' && v[0] != '+' && x <= hi;
        out = static_cast<T>(x);
    }
    if (!ok || errno == ERANGE || *end != '\0' || out < lo || out > hi)
        throw std::invalid_argument(strfmt("invalid value for --%s: '%s'",
                                           flag, v.c_str()));
    return out;
}

/** txn (also the empty mode) | lock | cpu; anything else throws like
 *  parseNumber. */
inline ExplainMode
parseExplainMode(const std::string &m)
{
    if (m.empty() || m == "txn")
        return ExplainMode::Txn;
    if (m == "lock")
        return ExplainMode::Lock;
    if (m == "cpu")
        return ExplainMode::Cpu;
    throw std::invalid_argument(strfmt(
        "invalid value for --explain: '%s' (txn|lock|cpu)", m.c_str()));
}

/** What --explain[=MODE] and --explain-json=FILE asked for; the file
 *  flag turns the explainer on too. */
struct ExplainFlags
{
    bool on = false;
    ExplainMode mode = ExplainMode::Txn;
    std::string json; ///< explain JSON destination
};

/** Consume @p arg if it is one of the --explain flags. */
inline bool
parseExplainFlag(const char *arg, ExplainFlags &e)
{
    std::string v;
    if (parseFlag(arg, "--explain-json", v))
        e.json = v;
    else if (parseFlag(arg, "--explain", v))
        e.mode = parseExplainMode(v);
    else if (std::strcmp(arg, "--explain") != 0)
        return false;
    e.on = true;
    return true;
}

/** Write @p text to the file @p path, or to stdout when @p path is ""
 *  or "-". @return "" on success, else a message naming the path. */
inline std::string
writeText(const std::string &path, const std::string &text)
{
    if (path.empty() || path == "-") {
        if (std::fwrite(text.data(), 1, text.size(), stdout) !=
                text.size() ||
            std::fflush(stdout) != 0)
            return "write failed for stdout";
        return "";
    }
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return "cannot write '" + path + "'";
    out << text;
    out.close();
    if (!out)
        return "write failed for '" + path + "'";
    return "";
}

/** Write the JSON document of @p x to the file @p e names, if any.
 *  @return "" on success, else writeText's message. */
inline std::string
writeExplainJson(const ExplainFlags &e, const Explainer &x)
{
    return e.json.empty() ? "" : writeText(e.json, x.json());
}

} // namespace tlr::cli

#endif // TLR_TOOLS_CLI_HH
