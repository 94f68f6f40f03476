/**
 * @file
 * Error reporting.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs), fatal() for user/configuration errors,
 * warn()/inform() for advisories.
 */

#ifndef TLR_SIM_LOGGING_HH
#define TLR_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace tlr
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace tlr

#define panic(...) \
    ::tlr::panicImpl(__FILE__, __LINE__, ::tlr::strfmt(__VA_ARGS__))
#define fatal(...) \
    ::tlr::fatalImpl(__FILE__, __LINE__, ::tlr::strfmt(__VA_ARGS__))
#define warn(...) ::tlr::warnImpl(::tlr::strfmt(__VA_ARGS__))
#define inform(...) ::tlr::informImpl(::tlr::strfmt(__VA_ARGS__))

#endif // TLR_SIM_LOGGING_HH
