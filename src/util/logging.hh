/**
 * @file
 * Minimal gem5-flavoured status/error reporting.
 *
 * fatal() is for user/configuration errors the library cannot recover
 * from; panic() is for internal invariant violations (bugs). Both are
 * implemented on top of exceptions so library users and tests can
 * observe them.
 */

#ifndef SENTINELFLASH_UTIL_LOGGING_HH
#define SENTINELFLASH_UTIL_LOGGING_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace flash::util
{

/** Raised by fatal(): a configuration/usage error. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raised by panic(): an internal invariant violation. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Report an unrecoverable usage/configuration error. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation (a library bug). */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (does not stop execution). */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/**
 * fatal() when the condition holds. The message is only copied into a
 * string on failure, so a check in a per-page loop costs one branch.
 */
inline void
fatalIf(bool cond, std::string_view msg)
{
    if (cond)
        fatal(std::string(msg));
}

/** panic() when the condition holds (message copied only on failure). */
inline void
panicIf(bool cond, std::string_view msg)
{
    if (cond)
        panic(std::string(msg));
}

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_LOGGING_HH
