/**
 * @file
 * Logging and error-handling primitives for the rex library.
 *
 * Follows the gem5 discipline: panic() for internal invariant violations
 * (library bugs), fatal() for user errors (bad test files, bad model
 * parameters), warn()/inform() for diagnostics that do not stop execution.
 */

#ifndef REX_BASE_LOGGING_HH
#define REX_BASE_LOGGING_HH

#include <cstdarg>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rex {

/** Severity of a log message. */
enum class LogLevel {
    Debug,
    Info,
    Warn,
    Error,
};

/**
 * Global minimum severity that is actually emitted.
 * Defaults to Warn so that library use is quiet; tools raise it.
 */
LogLevel logThreshold();

/** Set the global log threshold. */
void setLogThreshold(LogLevel level);

/** Emit a log line (with severity prefix) if above the threshold. */
void logMessage(LogLevel level, const std::string &msg);

/** Error thrown by fatal(): the user asked for something unsatisfiable. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Error thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

/**
 * Report an unrecoverable user-level error (bad input, bad configuration).
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal library bug (violated invariant).
 * @throws PanicError always.
 */
[[noreturn]] void panic(const std::string &msg);

/** Emit a warning (does not stop execution). */
void warn(const std::string &msg);

/** Emit an informational message (does not stop execution). */
void inform(const std::string &msg);

/**
 * Assert an internal invariant, panicking with @p msg when it fails.
 * Kept as a function (not a macro) so it is always evaluated.
 */
inline void
rexAssert(bool condition, const std::string &msg)
{
    if (!condition)
        panic(msg);
}

/** As above; a literal message builds no string unless the check
 *  fails, which keeps asserts on hot paths free. */
inline void
rexAssert(bool condition, const char *msg)
{
    if (!condition)
        panic(msg);
}

} // namespace rex

#endif // REX_BASE_LOGGING_HH
