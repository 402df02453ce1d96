/**
 * @file
 * Status-message and error-termination helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs), fatal() for user errors that make
 * continuing impossible (bad configuration, malformed traces), and
 * warn()/inform() for non-fatal status messages. panic() and fatal()
 * throw typed exceptions so that library users (and the test suite)
 * can intercept them. fatal() prints nothing: a caller may catch the
 * error and raise it again with more context (the line reader adds
 * the file and line, util/line_reader.hh), so only the process
 * boundary knows the final message. There runMain() prints every
 * FatalError once and turns it into exit status 1; a PanicError
 * still aborts.
 */

#ifndef OVLSIM_UTIL_LOGGING_HH
#define OVLSIM_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ovlsim {

/** Thrown by panic(): an internal invariant was violated (a bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the input or configuration is unusable. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The body of every command-line tool's main(): returns
 * body(argc, argv), or 1 when it throws a FatalError, whose message
 * it prints to stderr, once, as `fatal: <message>`. Any other
 * exception still ends the process abnormally.
 */
int runMain(int (*body)(int, char **), int argc, char **argv);

/** Verbosity levels for non-fatal messages. */
enum class LogLevel { quiet = 0, warn = 1, inform = 2, debug = 3 };

/** Set the global verbosity threshold (default: inform). */
void setLogLevel(LogLevel level);

/** Current global verbosity threshold. */
LogLevel logLevel();

/** Parse a level name ("quiet", "warn", "inform", "debug");
 * FatalError on anything else. */
LogLevel parseLogLevel(const std::string &name);

/** Canonical name of a level ("quiet", "warn", ...). */
const char *logLevelName(LogLevel level);

/**
 * Apply the OVLSIM_LOG environment variable (a level name) to the
 * global threshold; a missing/empty variable leaves it untouched.
 * Called by Options::parse so every CLI tool honors it without
 * per-tool wiring; library users may call it directly.
 */
void initLogLevelFromEnv();

namespace detail {

/** Emit a formatted message line to stderr if level passes the filter. */
void emitLog(LogLevel level, const char *prefix, const std::string &msg);

/** Fold arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
foldMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an internal error and throw PanicError. Never returns. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    const std::string msg =
        detail::foldMessage(std::forward<Args>(args)...);
    detail::emitLog(LogLevel::quiet, "panic: ", msg);
    throw PanicError(msg);
}

/** Throw FatalError for an unrecoverable user error; printing it is
 * runMain()'s job. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::foldMessage(std::forward<Args>(args)...));
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitLog(LogLevel::warn, "warn: ",
                    detail::foldMessage(std::forward<Args>(args)...));
}

/** Informative status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitLog(LogLevel::inform, "info: ",
                    detail::foldMessage(std::forward<Args>(args)...));
}

/** Debug-level message, off by default. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::emitLog(LogLevel::debug, "debug: ",
                    detail::foldMessage(std::forward<Args>(args)...));
}

/**
 * Internal invariant check; active in all build types.
 * Unlike assert(), violations raise PanicError with a message.
 */
template <typename... Args>
void
ovlAssert(bool condition, Args &&...args)
{
    if (!condition) {
        panic("assertion failed: ",
              detail::foldMessage(std::forward<Args>(args)...));
    }
}

} // namespace ovlsim

#endif // OVLSIM_UTIL_LOGGING_HH
