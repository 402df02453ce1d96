#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace ovlsim {

namespace {

std::atomic<LogLevel> globalLevel{LogLevel::warn};

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "quiet")
        return LogLevel::quiet;
    if (name == "warn")
        return LogLevel::warn;
    if (name == "inform")
        return LogLevel::inform;
    if (name == "debug")
        return LogLevel::debug;
    fatal("unknown log level `", name,
          "` (expected quiet, warn, inform or debug)");
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::quiet:
        return "quiet";
      case LogLevel::warn:
        return "warn";
      case LogLevel::inform:
        return "inform";
      case LogLevel::debug:
        return "debug";
    }
    panic("logLevelName: bad level");
}

int
runMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const FatalError &err) {
        detail::emitLog(LogLevel::quiet, "fatal: ", err.what());
        return 1;
    }
}

void
initLogLevelFromEnv()
{
    const char *env = std::getenv("OVLSIM_LOG");
    if (env == nullptr || *env == '\0')
        return;
    setLogLevel(parseLogLevel(env));
}

namespace detail {

void
emitLog(LogLevel level, const char *prefix, const std::string &msg)
{
    if (static_cast<int>(level) >
        static_cast<int>(globalLevel.load(std::memory_order_relaxed))) {
        return;
    }
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace detail

} // namespace ovlsim
