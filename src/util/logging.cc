#include "logging.hh"

#include <cstdio>

namespace ovlsim {

int
runMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const FatalError &err) {
        detail::emitLog("fatal: ", err.what());
        return 1;
    }
}

namespace detail {

void
emitLog(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace detail

} // namespace ovlsim
