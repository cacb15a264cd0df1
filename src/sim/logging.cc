#include "src/sim/logging.hh"

namespace jumanji {

namespace {
bool quiet = false;
} // namespace

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

void
warn(const std::string &msg)
{
    if (!quiet) std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
warnAlways(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
setQuiet(bool q)
{
    quiet = q;
}

} // namespace jumanji
