#include "src/sim/check.hh"

// lint-allow-file: io-routing contract-failure reporting must reach
// stderr even when the logging layer itself is the thing that broke,
// so this file writes directly (mirrors how panic handlers avoid
// re-entering the subsystem that failed).

#include <cstdio>
#include <sstream>

#include "src/sim/logging.hh"

namespace jumanji {

constinit thread_local CheckContext detail::threadCheckContext;

CheckContextScope::CheckContextScope()
{
    CheckContext &ctx = checkContext();
    JUMANJI_ASSERT(!ctx.active,
                   "two live simulation runs on one worker thread");
    ctx = CheckContext{};
    ctx.active = true;
}

CheckContextScope::~CheckContextScope()
{
    checkContext() = CheckContext{};
}

bool
checksActiveInCore()
{
    return JUMANJI_CHECKS_ACTIVE != 0;
}

namespace detail {

std::string
describeContext()
{
    const CheckContext &ctx = checkContext();
    std::ostringstream os;
    os << "tick=" << ctx.tick;
    os << " bank=";
    if (ctx.bank == kInvalidBank) os << "-";
    else os << ctx.bank;
    os << " core=";
    if (ctx.core < 0) os << "-";
    else os << ctx.core;
    os << " phase=" << (ctx.phase != nullptr ? ctx.phase : "?");
    return os.str();
}

void
checkFailed(const char *kind, const char *file, int line,
            const char *func, const char *expr, const std::string &msg)
{
    std::string context = describeContext();
    std::fprintf(stderr,
                 "jumanji: %s FAILED at %s:%d in %s\n"
                 "  expression: %s\n"
                 "  context:    %s\n",
                 kind, file, line, func, expr, context.c_str());
    if (!msg.empty())
        std::fprintf(stderr, "  message:    %s\n", msg.c_str());

    std::ostringstream os;
    os << kind << " failed: " << expr;
    if (!msg.empty()) os << " (" << msg << ")";
    os << " at " << file << ":" << line << " [" << context << "]";
    panic(os.str());
}

} // namespace detail
} // namespace jumanji
