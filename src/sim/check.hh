/**
 * @file
 * Contract-checking macros for simulator invariants.
 *
 * Three flavours, all gem5-panic-style (they throw PanicError so
 * tests can observe them, after dumping the failing expression and
 * the current simulation context — tick, bank, core, phase — to
 * stderr):
 *
 *  - JUMANJI_ASSERT(expr[, msg])     preconditions / local sanity
 *  - JUMANJI_INVARIANT(expr[, msg])  cross-structure consistency
 *  - JUMANJI_UNREACHABLE(msg)        impossible control flow
 *
 * Activation: checks are compiled in whenever NDEBUG is not defined
 * (Debug builds) and compiled out otherwise (Release/RelWithDebInfo),
 * so the hot path pays nothing in optimized builds. Two per-TU
 * overrides exist for tests and targeted debugging:
 *
 *  - #define JUMANJI_FORCE_CHECKS 1 before including this header (or
 *    as a target compile definition) to force checks on; or
 *  - #define JUMANJI_DISABLE_CHECKS 1 to force them off.
 *
 * Disabled JUMANJI_ASSERT/JUMANJI_INVARIANT still *type-check* their
 * expression inside an `if (false)` so Release builds cannot rot, but
 * never evaluate it. Disabled JUMANJI_UNREACHABLE lowers to
 * __builtin_unreachable().
 *
 * Context: subsystems publish where the simulation currently is via
 * the cheap setters below (a single store each); the failure handler
 * includes the latest values in its dump. The event queue publishes
 * the tick, banks publish their id, cores publish their id, and the
 * runtime publishes a phase string.
 */

#ifndef JUMANJI_SIM_CHECK_HH
#define JUMANJI_SIM_CHECK_HH

#include <cstdint>
#include <string>

#include "src/sim/types.hh"

#if defined(JUMANJI_DISABLE_CHECKS)
#define JUMANJI_CHECKS_ACTIVE 0
#elif defined(JUMANJI_FORCE_CHECKS) || !defined(NDEBUG)
#define JUMANJI_CHECKS_ACTIVE 1
#else
#define JUMANJI_CHECKS_ACTIVE 0
#endif

namespace jumanji {

/** Where the simulation currently is, for failure dumps. */
struct CheckContext
{
    Tick tick = 0;
    BankId bank = kInvalidBank;
    CoreId core = -1;
    /** Static string naming the current phase (never freed). */
    const char *phase = "startup";
    /** True while a CheckContextScope (one live run) is open. */
    bool active = false;
};

namespace detail {

/** Storage behind checkContext(); constinit, so no init guard. */
extern constinit thread_local CheckContext threadCheckContext;

} // namespace detail

/**
 * The current thread's context. Each simulation runs single-threaded
 * on one worker; making the context thread-local lets the driver run
 * several independent Systems concurrently without their failure
 * dumps (or the scope assert below) cross-talking. Inline: the event
 * queue and every core step publish into it.
 */
inline CheckContext &
checkContext()
{
    return detail::threadCheckContext;
}

/**
 * RAII marker for one live simulation run on this worker thread.
 * Entering resets the thread's context and, in Debug, asserts that no
 * other run is live on the same thread — two interleaved runs would
 * corrupt each other's failure context (and signal a driver bug:
 * jobs must not nest). System::run() opens one per run.
 */
class CheckContextScope
{
  public:
    CheckContextScope();
    ~CheckContextScope();

    CheckContextScope(const CheckContextScope &) = delete;
    CheckContextScope &operator=(const CheckContextScope &) = delete;
};

/** Publishes the current simulated tick (called by the DES kernel). */
inline void
checkSetTick(Tick tick)
{
    checkContext().tick = tick;
}

/** Publishes the bank currently being accessed. */
inline void
checkSetBank(BankId bank)
{
    checkContext().bank = bank;
}

/** Publishes the core currently executing. */
inline void
checkSetCore(CoreId core)
{
    checkContext().core = core;
}

/** Publishes the current phase. @p phase must outlive the run. */
inline void
checkSetPhase(const char *phase)
{
    checkContext().phase = phase;
}

/**
 * True when the core checking TU (check.cc) was compiled with
 * contract checks active, i.e. whether CheckContextScope's liveness
 * assert can fire in this build. Lets tests adapt to the build type.
 */
bool checksActiveInCore();

namespace detail {

/**
 * Dumps the failure (expression, message, context) to stderr and
 * throws PanicError. Never returns.
 */
[[noreturn]] void checkFailed(const char *kind, const char *file,
                              int line, const char *func,
                              const char *expr, const std::string &msg);

/** "tick=... bank=... core=... phase=..." for the current context. */
std::string describeContext();

inline std::string
checkMessage()
{
    return std::string();
}

inline std::string
checkMessage(const std::string &msg)
{
    return msg;
}

inline std::string
checkMessage(const char *msg)
{
    return std::string(msg);
}

} // namespace detail
} // namespace jumanji

#if JUMANJI_CHECKS_ACTIVE

#define JUMANJI_ASSERT(expr, ...)                                         \
    do {                                                                  \
        if (!(expr)) {                                                    \
            ::jumanji::detail::checkFailed(                               \
                "assertion", __FILE__, __LINE__, __func__, #expr,         \
                ::jumanji::detail::checkMessage(__VA_ARGS__));            \
        }                                                                 \
    } while (0)

#define JUMANJI_INVARIANT(expr, ...)                                      \
    do {                                                                  \
        if (!(expr)) {                                                    \
            ::jumanji::detail::checkFailed(                               \
                "invariant", __FILE__, __LINE__, __func__, #expr,         \
                ::jumanji::detail::checkMessage(__VA_ARGS__));            \
        }                                                                 \
    } while (0)

#define JUMANJI_UNREACHABLE(...)                                          \
    ::jumanji::detail::checkFailed(                                       \
        "unreachable", __FILE__, __LINE__, __func__, "unreachable code",  \
        ::jumanji::detail::checkMessage(__VA_ARGS__))

#else // !JUMANJI_CHECKS_ACTIVE

// Type-check but never evaluate, so call sites stay warning-free and
// cannot bit-rot in Release builds.
#define JUMANJI_ASSERT(expr, ...)                                         \
    do {                                                                  \
        if (false) { (void)(expr); }                                      \
    } while (0)

#define JUMANJI_INVARIANT(expr, ...)                                      \
    do {                                                                  \
        if (false) { (void)(expr); }                                      \
    } while (0)

#define JUMANJI_UNREACHABLE(...) __builtin_unreachable()

#endif // JUMANJI_CHECKS_ACTIVE

#endif // JUMANJI_SIM_CHECK_HH
