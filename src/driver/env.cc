#include "src/driver/env.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>

#include "src/sim/logging.hh"

namespace jumanji {
namespace driver {

namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/** Warns with @p message the first time @p var is reported. */
void
warnOncePerVariable(const char *var, const std::string &message)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(mutex);
    if (warned.insert(var).second) warnAlways(message);
}

/**
 * The shared env policy: unset → @p fallback; parsed → the value;
 * anything else warns once per variable and falls back.
 */
template <typename T, typename Parse>
T
fromEnv(const char *var, T fallback, Parse parse, const char *expected)
{
    const char *env = std::getenv(var);
    if (env == nullptr) return fallback;
    if (std::optional<T> value = parse(env)) return *value;
    warnOncePerVariable(var, std::string(var) + "=\"" + env +
                                 "\" is not " + expected +
                                 "; using fallback " +
                                 std::to_string(fallback));
    return fallback;
}

template <typename T>
auto
unsignedIn(std::uint64_t lo, std::uint64_t hi)
{
    return [lo, hi](const char *text) -> std::optional<T> {
        if (auto v = parseUnsigned(text, lo, hi))
            return static_cast<T>(*v);
        return std::nullopt;
    };
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    // strtoull alone accepts leading whitespace, a sign ("-1" wraps
    // to 2^64-1), and trailing junk; demand a plain digit string.
    if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

std::uint32_t
mixCountFromEnv(std::uint32_t fallback)
{
    return fromEnv("JUMANJI_MIXES", fallback,
                   unsignedIn<std::uint32_t>(1, kU32Max),
                   "a mix count in [1, 2^32-1]");
}

std::uint32_t
jobCountFromEnv(std::uint32_t fallback)
{
    return fromEnv("JUMANJI_JOBS", fallback,
                   unsignedIn<std::uint32_t>(1, kU32Max),
                   "a worker count in [1, 2^32-1]");
}

std::uint64_t
seedFromEnv(std::uint64_t fallback)
{
    return fromEnv("JUMANJI_SEED", fallback,
                   unsignedIn<std::uint64_t>(
                       1, std::numeric_limits<std::uint64_t>::max()),
                   "a seed in [1, 2^64-1]");
}

double
kvLoadScaleFromEnv(double fallback)
{
    auto parse = [](const char *text) -> std::optional<double> {
        char *end = nullptr;
        double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || !(v > 0.0) || v > 1e3)
            return std::nullopt;
        return v;
    };
    return fromEnv("JUMANJI_KV_LOAD_SCALE", fallback, parse,
                   "a scale in (0, 1000]");
}

std::uint32_t
heartbeatMsFromEnv(std::uint32_t fallback)
{
    return fromEnv("JUMANJI_HEARTBEAT_MS", fallback,
                   unsignedIn<std::uint32_t>(0, kU32Max),
                   "a whole number of milliseconds >= 0");
}

std::string
cacheDirFromEnv()
{
    const char *env = std::getenv("JUMANJI_CACHE_DIR");
    return env == nullptr ? std::string() : std::string(env);
}

} // namespace driver
} // namespace jumanji
