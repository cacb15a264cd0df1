/**
 * @file
 * The environment knobs of the tools and benches (JUMANJI_MIXES,
 * JUMANJI_JOBS, JUMANJI_SEED, JUMANJI_HEARTBEAT_MS,
 * JUMANJI_CACHE_DIR), read in one place with
 * one policy: an unset variable yields the fallback; a set value that
 * does not parse or is out of range warns once per variable on stderr
 * (warnAlways: quiet mode does not hide it) and yields the fallback —
 * a typo'd knob never silently runs as the default. warnOnce is that
 * warning, also used by the driver's output paths that cannot be
 * written.
 */

#ifndef JUMANJI_DRIVER_ENV_HH
#define JUMANJI_DRIVER_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

#include "src/driver/orchestrator.hh"

namespace jumanji {
namespace driver {

/**
 * Prints "warn: <message>" on stderr through warnAlways the first
 * time @p key is reported in this process, and does nothing after
 * that. Safe to call from worker threads.
 */
void warnOnce(const std::string &key, const std::string &message);

/**
 * Strict decimal parse of @p text into [@p lo, @p hi]: digits only —
 * no sign, whitespace, or trailing junk — and no overflow. The shared
 * parse behind the env knobs and jumanji_cli's numeric flags.
 */
std::optional<std::uint64_t> parseUnsigned(const std::string &text,
                                           std::uint64_t lo,
                                           std::uint64_t hi);

/** JUMANJI_MIXES in [1, 2^32-1], else @p fallback. */
std::uint32_t mixCountFromEnv(std::uint32_t fallback);

/** JUMANJI_JOBS (worker threads) in [1, 2^32-1], else @p fallback. */
std::uint32_t jobCountFromEnv(std::uint32_t fallback);

/**
 * JUMANJI_SEED in [1, 2^64-1], else @p fallback: the full uint64
 * range except 0, which is reserved as "unset".
 */
std::uint64_t seedFromEnv(std::uint64_t fallback = 1);

/**
 * JUMANJI_HEARTBEAT_MS in [0, 2^32-1], else @p fallback (0 = off).
 */
std::uint32_t heartbeatMsFromEnv(std::uint32_t fallback = 0);

/**
 * The orchestrator the environment asks for: JUMANJI_JOBS workers
 * (default 1), the JUMANJI_CACHE_DIR result cache (unset = off), and
 * the telemetry knobs (telemetryOptionsFromEnv). The benches run on
 * it as is; jumanji_cli starts from it and lets its flags override.
 */
Orchestrator::Options orchestratorOptionsFromEnv();

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_ENV_HH
