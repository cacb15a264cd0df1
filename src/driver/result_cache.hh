/**
 * @file
 * A content-addressed on-disk result cache for sweep jobs.
 *
 * The key is the FNV-1a fingerprint of everything a deterministic
 * simulation's outcome can depend on: the code version tag below, the
 * full SystemConfig (seed included), the workload mix, the design
 * list, the load level, and — for pre-calibrated jobs — the installed
 * calibrations. Determinism is the load-bearing property: the
 * simulator guarantees results are a pure function of (config, mix,
 * seed), which is exactly what makes a byte-for-byte result cache
 * sound. Re-running an unchanged sweep point is a file read.
 *
 * Values are small self-describing binary blobs (magic + schema
 * version; u64s little-endian, doubles by bit pattern, strings
 * length-prefixed). Any mismatch — wrong magic, truncation, schema
 * drift — reads as a miss, never an error: a corrupt cache costs a
 * re-simulation, nothing more. Stores write to a temp file and
 * rename, so concurrent processes sharing a cache directory see
 * either the old file or the whole new one.
 */

#ifndef JUMANJI_DRIVER_RESULT_CACHE_HH
#define JUMANJI_DRIVER_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "src/driver/job.hh"

namespace jumanji {
namespace driver {

/**
 * Cache-key version tag. Bump whenever simulation semantics change —
 * any edit that can alter a RunResult for the same (config, mix,
 * seed) — so stale results can never be served. The CI orchestration
 * job's warm-cache check will catch a forgotten bump only when the
 * change also shifts the serial golden, so err toward bumping.
 */
inline constexpr const char *kCodeVersion = "jumanji-results-v1";

/** Fingerprint of every input a job's result depends on, as hex. */
std::string jobKey(const SweepJob &job);

/** Key for one LC app's calibration under @p config. */
std::string calibrationKey(const SystemConfig &config,
                           const std::string &lcName);

class ResultCache
{
  public:
    /** @param dir Cache directory; created on first store. Empty
     *         string disables the cache (all loads miss, stores
     *         drop). A directory that cannot be created or written
     *         warns once per process and caches nothing. */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Cached result for @p key, or nullopt on miss/corruption. */
    std::optional<MixResult> loadResult(const std::string &key) const;

    /** Persists @p result under @p key (atomic temp + rename). */
    void storeResult(const std::string &key, const MixResult &result);

    std::optional<LcCalibration>
    loadCalibration(const std::string &key) const;

    void storeCalibration(const std::string &key,
                          const LcCalibration &calibration);

  private:
    std::string pathFor(const std::string &key,
                        const char *suffix) const;
    void storeBlob(const std::string &path, const std::string &blob);
    std::optional<std::string> loadBlob(const std::string &path) const;

    std::string dir_;
    /** Serializes temp-file writes within this process. */
    std::mutex storeMutex_;
};

/** Blob codecs, exposed for tests (round-trip coverage). */
std::string serializeMixResult(const MixResult &result);
std::optional<MixResult> deserializeMixResult(const std::string &blob);
std::string serializeCalibration(const LcCalibration &calibration);
std::optional<LcCalibration>
deserializeCalibration(const std::string &blob);

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_RESULT_CACHE_HH
