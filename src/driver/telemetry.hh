/**
 * @file
 * Host-side profiling, part 2 of 2: orchestrator telemetry — where
 * every wall-clock second of a sweep goes (part 1, the in-simulator
 * scope profiler, lives in src/sim/profiler.hh).
 *
 * Two independent outputs, both off by default and both outside the
 * deterministic stats stream (wall time never reaches fingerprints,
 * golden tables, or cache keys):
 *
 *  - a JSONL event log (one JSON object per line, appended to
 *    `--events-out` / $JUMANJI_EVENTS): one "calibration" event per
 *    calibration request, one "job" event per sweep job with queue
 *    wait, cache-probe and simulate durations, cache hit/miss, and
 *    worker id, and one "run" summary event per orchestrator
 *    invocation. Events are written by the orchestrator's own
 *    thread after the pool has drained, in JobId order — the log
 *    order is deterministic even though the timings are not.
 *
 *  - a rate-limited stderr heartbeat for long sweeps
 *    (`--heartbeat-ms` / $JUMANJI_HEARTBEAT_MS): jobs done/total,
 *    aggregate simulated accesses/s, elapsed, and a naive ETA.
 *    Each beat is a single write to stderr, so it never interleaves
 *    with the table output on stdout, and it deliberately bypasses
 *    logging's --quiet gate (progress is the point; the CLI runs
 *    quiet).
 *
 * telemetry.cc is, with sim/profiler.cc, one of exactly two
 * sanctioned wall-clock readers in src/ (the lint clock-routing
 * rule): driver code that wants a timestamp calls telemetryNowSec()
 * instead of touching <chrono> itself.
 */

#ifndef JUMANJI_DRIVER_TELEMETRY_HH
#define JUMANJI_DRIVER_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>

#include "src/driver/job.hh"
#include "src/driver/pool.hh"

namespace jumanji {
namespace driver {

/**
 * Monotonic seconds since the first call in this process. The
 * driver's single sanctioned clock read; every duration in the
 * event log is a difference of these.
 */
double telemetryNowSec();

struct TelemetryOptions
{
    /** JSONL event log, appended to; empty disables events. */
    std::string eventsPath;
    /** Minimum milliseconds between heartbeats; 0 disables them. */
    std::uint32_t heartbeatMs = 0;
};

/**
 * TelemetryOptions from $JUMANJI_EVENTS and $JUMANJI_HEARTBEAT_MS.
 * A malformed heartbeat value warns once and leaves the heartbeat off
 * (driver::heartbeatMsFromEnv, src/driver/env.hh).
 */
TelemetryOptions telemetryOptionsFromEnv();

/**
 * Per-job wall-clock record. Workers fill disjoint slots of a
 * vector indexed by JobId (the same discipline as the outcome
 * vector), so no synchronization is needed until the pool drains.
 */
struct JobTiming
{
    /** telemetryNowSec() timestamps; 0 when the step never ran. */
    double submitAt = 0.0;
    double startAt = 0.0;
    double endAt = 0.0;
    /** Result-cache probe on the submitting thread. */
    double probeSec = 0.0;
    WorkerId worker = 0;
    bool cached = false;
    bool ok = false;
    /** Simulated accesses (llc.hits + llc.misses), for rates. */
    std::uint64_t accesses = 0;
};

class Telemetry
{
  public:
    explicit Telemetry(TelemetryOptions options);

    bool eventsEnabled() const { return events_.is_open(); }
    bool heartbeatEnabled() const { return options_.heartbeatMs > 0; }

    /**
     * Starts a heartbeat batch of @p totalJobs. jobDone() is called
     * by workers (and by the cache-hit path) once per finished job;
     * a beat prints when at least heartbeatMs has passed since the
     * last one, plus always on the final job.
     */
    void beginBatch(std::uint64_t totalJobs);
    void jobDone(std::uint64_t accesses);

    // Event-log writes. Callers serialize (the orchestrator emits
    // them from its own thread once the pool has drained).
    void jobEvent(JobId id, const std::string &label,
                  const JobTiming &t);
    void calibrationEvent(const std::string &lcName,
                          const JobTiming &t);
    void runEvent(const char *kind, std::uint64_t total,
                  std::uint64_t simulated, std::uint64_t cached,
                  std::uint64_t failed, std::uint32_t workers,
                  double wallSec, double mergeSec);

  private:
    TelemetryOptions options_;
    std::ofstream events_;
    std::uint64_t totalJobs_ = 0;
    double batchStart_ = 0.0;
    std::atomic<std::uint64_t> jobsDone_{0};
    std::atomic<std::uint64_t> accessesDone_{0};
    std::atomic<std::uint64_t> lastBeatMs_{0};
};

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_TELEMETRY_HH
