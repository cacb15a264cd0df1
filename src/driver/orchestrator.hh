/**
 * @file
 * Orchestrator: runs the calibrations a sweep needs, then its
 * JobGraph of independent sweep points, on parallelFor workers,
 * merging outcomes back in submission order. A job only runs
 * runCalibrated on the calibrations it carries; every calibration is
 * a task of runCalibrations, so it is cached and logged like a job.
 *
 * Both task lists go through one loop. It probes the result cache for
 * every task on the calling thread (a hit is a file read and never
 * occupies a worker), runs the misses through parallelFor in
 * ascending index order, and returns one JobTiming per task; the
 * event log's counts come from those timings.
 *
 * The determinism contract, in one sentence: parallelism may change
 * *when* a result is computed, never *what* it is or *where* it lands
 * in the output. Three rules enforce it:
 *   1. every job is a self-contained value (config + mix + designs +
 *      calibrations) executed by single-threaded simulation code;
 *   2. outcomes, merged traces, and cache stores are indexed by JobId
 *      (= submission order), never by completion order or worker id;
 *   3. anything scheduling-dependent (which worker ran what, how long
 *      a task waited) lives only in the event log, which is never
 *      folded into result fingerprints.
 * Hence `--jobs 4` and `--jobs 1` produce byte-identical tables,
 * --selfcheck digests and merged traces.
 *
 * Tracing keeps jobs out of the result cache (a cached result carries
 * no trace events), keeping traced runs complete. Calibrations never
 * trace, so they use the cache either way.
 */

#ifndef JUMANJI_DRIVER_ORCHESTRATOR_HH
#define JUMANJI_DRIVER_ORCHESTRATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/driver/job.hh"
#include "src/driver/result_cache.hh"
#include "src/driver/telemetry.hh"
#include "src/sim/tracing.hh"

namespace jumanji {
namespace driver {

/** One LC-app calibration to compute (or fetch from the cache). */
struct CalibrationJob
{
    std::string lcName;
    /** The config the app is calibrated under (calibrateLcApp). */
    SystemConfig config;
};

class Orchestrator
{
  public:
    struct Options
    {
        /** Worker threads. 1 reproduces serial execution exactly. */
        std::uint32_t jobs = 1;
        /** Result-cache directory; empty disables caching. */
        std::string cacheDir;
        /**
         * Merged trace sink. Non-null gives every job a private
         * tracer, merged back in submission order, and keeps the
         * jobs out of the result cache.
         */
        Tracer *tracer = nullptr;
        /**
         * Event log + heartbeat knobs (src/driver/telemetry.hh).
         * Both off by default; neither affects results.
         */
        TelemetryOptions telemetry;
    };

    explicit Orchestrator(Options options);

    const Options &options() const { return options_; }

    /**
     * Executes every job of @p graph (runCalibrated on the job's own
     * calibrations) and returns outcomes indexed by JobId. Does not
     * throw on job failure: a job whose simulation escapes with
     * FatalError/PanicError yields ok == false with the message, and
     * every other job still runs to completion.
     */
    std::vector<JobOutcome> run(const JobGraph &graph);

    /**
     * Computes (calibrateLcApp) or loads from cache one calibration
     * per request, in parallel, returned in request order. Throws
     * FatalError if any calibration fails — a sweep cannot proceed
     * without them.
     */
    std::vector<LcCalibration>
    runCalibrations(const std::vector<CalibrationJob> &requests);

  private:
    Options options_;
    ResultCache cache_;
    Telemetry telemetry_;

    /**
     * Answers task i from the result cache into the caller's output
     * slot (setting the timing's accesses where it has any); returns
     * false on a miss.
     */
    using Probe = std::function<bool(std::size_t, JobTiming &)>;
    /**
     * Computes task i into the caller's slot on a worker; sets the
     * timing's ok (and accesses).
     */
    using Simulate = std::function<void(std::size_t, JobTiming &)>;

    /**
     * The task loop behind run() and runCalibrations(). When
     * @p probing, probes every task on the calling thread, in index
     * order, before any worker starts; then runs the misses through
     * parallelFor. Returns one timing per task.
     */
    std::vector<JobTiming> runTasks(std::size_t n, bool probing,
                                    const Probe &probe,
                                    const Simulate &simulate);
};

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_ORCHESTRATOR_HH
