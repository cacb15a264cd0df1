#include "src/driver/orchestrator.hh"

#include <exception>
#include <optional>
#include <utility>

#include "src/driver/pool.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"

namespace jumanji {
namespace driver {

namespace {

/** Simulated accesses of a finished mix, for telemetry rates. */
std::uint64_t
accessesOf(const MixResult &result)
{
    double total = 0.0;
    for (const DesignResult &d : result.designs)
        total += d.run.stat("llc.hits", 0.0) +
                 d.run.stat("llc.misses", 0.0);
    return total > 0.0 ? static_cast<std::uint64_t>(total) : 0;
}

/** The counts of the run event. */
struct Tally
{
    std::uint64_t simulated = 0;
    std::uint64_t cached = 0;
    std::uint64_t failed = 0;
};

Tally
tallyOf(const std::vector<JobTiming> &timings)
{
    Tally tally;
    for (const JobTiming &t : timings) {
        if (t.cached)
            tally.cached++;
        else if (t.ok)
            tally.simulated++;
        else
            tally.failed++;
    }
    return tally;
}

} // namespace

Orchestrator::Orchestrator(Options options)
    : options_(std::move(options)), cache_(options_.cacheDir),
      telemetry_(options_.telemetry)
{
    if (options_.jobs == 0) options_.jobs = 1;
}

std::vector<JobTiming>
Orchestrator::runTasks(std::size_t n, bool probing, const Probe &probe,
                       const Simulate &simulate)
{
    // Slot i is written by the calling thread while probing and by
    // the one worker that runs task i after, never concurrently.
    std::vector<JobTiming> timings(n);
    telemetry_.beginBatch(n);

    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < n; i++) {
        JobTiming &timing = timings[i];
        if (probing) {
            const double probeStart = telemetryNowSec();
            {
                JUMANJI_PROF_SCOPE("driver.cache.probe");
                timing.cached = probe(i, timing);
            }
            timing.probeSec = telemetryNowSec() - probeStart;
        }
        if (!timing.cached) {
            misses.push_back(i);
            continue;
        }
        timing.ok = true;
        telemetry_.jobDone(timing.accesses);
    }

    // Every miss waits from the start of the parallel phase.
    const double submitAt = telemetryNowSec();
    parallelFor(misses.size(), options_.jobs,
                [&](std::size_t k, WorkerId w) {
                    JobTiming &timing = timings[misses[k]];
                    timing.submitAt = submitAt;
                    timing.worker = w;
                    timing.startAt = telemetryNowSec();
                    simulate(misses[k], timing);
                    timing.endAt = telemetryNowSec();
                    telemetry_.jobDone(timing.accesses);
                });
    return timings;
}

std::vector<JobOutcome>
Orchestrator::run(const JobGraph &graph)
{
    const double runStart = telemetryNowSec();
    const std::size_t n = graph.size();
    std::vector<JobOutcome> outcomes(n);

    const bool tracing = options_.tracer != nullptr;
    std::vector<Tracer> jobTracers(tracing ? n : 0);

    // Tracing bypasses the cache: a cached result has no trace events.
    const std::vector<JobTiming> timings = runTasks(
        n, !tracing && cache_.enabled(),
        [&](std::size_t id, JobTiming &timing) {
            std::optional<MixResult> hit =
                cache_.loadResult(jobKey(graph.job(id)));
            if (!hit) return false;
            JobOutcome &out = outcomes[id];
            out.ok = true;
            out.fromCache = true;
            out.result = std::move(*hit);
            timing.accesses = accessesOf(out.result);
            return true;
        },
        [&](std::size_t id, JobTiming &timing) {
            JUMANJI_PROF_SCOPE("driver.job.simulate");
            const SweepJob &job = graph.job(id);
            JobOutcome &out = outcomes[id];
            SystemConfig cfg = job.config;
            // Jobs never share a tracer: private or none.
            cfg.tracer = tracing ? &jobTracers[id] : nullptr;
            try {
                if (job.selfCalibrate) {
                    ExperimentHarness local(cfg);
                    out.result = local.runMix(job.mix, job.designs,
                                              job.load);
                } else {
                    out.result = ExperimentHarness::runCalibrated(
                        cfg, job.mix, job.designs, job.load,
                        job.calibrations);
                }
                out.ok = true;
            } catch (const std::exception &e) {
                out.ok = false;
                out.error = e.what();
            }
            // A key serializes the config, so it is made only for a
            // cache that will store it.
            if (out.ok && !tracing && cache_.enabled())
                cache_.storeResult(jobKey(job), out.result);
            timing.ok = out.ok;
            if (out.ok) timing.accesses = accessesOf(out.result);
        });

    const double mergeStart = telemetryNowSec();
    JUMANJI_PROF_SCOPE("driver.merge");
    // Submission-order merge (jobTracers is empty unless tracing): the
    // combined trace is independent of which worker ran what or in
    // what order jobs finished.
    for (const Tracer &t : jobTracers) options_.tracer->mergeFrom(t);

    // Events are emitted here, after the workers have joined, in
    // JobId order: the log's line order is deterministic even though
    // its durations are wall-clock.
    if (telemetry_.eventsEnabled())
        for (JobId id = 0; id < n; id++)
            telemetry_.jobEvent(id, graph.job(id).label, timings[id]);
    const Tally tally = tallyOf(timings);
    const double runEnd = telemetryNowSec();
    telemetry_.runEvent("jobs", n, tally.simulated, tally.cached,
                        tally.failed, options_.jobs, runEnd - runStart,
                        runEnd - mergeStart);
    return outcomes;
}

std::vector<LcCalibration>
Orchestrator::runCalibrations(const std::vector<CalibrationJob> &requests)
{
    const double runStart = telemetryNowSec();
    const std::size_t n = requests.size();
    std::vector<LcCalibration> results(n);
    std::vector<std::string> errors(n);
    const auto keyOf = [&requests](std::size_t i) {
        return calibrationKey(requests[i].config, requests[i].lcName);
    };

    const std::vector<JobTiming> timings = runTasks(
        n, cache_.enabled(),
        [&](std::size_t i, JobTiming &) {
            std::optional<LcCalibration> hit =
                cache_.loadCalibration(keyOf(i));
            if (hit) results[i] = *hit;
            return hit.has_value();
        },
        [&](std::size_t i, JobTiming &timing) {
            JUMANJI_PROF_SCOPE("driver.calibration");
            try {
                ExperimentHarness local(requests[i].config);
                results[i] = local.calibrationFor(requests[i].lcName);
                if (cache_.enabled())
                    cache_.storeCalibration(keyOf(i), results[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
            timing.ok = errors[i].empty();
        });

    if (telemetry_.eventsEnabled())
        for (std::size_t i = 0; i < n; i++)
            telemetry_.calibrationEvent(requests[i].lcName,
                                        timings[i]);
    const Tally tally = tallyOf(timings);
    telemetry_.runEvent("calibrations", n, tally.simulated, tally.cached,
                        tally.failed, options_.jobs,
                        telemetryNowSec() - runStart, 0.0);

    for (std::size_t i = 0; i < n; i++)
        if (!errors[i].empty())
            fatal("calibration of " + requests[i].lcName +
                  " failed: " + errors[i]);
    return results;
}

} // namespace driver
} // namespace jumanji
