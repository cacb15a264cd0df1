#include "src/driver/orchestrator.hh"

#include <cstdio>
#include <exception>
#include <fstream>
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

} // namespace

Orchestrator::Orchestrator(Options options)
    : options_(std::move(options)), cache_(options_.cacheDir),
      telemetry_(options_.telemetry)
{
    if (options_.jobs == 0) options_.jobs = 1;
    workerJobs_.assign(options_.jobs, 0);

    statreg_.addCounter("driver.jobs.submitted",
                        "jobs handed to run() across all invocations",
                        &jobsSubmitted_);
    statreg_.addCounter("driver.jobs.simulated",
                        "jobs that ran a simulation on a worker",
                        &jobsSimulated_);
    statreg_.addCounter("driver.jobs.cached",
                        "jobs answered from the result cache",
                        &jobsCached_);
    statreg_.addCounter("driver.jobs.failed",
                        "jobs whose simulation threw", &jobsFailed_);
    statreg_.addCounter("driver.calibrations.computed",
                        "LC calibrations simulated on a worker",
                        &calibrationsComputed_);
    statreg_.addCounter("driver.calibrations.cached",
                        "LC calibrations answered from the cache",
                        &calibrationsCached_);
    statreg_.addGauge("driver.queue.peakDepth",
                      "high-water mark of queued tasks", [this] {
                          return static_cast<double>(peakQueueDepth_);
                      });
    statreg_.addGauge("driver.workers", "worker-pool size", [this] {
        return static_cast<double>(options_.jobs);
    });
    for (WorkerId w = 0; w < options_.jobs; w++)
        statreg_.addCounter("driver.worker" + statIndexName(w) + ".jobs",
                            "jobs executed by this worker",
                            &workerJobs_[w]);
}

std::vector<JobOutcome>
Orchestrator::run(const JobGraph &graph)
{
    const double runStart = telemetryNowSec();
    const std::size_t n = graph.size();
    std::vector<JobOutcome> outcomes(n);
    jobsSubmitted_ += n;

    const bool tracing = options_.tracer != nullptr;
    std::vector<Tracer> jobTracers(tracing ? n : 0);
    std::vector<WorkerId> ranOn(n, 0);
    // Disjoint-slot discipline, same as outcomes/ranOn: slot id is
    // written by the submitting thread before submit() and by the
    // one worker that runs job id after, never concurrently.
    std::vector<JobTiming> timings(n);
    telemetry_.beginBatch(n);

    std::uint64_t cached = 0;
    {
        Pool pool(options_.jobs);
        for (JobId id = 0; id < n; id++) {
            const SweepJob &job = graph.job(id);
            JobTiming &timing = timings[id];
            // Probe the cache on the submitting thread: a hit is a
            // file read and never occupies a worker. Tracing bypasses
            // the cache — a cached result has no trace events.
            if (!tracing && job.cacheable && cache_.enabled()) {
                const double probeStart = telemetryNowSec();
                std::optional<MixResult> hit;
                {
                    JUMANJI_PROF_SCOPE("driver.cache.probe");
                    hit = cache_.loadResult(jobKey(job));
                }
                timing.probeSec = telemetryNowSec() - probeStart;
                if (hit) {
                    outcomes[id].ok = true;
                    outcomes[id].fromCache = true;
                    outcomes[id].result = std::move(*hit);
                    timing.cached = true;
                    timing.ok = true;
                    timing.accesses = accessesOf(outcomes[id].result);
                    telemetry_.jobDone(timing.accesses);
                    cached++;
                    continue;
                }
            }
            timing.submitAt = telemetryNowSec();
            pool.submit([this, &graph, &outcomes, &jobTracers, &ranOn,
                         &timings, tracing, id](WorkerId w) {
                JUMANJI_PROF_SCOPE("driver.job.simulate");
                const SweepJob &todo = graph.job(id);
                JobOutcome &out = outcomes[id];
                JobTiming &timing = timings[id];
                timing.worker = w;
                timing.startAt = telemetryNowSec();
                ranOn[id] = w;
                workerJobs_[w] += 1;
                SystemConfig cfg = todo.config;
                // Jobs never share a tracer: private or none.
                cfg.tracer = tracing ? &jobTracers[id] : nullptr;
                try {
                    if (todo.selfCalibrate) {
                        ExperimentHarness local(cfg);
                        out.result = local.runMix(todo.mix,
                                                  todo.designs,
                                                  todo.load);
                    } else {
                        out.result = ExperimentHarness::runCalibrated(
                            cfg, todo.mix, todo.designs, todo.load,
                            todo.calibrations);
                    }
                    out.ok = true;
                } catch (const std::exception &e) {
                    out.ok = false;
                    out.error = e.what();
                }
                if (out.ok && !tracing && todo.cacheable)
                    cache_.storeResult(jobKey(todo), out.result);
                timing.ok = out.ok;
                if (out.ok) timing.accesses = accessesOf(out.result);
                timing.endAt = telemetryNowSec();
                telemetry_.jobDone(timing.accesses);
            });
        }
        pool.drain();
        if (pool.peakQueueDepth() > peakQueueDepth_)
            peakQueueDepth_ = pool.peakQueueDepth();
    }

    const double mergeStart = telemetryNowSec();
    JUMANJI_PROF_SCOPE("driver.merge");
    std::uint64_t simulated = 0;
    std::uint64_t failed = 0;
    for (const JobOutcome &out : outcomes) {
        if (out.fromCache) continue;
        if (out.ok)
            simulated++;
        else
            failed++;
    }
    jobsSimulated_ += simulated;
    jobsCached_ += cached;
    jobsFailed_ += failed;

    if (tracing) {
        // Submission-order merge: the combined trace is independent
        // of which worker ran what or in what order jobs finished.
        for (const Tracer &t : jobTracers)
            options_.tracer->mergeFrom(t);
        // The schedule lane *is* worker-dependent — that is its
        // point: one lane per worker, one span per job, with the
        // JobId as the (logical) timestamp.
        std::uint32_t pid = options_.tracer->beginProcess(
            "driver workers");
        for (WorkerId w = 0; w < options_.jobs; w++)
            options_.tracer->threadName(pid, w,
                                        "worker " + statIndexName(w));
        for (JobId id = 0; id < n; id++)
            options_.tracer->complete(
                pid, ranOn[id], "job", id, 1,
                {{"job", static_cast<double>(id)}});
    }

    // Events are emitted here, after the drain, in JobId order: the
    // log's line order is deterministic even though its durations
    // are wall-clock.
    if (telemetry_.eventsEnabled())
        for (JobId id = 0; id < n; id++)
            telemetry_.jobEvent(id, graph.job(id).label, timings[id]);
    const double runEnd = telemetryNowSec();
    telemetry_.runEvent("jobs", n, simulated, cached, failed,
                        options_.jobs, runEnd - runStart,
                        runEnd - mergeStart);
    writeSummary(n, simulated, cached, failed, runEnd - runStart);
    return outcomes;
}

std::vector<LcCalibration>
Orchestrator::runCalibrations(const std::vector<CalibrationJob> &requests)
{
    const double runStart = telemetryNowSec();
    const std::size_t n = requests.size();
    std::vector<LcCalibration> results(n);
    std::vector<std::string> errors(n);
    std::vector<JobTiming> timings(n);
    telemetry_.beginBatch(n);

    std::uint64_t cached = 0;
    {
        Pool pool(options_.jobs);
        for (std::size_t i = 0; i < n; i++) {
            std::string key = calibrationKey(requests[i].config,
                                             requests[i].lcName);
            const double probeStart = telemetryNowSec();
            if (auto hit = cache_.loadCalibration(key)) {
                results[i] = *hit;
                timings[i].probeSec = telemetryNowSec() - probeStart;
                timings[i].cached = true;
                timings[i].ok = true;
                telemetry_.jobDone(0);
                cached++;
                continue;
            }
            timings[i].probeSec = telemetryNowSec() - probeStart;
            timings[i].submitAt = telemetryNowSec();
            pool.submit([this, &requests, &results, &errors, &timings,
                         i, key](WorkerId w) {
                JUMANJI_PROF_SCOPE("driver.calibration");
                timings[i].worker = w;
                timings[i].startAt = telemetryNowSec();
                try {
                    ExperimentHarness local(requests[i].config);
                    results[i] =
                        local.calibrationFor(requests[i].lcName);
                    cache_.storeCalibration(key, results[i]);
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
                timings[i].ok = errors[i].empty();
                timings[i].endAt = telemetryNowSec();
                telemetry_.jobDone(0);
            });
        }
        pool.drain();
        if (pool.peakQueueDepth() > peakQueueDepth_)
            peakQueueDepth_ = pool.peakQueueDepth();
    }

    if (telemetry_.eventsEnabled())
        for (std::size_t i = 0; i < n; i++)
            telemetry_.calibrationEvent(requests[i].lcName,
                                        timings[i]);
    telemetry_.runEvent("calibrations", n, n - cached, cached, 0,
                        options_.jobs, telemetryNowSec() - runStart,
                        0.0);

    for (std::size_t i = 0; i < n; i++)
        if (!errors[i].empty())
            fatal("calibration of " + requests[i].lcName +
                  " failed: " + errors[i]);
    calibrationsComputed_ += n - cached;
    calibrationsCached_ += cached;
    return results;
}

void
Orchestrator::writeSummary(std::uint64_t total, std::uint64_t simulated,
                           std::uint64_t cached, std::uint64_t failed,
                           double wallSec) const
{
    if (options_.summaryPath.empty()) return;
    std::ofstream out(options_.summaryPath, std::ios::app);
    if (!out) return;
    // The two trailing fields are wall-clock telemetry; they are
    // appended last so grep checks over the deterministic count
    // fields keep matching.
    char tail[64];
    std::snprintf(tail, sizeof(tail), " hitrate=%.2f wall=%.3f",
                  total > 0 ? static_cast<double>(cached) /
                                  static_cast<double>(total)
                            : 0.0,
                  wallSec);
    out << "jobs=" << total << " simulated=" << simulated
        << " cached=" << cached << " failed=" << failed
        << " workers=" << options_.jobs << tail << "\n";
}

} // namespace driver
} // namespace jumanji
