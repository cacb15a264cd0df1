/**
 * @file
 * Job descriptions for the experiment driver: one SweepJob per
 * independent (config, mix) simulation point, collected into a
 * JobGraph whose submission order defines the deterministic merge
 * order of results.
 *
 * Jobs are *values*: everything a worker needs (config, workload,
 * designs, load, calibrations) is copied into the job up front, so a
 * worker thread touches no shared state while executing one. That is
 * the whole concurrency story of the driver — simulation code stays
 * single-threaded per job (and the lint concurrency-routing rule
 * keeps it that way); only parallelFor and the orchestrator in
 * src/driver/ know threads exist.
 */

#ifndef JUMANJI_DRIVER_JOB_HH
#define JUMANJI_DRIVER_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/system/harness.hh"

namespace jumanji {
namespace driver {

using JobId = std::uint32_t;

/** One independent sweep point: runs a mix under a set of designs. */
struct SweepJob
{
    /** Human-readable tag ("mix3", "panic 1.10"); labels trace lanes. */
    std::string label;

    /** Fully resolved config — seed already derived for this point. */
    SystemConfig config;
    WorkloadMix mix;
    std::vector<LlcDesign> designs;
    LoadLevel load = LoadLevel::High;

    /**
     * When true, the worker calibrates the mix's LC apps itself from
     * `config` (matching a serial `ExperimentHarness(config)` run).
     * When false, `calibrations` must cover the mix's LC apps and is
     * folded into the cache key (it is a job input).
     */
    bool selfCalibrate = true;
    LcCalibrationMap calibrations;

    /** Opt-out for jobs whose results must not be cached. */
    bool cacheable = true;
};

/** What came back from one job, in submission order. */
struct JobOutcome
{
    bool ok = false;
    /** Result was loaded from the on-disk cache, not simulated. */
    bool fromCache = false;
    /** what() of the escaped FatalError/PanicError when !ok. */
    std::string error;
    MixResult result;
};

/**
 * An ordered collection of independent jobs. The id handed back by
 * add() is the job's index, and Orchestrator::run returns outcomes
 * indexed the same way — merge order is submission order, always.
 * (Independence is a contract: jobs must not depend on each other's
 * results. Edges can be added here if a future stage needs them.)
 */
class JobGraph
{
  public:
    JobId
    add(SweepJob job)
    {
        jobs_.push_back(std::move(job));
        return static_cast<JobId>(jobs_.size() - 1);
    }

    std::size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }

    const SweepJob &job(JobId id) const { return jobs_[id]; }

    /**
     * Mutable access for graph builders that resolve job inputs in a
     * second pass (the spec expander fills shared calibrations after
     * all jobs exist). Not for use once the graph is running.
     */
    SweepJob &mutableJob(JobId id) { return jobs_[id]; }

    const std::vector<SweepJob> &jobs() const { return jobs_; }

  private:
    std::vector<SweepJob> jobs_;
};

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_JOB_HH
