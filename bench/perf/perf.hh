/**
 * @file
 * jumanji_perf, the repository benchmark (bench/perf/README.md).
 *
 * One process runs one workload: an ExperimentSpec under
 * bench/perf/workloads/ that is expanded with driver::expandSpec and
 * executed by a driver::Orchestrator with the result cache off. A run
 * sets the workload up several times (set-up time is an end-to-end
 * metric of its own), then repeats whole passes over the job graph for
 * the requested number of host seconds and checks every pass. With
 * --trace 1 it instead makes one untraced reference pass, one traced
 * pass that drives each System by hand in epoch-sized slices, and a
 * set of per-layer probes, and reports the per-layer ledger.
 *
 * Every host-time reading goes through nowSec(), which is
 * driver::telemetryNowSec, so the benchmark adds no clock source.
 */

#ifndef JUMANJI_BENCH_PERF_PERF_HH
#define JUMANJI_BENCH_PERF_PERF_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/spec.hh"

namespace jumanji {
namespace perf {

/** Host seconds on src/driver's monotonic telemetry clock. */
double nowSec();

// ---- Statistics -------------------------------------------------------

/** Median of @p values (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> values);

/**
 * The three cut points of Python's statistics.quantiles(values, n=4)
 * (its default "exclusive" method); requires at least two values.
 */
std::vector<double> quartiles(std::vector<double> values);

/**
 * Counts correctness checks against the number attempted. Every
 * failed check is reported on stderr with @p what.
 */
class CheckTally
{
  public:
    bool check(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---- Workloads --------------------------------------------------------

struct Workload
{
    std::string name;
    /** Orchestrator worker threads for the timed passes. */
    std::uint32_t jobs = 1;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Looks up @p name; fatal() when it is not a workload. */
const Workload &findWorkload(const std::string &name);

/** Parses and validates bench/perf/workloads/<name>.json. */
driver::ExperimentSpec loadSpec(const Workload &workload);

/** A spec expanded for one seed, calibrations filled in. */
struct Prepared
{
    driver::ExperimentSpec spec;
    driver::SpecPlan plan;
    double calibrateSec = 0.0;
};

/**
 * Expands @p spec (which must have one variant), derives every job's
 * simulation seed from @p seed, and runs the shared calibrations
 * through @p orchestrator. The mix composition is part of the
 * workload and does not depend on @p seed; seed 1 reproduces the spec
 * exactly, which is what the goldens pin.
 */
Prepared prepare(driver::ExperimentSpec spec, std::uint64_t seed,
                 driver::Orchestrator &orchestrator);

/** Simulated LLC accesses of one run (llc.hits + llc.misses). */
double simulatedAccesses(const RunResult &run);

/** fingerprintRun digest of one run. */
std::uint64_t runDigest(const RunResult &run);

/**
 * Checks one pass: every job ok and Jumanji exposing no attackers.
 * Returns the results in job order (failed jobs contribute empty
 * results so the indices stay aligned).
 */
std::vector<MixResult>
checkedResults(const driver::SpecPlan &plan,
               std::vector<driver::JobOutcome> outcomes,
               CheckTally &tally);

/**
 * Seed-1 reference checks: the rendered table must equal
 * bench/perf/golden/<name>.txt and the simulated accesses the count
 * pinned in bench/perf/golden/<name>.accesses.
 */
void checkGolden(const Workload &workload, const Prepared &prepared,
                 std::vector<MixResult> &results, CheckTally &tally);

// ---- Per-layer counts -------------------------------------------------

/** Exact counts summed from the statDump of every run. */
struct LayerCounts
{
    double runs = 0.0;
    // cpu (measurement window)
    double coreLlcAccesses = 0.0;
    double instrs = 0.0;
    double stallCycles = 0.0;
    double lcRequests = 0.0;
    // whole run: warmup + measurement
    double hits = 0.0;
    double misses = 0.0;
    double bankQueueCycles = 0.0;
    double vtbInstalls = 0.0;
    double coherenceLines = 0.0;
    double nocHops = 0.0;
    double memAccesses = 0.0;
    double memQueueCycles = 0.0;
    double reconfigurations = 0.0;

    void add(const RunResult &run, std::uint32_t banks);
};

// ---- Traced pass ------------------------------------------------------

/** One timed interval around a call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span; -1 for the root. */
    std::int64_t parent = -1;
    /** Run (System) the span belongs to; 0 outside any run. */
    std::uint32_t run = 0;
    /** Profiler time in sim.epoch.repartition inside the span. */
    double repartitionSec = 0.0;
};

struct TracedPass
{
    std::vector<Span> spans;
    /** digests[job][design], designs in runCalibrated order. */
    std::vector<std::vector<std::uint64_t>> digests;
};

/**
 * Runs every job of @p plan on this thread the way
 * ExperimentHarness::runCalibrated does (Static first), but drives
 * each System by hand: construction, warmup, startMeasurement, the
 * measurement window in epoch-sized slices, collect. Spans are kept
 * in memory; the profiler is armed for the pass.
 */
TracedPass runTracedPass(const driver::SpecPlan &plan);

/** Writes @p spans as Chrome trace-event JSON to @p path. */
void writeSpans(const std::vector<Span> &spans, const std::string &path);

// ---- Probes -----------------------------------------------------------

/** Per-call host cost of one layer function, measured in isolation. */
struct Probes
{
    double eventNs = 0.0;
    double snapshotUs = 0.0;
    double resumeNs = 0.0;
    double planNs = 0.0;
    double accessNs = 0.0;
    double bankNs = 0.0;
    double vtbNs = 0.0;
    double umonNs = 0.0;
    double missCurveUs = 0.0;
    double hopsNs = 0.0;
    double memNs = 0.0;
    double nextBatchNs = 0.0;
    double nextLcNs = 0.0;
    /** (design name, microseconds per reconfigureNow). */
    std::vector<std::pair<std::string, double>> reconfigureUs;
};

/**
 * Times the layer functions on Systems built from @p job and warmed to
 * warmupTicks, fed with lines and owners drawn from those Systems'
 * own apps. @p seed seeds the draws.
 */
Probes runProbes(const driver::SweepJob &job, std::uint64_t seed);

} // namespace perf
} // namespace jumanji

#endif // JUMANJI_BENCH_PERF_PERF_HH
