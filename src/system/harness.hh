/**
 * @file
 * ExperimentHarness: the evaluation methodology of Sec. VII as
 * reusable code — deadline calibration, per-design runs of one mix,
 * and normalization against the Static baseline. Sweeps over many
 * mixes are driver::ExperimentSpec values (src/driver/spec.hh),
 * whose expansion is the one place per-mix seeds, mix RNGs, and the
 * shared-calibration order are derived.
 */

#ifndef JUMANJI_SYSTEM_HARNESS_HH
#define JUMANJI_SYSTEM_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/fingerprint.hh"
#include "src/system/system.hh"

namespace jumanji {

/** Result of running one (mix, design) pair. */
struct DesignResult
{
    LlcDesign design = LlcDesign::Static;
    RunResult run;
    /** Batch weighted speedup normalized to the Static run. */
    double batchSpeedup = 1.0;

    /** Worst LC tail / deadline across apps (1.0 = at deadline). */
    double tailRatio() const { return run.worstTailRatio(); }
    /** Mean LC tail / deadline across apps. */
    double meanTailRatio() const { return run.meanTailRatio(); }
};

/** Everything measured for one workload mix. */
struct MixResult
{
    WorkloadMix mix;
    std::vector<DesignResult> designs;

    const DesignResult &of(LlcDesign design) const;
};

/**
 * The harness. LC apps are calibrated once per name and cached, in
 * two steps mirroring Sec. VII:
 *  1. service time: mean request latency running alone at very low
 *     load with the Static 4-way partition (this defines what the
 *     Table III "QPS" levels mean: low = 10%, high = 50% of the
 *     app's service rate at that allocation);
 *  2. deadline: the 95th-percentile latency running alone at *high*
 *     load with the same fixed 4-way partition.
 */
class ExperimentHarness
{
  public:
    explicit ExperimentHarness(const SystemConfig &base);

    /** Calibrates (service, deadline) for @p lcName. Cached. */
    const LcCalibration &calibrationFor(const std::string &lcName);

    /** Calibration map covering @p mix's LC apps. */
    LcCalibrationMap calibrationsFor(const WorkloadMix &mix);

    /**
     * Runs @p mix under every design in @p designs (Static is always
     * run first as the normalization baseline).
     */
    MixResult runMix(const WorkloadMix &mix,
                     const std::vector<LlcDesign> &designs,
                     LoadLevel load);

    /**
     * The job-oriented entry point: one fully specified, self-
     * contained sweep point. Equivalent to runMix on a harness whose
     * base config is @p config and whose cache already holds
     * @p calibrations — no harness state is read or written, so
     * independent calls are safe to run on different worker threads
     * (each constructs and runs its own single-threaded Systems).
     */
    static MixResult runCalibrated(const SystemConfig &config,
                                   const WorkloadMix &mix,
                                   const std::vector<LlcDesign> &designs,
                                   LoadLevel load,
                                   const LcCalibrationMap &calibrations);

    /**
     * The configs runCalibrated builds one System from each, in run
     * order: Static (the normalization baseline) first, then the
     * other @p designs, each at @p load with its own trace label.
     */
    static std::vector<SystemConfig>
    designConfigs(const SystemConfig &config,
                  const std::vector<LlcDesign> &designs, LoadLevel load);

  private:
    SystemConfig base_;
    LcCalibrationMap calibrationCache_;
};

/** Aggregates gmean batch speedups per design across mixes. */
std::map<LlcDesign, double>
gmeanSpeedups(const std::vector<MixResult> &results);

/** Aggregates the worst tail ratio per design across mixes. */
std::map<LlcDesign, double>
worstTailRatios(const std::vector<MixResult> &results);

/** Aggregates mean attackers-per-access per design across mixes. */
std::map<LlcDesign, double>
meanVulnerability(const std::vector<MixResult> &results);

/**
 * Folds every stat of @p run into @p fp. The determinism self-check
 * (`jumanji_cli --selfcheck`) compares these digests across two runs
 * of the same config: any divergence means a stat depended on
 * something other than (seed, config).
 */
void fingerprintRun(Fingerprint &fp, const RunResult &run);

/** Folds a whole mix result (workload spec + every design's run). */
void fingerprintMix(Fingerprint &fp, const MixResult &mix);

/** Digest of a full experiment's results. */
std::uint64_t fingerprintResults(const std::vector<MixResult> &results);

} // namespace jumanji

#endif // JUMANJI_SYSTEM_HARNESS_HH
