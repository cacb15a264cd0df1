/**
 * @file
 * The evaluation methodology of Sec. VII as free functions: deadline
 * calibration, per-design runs of one mix, and normalization against
 * the Static baseline. A calibration or a run is a pure function of
 * its arguments; nothing is cached or shared between calls. Sweeps over many mixes are driver::ExperimentSpec values
 * (src/driver/spec.hh), whose expansion is the one place per-mix
 * seeds, mix RNGs, and every job's calibration requests are derived.
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
 * Calibrates (service, deadline) for @p lcName under @p config, in
 * two steps mirroring Sec. VII:
 *  1. service time: mean request latency running alone at very low
 *     load with the Static 4-way partition (this defines what the
 *     Table III "QPS" levels mean: low = 10%, high = 50% of the
 *     app's service rate at that allocation);
 *  2. deadline: the 95th-percentile latency running alone at *high*
 *     load with the same fixed 4-way partition, padded by a fixed
 *     1.6x (DESIGN.md §5).
 * A pure function of (config, lcName): nothing is cached here. The
 * driver plans, caches and logs each sweep's calibrations
 * (driver::Orchestrator::runCalibrations).
 */
LcCalibration calibrateLcApp(const SystemConfig &config,
                             const std::string &lcName);

/** Calibrates each distinct LC app of @p mix once, under @p config. */
LcCalibrationMap calibrateMix(const SystemConfig &config,
                              const WorkloadMix &mix);

/**
 * Runs @p mix under every design in @p designs (Static is always run
 * first as the normalization baseline) with @p calibrations, which
 * must cover the mix's LC apps. Builds and runs its own single-
 * threaded Systems and touches no shared state, so independent calls
 * are safe on different worker threads.
 */
MixResult runCalibrated(const SystemConfig &config,
                        const WorkloadMix &mix,
                        const std::vector<LlcDesign> &designs,
                        LoadLevel load,
                        const LcCalibrationMap &calibrations);

/**
 * The configs runCalibrated builds one System from each, in run
 * order: Static (the normalization baseline) first, then the other
 * @p designs, each at @p load with its own trace label.
 */
std::vector<SystemConfig>
designConfigs(const SystemConfig &config,
              const std::vector<LlcDesign> &designs, LoadLevel load);

/** runCalibrated with the calibrations of calibrateMix(config, mix). */
MixResult runMix(const SystemConfig &config, const WorkloadMix &mix,
                 const std::vector<LlcDesign> &designs, LoadLevel load);

/** Aggregates gmean batch speedups per design across mixes. */
std::map<LlcDesign, double>
gmeanSpeedups(const std::vector<MixResult> &results);

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
