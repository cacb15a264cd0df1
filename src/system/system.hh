/**
 * @file
 * System: assembles a full simulated machine — cores, apps, the LLC
 * complex (MemPath), the runtime, and the DES kernel — from a
 * SystemConfig and a WorkloadMix, runs it, and exposes results.
 *
 * This is the library's primary entry point; see examples/ for use.
 */

#ifndef JUMANJI_SYSTEM_SYSTEM_HH
#define JUMANJI_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/runtime_driver.hh"
#include "src/cpu/core_model.hh"
#include "src/metrics/energy.hh"
#include "src/metrics/speedup.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/statreg.hh"
#include "src/system/config.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/mixes.hh"
#include "src/workloads/tail_latency.hh"

namespace jumanji {

/** Per-application results over the measurement window. */
struct AppResult
{
    std::string name;
    AppId app = kInvalidApp;
    VmId vm = kInvalidVm;
    bool latencyCritical = false;
    AppProgress progress;
    AccessCounters counters;
    /** Mean end-to-end LLC access latency observed (cycles). */
    double avgAccessLatency = 0.0;
    /** LC apps: 95th-percentile request latency (cycles). */
    double tailLatency = 0.0;
    /** LC apps: deadline used by the controller (cycles). */
    double deadline = 0.0;
    std::uint64_t requestsCompleted = 0;
};

/** Calibrated characteristics of one LC app (Sec. VII). */
struct LcCalibration
{
    /** Uncontended mean service time, cycles (sets arrival rates). */
    double serviceCycles = 0.0;
    /** Tail-latency deadline, cycles. */
    double deadline = 0.0;
};

using LcCalibrationMap = std::map<std::string, LcCalibration>;

/** Results of one System run. */
struct RunResult
{
    std::vector<AppResult> apps;
    Tick measuredTicks = 0;

    /**
     * End-of-run registry snapshot (every leaf, sorted by name) and
     * the per-epoch time series the recorder sampled. Both outlive
     * the System that produced them; the scalar views below read
     * them rather than keeping copies.
     */
    std::vector<StatValue> statDump;
    TimelineSeries timeline;

    /**
     * Value of registry leaf @p name in statDump, or @p fallback when
     * the leaf does not exist.
     */
    double stat(const std::string &name, double fallback = 0.0) const;

    /** Weighted speedup of batch apps vs. a reference run. */
    double batchWeightedSpeedup(const RunResult &reference) const;

    /**
     * Attackers per LLC access ("sys.attackersPerAccess"). Window:
     * the Sampler clears the primary path's vulnerability stats
     * every epoch, so that path contributes only the accesses since
     * the last epoch tick, while the ideal-batch twin's share (when
     * present) covers the whole measurement window.
     */
    double attackersPerAccess() const;

    /** Placement epochs executed, warmup included. */
    std::uint64_t reconfigurations() const;

    /** Lines moved by coherence walks, warmup included. */
    std::uint64_t coherenceInvalidations() const;

    /** Max over LC apps of tail / deadline ("sys.tail.worstRatio"). */
    double worstTailRatio() const;

    /** Mean over LC apps of tail / deadline ("sys.tail.meanRatio"). */
    double meanTailRatio() const;

    /** Dynamic data-movement energy summed over apps. */
    EnergyBreakdown energy() const;
};

/**
 * A fully assembled simulated machine.
 */
class System
{
  public:
    /**
     * @param config System parameters.
     * @param mix Workload (VMs with LC + batch apps).
     * @param calibrations Per-LC-app-name measured service times and
     *        deadlines. Apps missing from the map fall back to the
     *        analytic nominal service estimate and a 5x-nominal
     *        deadline (good enough for tests; the harness always
     *        calibrates).
     */
    System(const SystemConfig &config, const WorkloadMix &mix,
           const LcCalibrationMap &calibrations = {});

    ~System();

    /** Runs warmup + measurement; returns results. */
    RunResult run();

    /** Runs only until @p tick (manual control; tests). */
    void runUntil(Tick tick);

    /** Begins the measurement window at the current time. */
    void startMeasurement();

    /** Collects results since startMeasurement(). */
    RunResult collect();

    /** Nominal (uncontended) service time for an LC app, cycles. */
    static double nominalServiceCycles(const TailAppParams &params);

    MemPath &memPath() { return *path_; }
    RuntimeDriver &runtime() { return *runtime_; }
    EventQueue &queue() { return queue_; }
    const SystemConfig &config() const { return config_; }

    /** The hierarchical stats registry (read-only queries). */
    const StatRegistry &stats() const { return statreg_; }

    /**
     * The per-epoch recorder feeding RunResult::timeline: the only
     * per-epoch record of a run (Fig. 4's latency, allocation and
     * vulnerability series are its columns).
     */
    const EpochRecorder &recorder() const { return *recorder_; }

    /** Cores, in app order. */
    const std::vector<std::unique_ptr<CoreModel>> &
    cores() const
    {
        return cores_;
    }

    /** The LC app models (for load changes etc.). */
    std::vector<TailLatencyApp *> tailApps();

    /**
     * Migrates app @p appIndex's thread to @p newTile (Sec. IV-B).
     * The core agent is re-anchored and the runtime is informed so
     * the next reconfiguration moves the LLC allocation along with
     * the thread. @p newTile must not host another app.
     */
    void migrateApp(std::size_t appIndex, std::uint32_t newTile);

    /** The KV app models, in app order (empty for non-KV mixes). */
    const std::vector<KvServerApp *> &kvApps() const
    {
        return kvApps_;
    }

  private:
    /** Epoch agent: epoch gauges and the recorder's rows. */
    class Sampler;
    /** Applies the KV load trace to the KV apps over time. */
    class KvLoadAgent;

    /** Mean over KV apps of phase latency percentile / deadline. */
    double kvPhaseRatio(const std::string &phase, double p) const;

    void assignTiles(const WorkloadMix &mix);
    void buildApps(const WorkloadMix &mix,
                   const LcCalibrationMap &calibrations);
    /** Populates statreg_; runs after buildApps so UMONs exist. */
    void registerStats();
    /** Allocates trace lanes and attaches the tracer, if any. */
    void setupTracing();

    SystemConfig config_;
    EventQueue queue_;
    std::unique_ptr<MemPath> path_;
    std::unique_ptr<MemPath> idealBatchPath_;
    std::unique_ptr<RuntimeDriver> runtime_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<KvLoadAgent> kvAgent_;

    /** Offered-load trace driving kvApps_ (empty when none). */
    LoadTrace kvTrace_;
    std::vector<KvServerApp *> kvApps_;

    /** Declared before recorder_: the recorder samples it. */
    StatRegistry statreg_;
    std::unique_ptr<EpochRecorder> recorder_;

    /** Trace lane block (valid when config_.tracer != nullptr). */
    std::uint32_t tracePid_ = 0;
    /**
     * Per-bank counter-track names, interned into the tracer's
     * pointer-stable storage once at setup so the sampler's per-epoch
     * emission skips the interning lookup.
     */
    std::vector<const char *> bankTrackNames_;

    struct AppSlot
    {
        std::string name;
        VmId vm = kInvalidVm;
        bool latencyCritical = false;
        std::uint32_t tile = 0;
        double deadline = 0.0;
    };
    std::vector<AppSlot> slots_;
    std::vector<std::unique_ptr<AppModel>> apps_;
    std::vector<std::unique_ptr<CoreModel>> cores_;

    Tick measureStart_ = 0;

    Rng rootRng_;
};

} // namespace jumanji

#endif // JUMANJI_SYSTEM_SYSTEM_HH
