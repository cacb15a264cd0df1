/**
 * @file
 * Jumanji's software runtime (Sec. IV-B): a DES agent that wakes up
 * every reconfiguration epoch (100 ms in the paper; scaled here),
 * gathers UMON miss curves and feedback-controller targets, runs the
 * active placement policy, and installs descriptors and way masks.
 *
 * It also hosts the RequestCompleted path (Listing 1): LC apps call
 * back on every completed request, and the per-app feedback
 * controllers update allocation targets.
 */

#ifndef JUMANJI_CORE_RUNTIME_DRIVER_HH
#define JUMANJI_CORE_RUNTIME_DRIVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/feedback_controller.hh"
#include "src/core/policies.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;
class Tracer;

/** Registration record for one application under runtime control. */
struct RuntimeAppInfo
{
    VcId vc = kInvalidVc;
    AppId app = kInvalidApp;
    VmId vm = kInvalidVm;
    std::uint32_t coreTile = 0;
    bool latencyCritical = false;
    std::string name;
    /**
     * LLC accesses per cycle the app would issue if never stalled
     * (apki/1000 x baseIpc). Batch miss curves are rescaled to this
     * rate so that an app starved in the *current* placement is not
     * undervalued by the next allocation (raw per-epoch miss counts
     * shrink when the app stalls — a feedback trap). Latency-critical
     * curves are left raw: their low access rates reflect idling, the
     * very signal that makes data-movement-only policies (Jigsaw)
     * deprioritize them, which the paper's results depend on.
     * 0 disables normalization.
     */
    double nominalAccessesPerCycle = 0.0;
};

/**
 * The runtime. Owns controllers and the policy; borrows MemPaths.
 */
class RuntimeDriver : public Agent
{
  public:
    /**
     * @param policy The active LLC design.
     * @param path The (primary) LLC complex.
     * @param idealBatchPath Second LLC for Ideal Batch, else nullptr.
     * @param geo Placement geometry.
     * @param epochTicks Reconfiguration period in cycles.
     */
    RuntimeDriver(std::unique_ptr<LlcPolicy> policy, MemPath *path,
                  MemPath *idealBatchPath, const PlacementGeometry &geo,
                  Tick epochTicks);

    /** Registers an app; LC apps also get a feedback controller. */
    void registerApp(const RuntimeAppInfo &info,
                     const ControllerParams &params, double deadline);

    /**
     * Listing 1: called per completed LC request. @p now (the
     * completion tick) only timestamps trace events; it does not
     * affect control decisions.
     */
    void requestCompleted(VcId vc, double latencyCycles, Tick now = 0);

    /**
     * Thread migration (Sec. IV-B): records that @p vc's thread now
     * runs on @p newTile. The next reconfiguration pulls the VC's
     * allocation toward the new tile, exactly as prior D-NUCAs
     * migrate allocations along with threads.
     */
    void migrateApp(VcId vc, std::uint32_t newTile);

    /** Current tile of @p vc's thread (as the runtime believes). */
    std::uint32_t appTile(VcId vc) const;

    /** The DES hook: runs one reconfiguration. */
    Tick resume(Tick now) override;

    /** Forces an immediate reconfiguration (initial placement). */
    void reconfigureNow(Tick now);

    /** Controller for an LC app (test/inspection). */
    FeedbackController *controller(VcId vc);

    const LlcPolicy &policy() const { return *policy_; }

    /** Epoch period. */
    Tick epochTicks() const { return epochTicks_; }

    /** Changes the controller deadline for an LC app. */
    void setDeadline(VcId vc, double deadline);

    /**
     * Pins every LC allocation to @p lines (0 re-enables feedback
     * control). Fixed-partition studies (Fig. 8, Fig. 12) use this.
     */
    void setFixedLcTarget(std::uint64_t lines) { fixedLcTarget_ = lines; }

    /** Total coherence-walk line moves across all epochs. */
    std::uint64_t totalInvalidations() const { return invalidations_; }

    /** Ablation: disable convex-hulling of UMON curves. */
    void setHullCurves(bool hull) { hullCurves_ = hull; }

    /** Ablation: disable batch curve rate normalization. */
    void setRateNormalize(bool normalize) { rateNormalize_ = normalize; }

    std::uint64_t reconfigurations() const { return reconfigs_; }

    /**
     * Registers runtime stats under @p prefix ("runtime."):
     * reconfiguration/invalidation totals plus per-VC installed
     * allocations and LC controller targets. Call after all apps are
     * registered.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix);

    /**
     * Attaches a tracer (non-owning; nullptr detaches). @p basePid is
     * the pid block from Tracer::beginRun: repartition instants and
     * per-VC allocation counters go to the runtime lane, deadline
     * violations to the offending app's core lane.
     */
    void setTracer(Tracer *tracer, std::uint32_t basePid);

  private:
    EpochInputs gatherInputs();
    void installPlan(const PlacementPlan &plan, Tick now);

    std::unique_ptr<LlcPolicy> policy_;
    MemPath *path_;
    MemPath *idealBatchPath_;
    PlacementGeometry geo_;
    Tick epochTicks_;

    std::vector<RuntimeAppInfo> apps_;
    /**
     * Dense per-VC tables: requestCompleted() runs per completed LC
     * request, so the controller lookup must not tree-walk.
     */
    SmallIdMap<VcId, std::unique_ptr<FeedbackController>> controllers_;

    std::uint64_t invalidations_ = 0;
    std::uint64_t reconfigs_ = 0;
    std::uint64_t fixedLcTarget_ = 0;
    bool hullCurves_ = true;
    bool rateNormalize_ = true;
    /** Last LC target actually installed, per VC (deadband). */
    SmallIdMap<VcId, std::uint64_t> installedLcTarget_;
    /** Lines installed per VC at the last reconfiguration. */
    SmallIdMap<VcId, std::uint64_t> lastAlloc_;

    Tracer *tracer_ = nullptr;
    std::uint32_t tracePid_ = 0;
    /**
     * Per-VC counter-track names, interned into the tracer's
     * pointer-stable storage once per VC instead of on every epoch's
     * emission.
     */
    SmallIdMap<VcId, const char *> allocTrackNames_;
};

} // namespace jumanji

#endif // JUMANJI_CORE_RUNTIME_DRIVER_HH
