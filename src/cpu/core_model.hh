/**
 * @file
 * CoreModel: one out-of-order core running one AppModel, expressed as
 * a DES agent. Compute bursts cost instrs/baseIpc cycles; LLC access
 * latency is partially hidden by MLP (traits().stallFactor).
 */

#ifndef JUMANJI_CPU_CORE_MODEL_HH
#define JUMANJI_CPU_CORE_MODEL_HH

#include <cstdint>
#include <memory>

#include "src/cpu/app_model.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace jumanji {

/**
 * A core agent with a two-phase access pipeline: when a step carries
 * an LLC access, the core first executes the compute burst, then
 * schedules itself at the access's *bank arrival* tick and performs
 * the access there. Processing accesses in true arrival order makes
 * bank-port queueing an honest FCFS queue across cores — which is
 * what the Fig. 11 port side channel measures.
 */
class CoreModel : public Agent
{
  public:
    /**
     * @param id Core id == tile id in the floorplan.
     * @param owner Identity stamped on all of this core's accesses.
     * @param app The application to run (non-owning).
     * @param path The shared memory path (non-owning).
     * @param rng Private random stream for the app.
     */
    CoreModel(CoreId id, const AccessOwner &owner, AppModel *app,
              MemPath *path, Rng rng);

    Tick resume(Tick now) override;

    CoreId id() const { return id_; }

    /** Re-anchors the core to a new tile (thread migration). */
    void setTile(CoreId id) { id_ = id; }
    const AccessOwner &owner() const { return owner_; }
    AppModel &app() { return *app_; }
    const AppModel &constApp() const { return *app_; }

    /** True between an access's issue and its bank arrival. */
    bool accessInFlight() const { return accessPending_; }

    /** Instructions retired so far. */
    std::uint64_t instrsRetired() const { return instrs_; }

    /** Cycles this core has spent stalled on LLC accesses. */
    Tick stallCycles() const { return stallCycles_; }

    /** L1/L2/LLC counters attributed to this core. */
    const AccessCounters &counters() const { return counters_; }

    /** Resets instruction/stall accounting (start of measurement). */
    void
    resetAccounting()
    {
        instrs_ = 0;
        stallCycles_ = 0;
        counters_ = AccessCounters{};
    }

    /** Registers per-core stats under @p prefix ("apps.a03."). */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    /** Handles a pending access at its bank-arrival tick. */
    Tick completeAccess(Tick now);

    CoreId id_;
    AccessOwner owner_;
    AppModel *app_;
    /** app_->traits(), read on every step. */
    const AppTraits *traits_ = nullptr;
    MemPath *path_;
    Rng rng_;

    /** Pending access state (set between issue and arrival). */
    bool accessPending_ = false;
    LineAddr pendingLine_ = 0;
    Tick pendingIssueTick_ = 0;
    /** The route planned at issue; its traversal is the request's. */
    MemPath::Route pendingRoute_;

    std::uint64_t instrs_ = 0;
    Tick stallCycles_ = 0;
    AccessCounters counters_;
};

} // namespace jumanji

#endif // JUMANJI_CPU_CORE_MODEL_HH
