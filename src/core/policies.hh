/**
 * @file
 * The LLC management designs compared in the paper (Sec. III / VII):
 *
 *  - Static: each LC app gets a fixed 4-way striped partition;
 *    batch apps share the rest. The normalization baseline.
 *  - Adaptive: S-NUCA; LC partitions sized by feedback control;
 *    batch shares the remainder unpartitioned.
 *  - VM-Part: Adaptive + per-VM batch partitions in every bank
 *    (defends conflict attacks only).
 *  - Jigsaw: D-NUCA minimizing data movement; tail/security-blind.
 *  - Jumanji: Listing 3 — feedback-controlled LC reservations placed
 *    nearby, VMs isolated into whole banks, Jigsaw placement within
 *    each VM.
 *  - JumanjiInsecure: Jumanji without bank isolation (Fig. 16).
 *  - JumanjiIdealBatch: infeasible upper bound — batch placed in a
 *    private copy of the LLC (Fig. 16); realized at the System layer
 *    with a second MemPath, this policy computes its allocations.
 *
 * policies.cc builds all seven from file-local steps, each written
 * once: stripeAcrossBanks and shareEvenly (the S-NUCA stripes and
 * pools), vmBatchClaim (a VM's combined batch curve),
 * lookaheadAndPlace (per-VC lookahead, then Jigsaw placement),
 * bankQuotas (JumanjiLookahead in whole banks), claimNearestBanks
 * (Listing 3 lines 8-9) and placeBatchInVmBanks (lines 10-12).
 * Jumanji and Ideal Batch run the same steps and differ in three
 * places: Jumanji floors each VM's claim at its LC reservation,
 * pre-assigns the banks holding LC data and runs the sticky pass;
 * Ideal Batch rounds its budget down to whole banks and places
 * batch into a fresh balance.
 */

#ifndef JUMANJI_CORE_POLICIES_HH
#define JUMANJI_CORE_POLICIES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/placement_types.hh"
#include "src/noc/mesh.hh"

namespace jumanji {

/** Design selector. */
enum class LlcDesign
{
    Static,
    Adaptive,
    VMPart,
    Jigsaw,
    Jumanji,
    JumanjiInsecure,
    JumanjiIdealBatch,
};

const char *llcDesignName(LlcDesign design);

/** Everything a policy sees at reconfiguration time. */
struct EpochInputs
{
    std::vector<VcInfo> vcs;
    PlacementGeometry geo;
    /** Non-owning topology pointer (owned by the System). */
    const MeshTopology *mesh = nullptr;
};

/**
 * A placement policy: turns epoch inputs into a placement plan.
 */
class LlcPolicy
{
  public:
    virtual ~LlcPolicy() = default;

    virtual const char *name() const = 0;

    /** Computes the epoch's placement. */
    virtual PlacementPlan reconfigure(const EpochInputs &in) = 0;

    /** True if batch must run on a second, private LLC (Ideal). */
    virtual bool wantsIdealBatchLlc() const { return false; }

    static std::unique_ptr<LlcPolicy> create(LlcDesign design);
};

/** Static baseline: LC apps 4 ways striped; batch shares the rest. */
class StaticPolicy : public LlcPolicy
{
  public:
    explicit StaticPolicy(std::uint32_t lcWays = 4) : lcWays_(lcWays) {}
    const char *name() const override { return "Static"; }
    PlacementPlan reconfigure(const EpochInputs &in) override;

  private:
    std::uint32_t lcWays_;
};

/** Adaptive: S-NUCA + feedback-controlled LC ways. */
class AdaptivePolicy : public LlcPolicy
{
  public:
    const char *name() const override { return "Adaptive"; }
    PlacementPlan reconfigure(const EpochInputs &in) override;

  protected:
    /** Shared S-NUCA skeleton; @p partitionVms toggles VM-Part. */
    PlacementPlan snucaPlan(const EpochInputs &in, bool partitionVms);
};

/** VM-Part: Adaptive + per-VM batch partitions per bank. */
class VmPartPolicy : public AdaptivePolicy
{
  public:
    const char *name() const override { return "VM-Part"; }
    PlacementPlan reconfigure(const EpochInputs &in) override;
};

/** Jigsaw: pure data-movement D-NUCA. */
class JigsawPolicy : public LlcPolicy
{
  public:
    const char *name() const override { return "Jigsaw"; }
    PlacementPlan reconfigure(const EpochInputs &in) override;
};

/** Jumanji (Listing 3) and its Insecure variant. */
class JumanjiPolicy : public LlcPolicy
{
  public:
    explicit JumanjiPolicy(bool enforceBankIsolation = true)
        : isolate_(enforceBankIsolation)
    {
    }

    const char *
    name() const override
    {
        return isolate_ ? "Jumanji" : "Jumanji-Insecure";
    }

    PlacementPlan reconfigure(const EpochInputs &in) override;

  private:
    PlacementPlan securePlan(const EpochInputs &in);
    PlacementPlan insecurePlan(const EpochInputs &in);

    bool isolate_;
    /**
     * Bank ownership of the previous epoch: VMs keep the banks they
     * already own when quotas allow, so small quota changes move one
     * bank instead of reshuffling the floorplan (fewer coherence
     * invalidations).
     */
    std::vector<VmId> lastOwner_;
};

/**
 * Ideal Batch: LC apps placed exactly as Jumanji; batch apps run
 * Jumanji's per-VM steps in a fresh copy of the LLC, unconstrained by
 * where LC data sits (the System routes batch to a second MemPath).
 * Total allocated capacity still sums to at most one LLC.
 */
class JumanjiIdealBatchPolicy : public LlcPolicy
{
  public:
    const char *name() const override { return "Jumanji-IdealBatch"; }
    PlacementPlan reconfigure(const EpochInputs &in) override;
    bool wantsIdealBatchLlc() const override { return true; }
};

} // namespace jumanji

#endif // JUMANJI_CORE_POLICIES_HH
