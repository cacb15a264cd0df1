/**
 * @file
 * The memory path a core's LLC access traverses:
 * VTB lookup -> NoC to the target bank -> bank (port + array) ->
 * on miss, NoC to a memory controller -> DRAM -> back.
 *
 * MemPath owns the LLC banks, the VTB, per-VC UMONs, and the memory
 * system, and charges all counters needed by the metrics layer.
 */

#ifndef JUMANJI_CPU_MEM_PATH_HH
#define JUMANJI_CPU_MEM_PATH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/cache_bank.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/mem/memory.hh"
#include "src/noc/mesh.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;

/** Per-access outcome reported back to the core. */
struct PathAccessResult
{
    bool llcHit = false;
    BankId bank = kInvalidBank;
    Tick latency = 0;
    Tick bankQueueDelay = 0;
    /** One-way hops core->bank (for attack analysis / energy). */
    std::uint32_t hopsToBank = 0;
};

/** Geometry of the shared LLC. */
struct LlcParams
{
    std::uint32_t banks = 20;
    std::uint32_t setsPerBank = 512;
    std::uint32_t ways = 32;
    ReplKind repl = ReplKind::DRRIP;
    BankTimingParams timing;
};

/**
 * The shared-LLC complex. One instance per simulated system.
 */
class MemPath
{
  public:
    MemPath(const LlcParams &llc, const MeshParams &mesh,
            const MemoryParams &mem, const UmonParams &umon,
            std::uint64_t seed);

    /** Registers a VC so it gets a UMON. Idempotent. */
    void registerVc(VcId vc);

    /** Route of a planned access (no side effects). */
    struct Route
    {
        BankId bank = kInvalidBank;
        std::uint32_t hops = 0;
        /** One-way core->bank traversal latency. */
        Tick traversal = 0;
        /** The core tile the route starts from. */
        std::uint32_t tile = 0;
        /** Vtb::generation() when the bank was looked up. */
        std::uint64_t generation = 0;
    };

    /** Looks up the bank and traversal for (@p vc, @p line). */
    Route planAccess(std::uint32_t coreTile, VcId vc,
                     LineAddr line) const;

    /**
     * Performs a timed LLC access whose request *arrives at the
     * bank* at @p now. Cores issue the access and resume themselves
     * at the arrival tick, so bank-port queueing is FCFS in true
     * arrival order (this ordering is itself a timing channel — see
     * Fig. 11). The returned latency covers bank (+memory) plus the
     * response traversal back to the core; the caller adds its own
     * request traversal.
     */
    PathAccessResult accessArrived(Tick now, std::uint32_t coreTile,
                                   const AccessOwner &owner,
                                   LineAddr line)
    {
        return accessArrived(now, coreTile, owner, line,
                             planAccess(coreTile, owner.vc, line));
    }

    /**
     * As above, reusing @p planned, the route planned at issue for
     * the same (vc, line). It is re-planned only when the VTB
     * changed since (a reconfiguration while the request was in
     * flight) or the core moved off planned.tile (a thread
     * migration); otherwise a new plan would be identical.
     */
    PathAccessResult accessArrived(Tick now, std::uint32_t coreTile,
                                   const AccessOwner &owner,
                                   LineAddr line, const Route &planned);

    /**
     * Single-call convenience used by tests: plans the access,
     * advances to the arrival tick, and processes it. The returned
     * latency covers the full issue-to-data round trip.
     */
    PathAccessResult access(Tick now, std::uint32_t coreTile,
                            const AccessOwner &owner, LineAddr line);

    /** The vulnerability metric: attackers observed this access. */
    std::uint32_t lastAccessAttackers() const { return lastAttackers_; }

    Vtb &vtb() { return vtb_; }
    MeshTopology &mesh() { return mesh_; }
    MemorySystem &memory() { return memory_; }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }
    CacheBank &bank(BankId b) { return *banks_[static_cast<size_t>(b)]; }
    const CacheBank &bank(BankId b) const
    {
        return *banks_[static_cast<size_t>(b)];
    }

    /** Lines of capacity in one bank. */
    std::uint64_t linesPerBank() const;

    /** Total LLC lines. */
    std::uint64_t totalLines() const;

    Umon &umon(VcId vc);
    bool hasUmon(VcId vc) const { return umons_.count(vc) > 0; }

    /**
     * Installs a new placement descriptor for @p vc and performs the
     * background coherence walk: lines of this VC now mapping to a
     * different bank are invalidated.
     *
     * @return Lines invalidated by the walk.
     */
    std::uint64_t installPlacement(VcId vc, const PlacementDescriptor &d);

    /** Installs per-bank way masks: masks[bank] applies to @p vc. */
    void installWayMasks(VcId vc,
                         const std::vector<WayMask> &masksPerBank);

    /**
     * Selects the coherence-walk model: migrate moved lines (default;
     * scale-faithful) or invalidate them (literal hardware behaviour;
     * ablation).
     */
    void setMigrateOnReconfig(bool migrate) { migrate_ = migrate; }

    /**
     * VM swap-in flush (Sec. IV-B): when more VMs exist than banks,
     * a VM being scheduled onto banks previously used by another VM
     * must have those banks flushed of the departing VM's state.
     * Drops every line in @p bank not owned by @p incoming.
     *
     * @return Lines flushed.
     */
    std::uint64_t flushBankForVm(BankId bank, VmId incoming);

    /** Aggregate counters across all accesses since construction. */
    const AccessCounters &counters() const { return counters_; }
    AccessCounters &mutableCounters() { return counters_; }

    /** Sum of attackers over accesses; divide by accesses for avg. */
    double
    avgAttackersPerAccess() const
    {
        return llcAccesses_ == 0
                   ? 0.0
                   : static_cast<double>(attackerSum_) /
                         static_cast<double>(llcAccesses_);
    }

    std::uint64_t llcAccesses() const { return llcAccesses_; }

    /** Resets the vulnerability accumulators (per-epoch sampling). */
    void
    clearVulnerabilityStats()
    {
        attackerSum_ = 0;
        llcAccesses_ = 0;
    }

    /**
     * Registers the whole memory path — per-bank LLC stats, D-NUCA
     * structures (VTB, coherence walks, per-VC UMONs), NoC, and
     * memory controllers — under @p top ("" for the primary path,
     * "ideal." for the contention-free twin). Call after all VCs are
     * registered so every UMON exists.
     */
    void registerStats(StatRegistry &reg, const std::string &top);

  private:
    MeshTopology mesh_;
    MemorySystem memory_;
    Vtb vtb_;
    LlcParams llcParams_;
    UmonParams umonParams_;
    std::vector<std::unique_ptr<CacheBank>> banks_;
    /**
     * Dense per-VC table: probed on every access, and walked in
     * ascending-VC order when gathering epoch inputs.
     */
    SmallIdMap<VcId, std::unique_ptr<Umon>> umons_;

    AccessCounters counters_;
    std::uint64_t attackerSum_ = 0;
    std::uint64_t llcAccesses_ = 0;
    std::uint32_t lastAttackers_ = 0;
    bool migrate_ = true;

    /** hopCounters_[h] = accesses whose core->bank route was h hops. */
    std::vector<std::uint64_t> hopCounters_;
    /** Lines displaced by coherence walks (reconfigurations). */
    std::uint64_t coherenceWalkLines_ = 0;
    /** Lines dropped by VM swap-in flushes. */
    std::uint64_t vmFlushLines_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_CPU_MEM_PATH_HH
