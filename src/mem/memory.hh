/**
 * @file
 * Main memory model: four memory controllers at the chip corners
 * (Table II), fixed access latency plus a bandwidth model.
 *
 * Bandwidth partitioning (as in Heracles/Intel RDT) is modelled by
 * per-VM virtual queues: each VM is served at its share of controller
 * bandwidth, so one VM's burst cannot starve another's requests.
 */

#ifndef JUMANJI_MEM_MEMORY_HH
#define JUMANJI_MEM_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/noc/mesh.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;

/** Memory system parameters. */
struct MemoryParams
{
    /** Fixed access latency in cycles (Table II: 120). */
    Tick accessLatency = 120;
    /** Number of controllers (one per chip corner). */
    std::uint32_t controllers = 4;
};

/** Cycles between line transfers per controller at full share. */
constexpr Tick kServiceInterval = 4;

/** Outcome of a timed memory access. */
struct MemAccessResult
{
    /** Queueing cycles at the controller. */
    Tick queueDelay = 0;
    /** Total memory cycles: queue + fixed latency. */
    Tick latency = 0;
    /** Controller that served the request. */
    std::uint32_t controller = 0;
};

/**
 * The memory subsystem. Line addresses interleave across controllers;
 * the NoC hop count from the requesting bank's tile to the
 * controller's corner tile is reported so callers can charge it.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemoryParams &params, const MeshTopology &mesh);

    /** Controller serving @p line. */
    std::uint32_t controllerFor(LineAddr line) const;

    /** Corner tile hosting controller @p mc. */
    std::uint32_t controllerTile(std::uint32_t mc) const;

    /**
     * Times an access to @p line from VM @p vm arriving at @p now.
     *
     * Bandwidth partitioning follows Heracles/Intel RDT: traffic
     * from latency-critical applications is served from a reserved
     * high-priority share (it queues only behind other LC traffic),
     * while batch traffic from each VM is served at 1/activeVms of
     * the remaining rate, modelled by scaling the per-VM service
     * interval by the number of active VMs.
     */
    MemAccessResult access(Tick now, LineAddr line, VmId vm,
                           bool latencyCritical);

    /** Sets the number of VMs sharing bandwidth (for partitioning). */
    void setActiveVms(std::uint32_t count);

    std::uint64_t totalAccesses() const { return accesses_; }
    std::uint64_t totalQueueCycles() const { return queueCycles_; }

    const MemoryParams &params() const { return params_; }

    /**
     * Registers aggregate and per-controller stats under @p prefix
     * ("mem." -> "mem.accesses", "mem.mc02.queueCycles", ...).
     */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    MemoryParams params_;
    std::vector<std::uint32_t> cornerTiles_;
    /**
     * busyUntil[controller][vm]. Dense per-VM tables, pre-sized from
     * the active VM count (setActiveVms) so the per-miss queue probe
     * indexes an array and steady-state operation never allocates;
     * iteration (if the queues are ever walked for stats) stays
     * ascending-VM.
     */
    std::vector<SmallIdMap<VmId, Tick>> busyUntil_;
    /** Reserved latency-critical track per controller. */
    std::vector<Tick> lcBusyUntil_;
    std::uint32_t activeVms_ = 1;

    std::uint64_t accesses_ = 0;
    std::uint64_t queueCycles_ = 0;
    /** Per-controller breakdowns, indexed by controller id. */
    std::vector<std::uint64_t> mcAccesses_;
    std::vector<std::uint64_t> mcQueueCycles_;
    std::vector<std::uint64_t> mcLcAccesses_;
};

} // namespace jumanji

#endif // JUMANJI_MEM_MEMORY_HH
