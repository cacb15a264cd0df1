#include "src/system/config.hh"

namespace jumanji {

SystemConfig
SystemConfig::paperDefault()
{
    SystemConfig cfg;
    // Table II: 20 cores at 2.66 GHz, 20 x 1 MB 32-way banks, 13-cycle
    // banks, 5x4 mesh with 2-cycle routers and 1-cycle links, 4 MCs
    // at 120 cycles.
    cfg.llc.banks = 20;
    cfg.llc.setsPerBank = 512;
    cfg.llc.ways = 32;
    cfg.llc.repl = ReplKind::DRRIP;
    cfg.llc.timing.accessLatency = 13;
    cfg.llc.timing.ports = 1;
    cfg.llc.timing.portOccupancy = 1;

    cfg.mesh.cols = 5;
    cfg.mesh.rows = 4;
    cfg.mesh.routerDelay = 2;
    cfg.mesh.linkDelay = 1;

    cfg.mem.accessLatency = 120;
    cfg.mem.controllers = 4;

    cfg.umon.sets = 256;
    cfg.umon.ways = 64;

    // 100 ms at 2.66 GHz.
    cfg.epochTicks = 266000000;
    cfg.warmupTicks = 2 * cfg.epochTicks;
    cfg.measureTicks = 10 * cfg.epochTicks;
    return cfg;
}

SystemConfig
SystemConfig::benchScaled()
{
    SystemConfig cfg = paperDefault();
    // Same tile/bank/way geometry and latencies; capacity and time
    // are scaled down together by 4x so the compressed runs can warm
    // and exercise the cache exactly as long runs would at full
    // size. Banks: 1 MB -> 256 KB (128 sets x 32 ways); fewer sets
    // than this makes hard partitions lose real capacity to per-set
    // occupancy skew, distorting the partitioning-vs-sharing
    // comparison (DESIGN.md).
    cfg.llc.setsPerBank = 128;
    cfg.capacityScale = 0.25;
    cfg.epochTicks = 600000;
    cfg.warmupTicks = 4800000;
    cfg.measureTicks = 6000000;
    // Aim the controller at the middle of the deadline rather than
    // its edge: with ~100x fewer requests per window than the paper,
    // the tail estimate is noisy and an edge-riding equilibrium
    // produces spurious violations.
    cfg.controller.lowFrac = 0.75;
    cfg.controller.highFrac = 0.90;
    return cfg;
}

SystemConfig
SystemConfig::testTiny()
{
    SystemConfig cfg;
    cfg.llc.banks = 4;
    cfg.llc.setsPerBank = 64;
    cfg.llc.ways = 8;
    cfg.llc.repl = ReplKind::LRU;

    cfg.mesh.cols = 2;
    cfg.mesh.rows = 2;

    cfg.mem.controllers = 2;

    cfg.umon.sets = 32;
    cfg.umon.ways = 16;

    cfg.epochTicks = 20000;
    cfg.warmupTicks = 40000;
    cfg.measureTicks = 100000;
    return cfg;
}

PlacementGeometry
SystemConfig::placementGeometry() const
{
    PlacementGeometry geo;
    geo.banks = llc.banks;
    geo.waysPerBank = llc.ways;
    geo.linesPerBank = static_cast<std::uint64_t>(llc.setsPerBank) *
                       llc.ways;
    geo.linesPerBucket =
        std::max<std::uint64_t>(1, geo.totalLines() / umon.ways);
    return geo;
}

} // namespace jumanji
