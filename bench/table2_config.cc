/**
 * @file
 * Prints Table II: the simulated system parameters, both at paper
 * scale and at the bench scale used by the reproduction binaries
 * (see DESIGN.md for the scaling argument).
 */

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {

void
printConfig(const char *label, const SystemConfig &cfg)
{
    PlacementGeometry geo = cfg.placementGeometry();
    std::printf("\n-- %s --\n", label);
    std::printf("  cores/tiles        : %u (%ux%u mesh)\n",
                cfg.mesh.cols * cfg.mesh.rows, cfg.mesh.cols,
                cfg.mesh.rows);
    std::printf("  LLC                : %u banks x %u sets x %u ways "
                "= %.2f MB\n",
                cfg.llc.banks, cfg.llc.setsPerBank, cfg.llc.ways,
                static_cast<double>(geo.totalLines() * kLineBytes) /
                    (1024.0 * 1024.0));
    std::printf("  bank latency       : %llu cycles, %u port(s), "
                "%llu-cycle occupancy\n",
                static_cast<unsigned long long>(
                    cfg.llc.timing.accessLatency),
                cfg.llc.timing.ports,
                static_cast<unsigned long long>(
                    cfg.llc.timing.portOccupancy));
    std::printf("  replacement        : %s (set-dueling, shared "
                "PSEL)\n", replKindName(cfg.llc.repl));
    std::printf("  NoC                : %llu-cycle routers, "
                "%llu-cycle links, X-Y routing\n",
                static_cast<unsigned long long>(cfg.mesh.routerDelay),
                static_cast<unsigned long long>(cfg.mesh.linkDelay));
    std::printf("  memory             : %u controllers at corners, "
                "%llu-cycle latency, LC-priority bandwidth "
                "partitioning\n",
                cfg.mem.controllers,
                static_cast<unsigned long long>(cfg.mem.accessLatency));
    std::printf("  reconfig epoch     : %llu cycles\n",
                static_cast<unsigned long long>(cfg.epochTicks));
    std::printf("  UMONs              : %u sets x %u ways per VC\n",
                cfg.umon.sets, cfg.umon.ways);
    std::printf("  capacity scale     : %.4f\n", cfg.capacityScale);
}

} // namespace

int
main()
{
    header("Table II", "system parameters");
    printConfig("paper scale (Table II exactly)",
                SystemConfig::paperDefault());
    printConfig("bench scale (capacity+time scaled together)",
                SystemConfig::benchScaled());
    note("Bench scale shrinks bank capacity and workload footprints "
         "by the same 4x factor and compresses the epoch so runs "
         "finish in seconds; all capacity ratios, latencies, and "
         "policy parameters match the paper (DESIGN.md).");
    return 0;
}
