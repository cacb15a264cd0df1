/**
 * @file
 * Example: consolidation planning for a datacenter node.
 *
 * A common operator question: how many tenants (VMs) can share one
 * 20-core machine before tail-latency SLOs or batch throughput
 * degrade? This example regroups a fixed population of applications
 * (4 latency-critical + 16 batch) into 2, 4, 8, and 12 VMs, runs
 * each consolidation level under Jumanji, and reports SLO compliance,
 * batch throughput, and the security posture.
 *
 * Usage: datacenter_consolidation [seed]
 */

#include <cstdio>
#include <cstdlib>

#include "src/sim/logging.hh"
#include "src/system/harness.hh"

int
main(int argc, char **argv)
{
    using namespace jumanji;
    setQuiet(true);

    std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = seed;

    // The application population: one of each TailBench-like service
    // plus a random mix of batch jobs.
    Rng rng(seed);
    WorkloadMix base = makeMix(allTailAppNames(), 4, 4, rng);

    ExperimentHarness harness(cfg);

    std::printf("Consolidating 4 latency-critical + 16 batch apps "
                "under Jumanji:\n\n");
    std::printf("%-8s %18s %16s %16s\n", "VMs", "SLO (tail/ddl)",
                "batch speedup", "attackers");

    for (std::uint32_t vms : {2u, 4u, 8u, 12u}) {
        WorkloadMix mix = regroupMix(base, vms);
        MixResult result = harness.runMix(mix, {LlcDesign::Jumanji},
                                          LoadLevel::High);
        const DesignResult &ju = result.of(LlcDesign::Jumanji);
        std::printf("%-8u %11.3f %-6s %16.3f %16.3f\n", vms,
                    ju.meanTailRatio(),
                    ju.meanTailRatio() <= 1.0 ? "(met)" : "(MISS)",
                    ju.batchSpeedup, ju.run.attackersPerAccess());
    }

    std::printf("\nInterpretation: Jumanji holds the SLO and keeps 0 "
                "potential attackers per access at every consolidation "
                "level; batch speedup degrades only gradually as bank "
                "isolation fragments the LLC (paper Fig. 17).\n");
    return 0;
}
