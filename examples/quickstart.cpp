/**
 * @file
 * Quickstart: build a 4-VM datacenter node, run it under Jumanji,
 * and print tail latency, batch speedup vs. Static, and the
 * security vulnerability metric.
 *
 * Usage: quickstart [seed]
 */

#include <cstdio>
#include <cstdlib>

#include "src/system/harness.hh"

int
main(int argc, char **argv)
{
    using namespace jumanji;

    std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

    // 1. Configure the machine: Table II geometry, bench time scale.
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = seed;

    // 2. Build a workload: 4 VMs, each one xapian instance plus four
    //    random SPEC-like batch applications.
    Rng rng(seed);
    WorkloadMix mix = makeMix({"xapian"}, /*vms=*/4, /*batchPerVm=*/4,
                              rng);

    std::printf("workload: 4 VMs x (1 xapian + 4 batch)\n");
    for (std::size_t v = 0; v < mix.vms.size(); v++) {
        std::printf("  VM%zu: %s +", v, mix.vms[v].lcApps[0].c_str());
        for (const auto &b : mix.vms[v].batchApps)
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }

    // 3. Run under Static (the baseline) and Jumanji.
    MixResult result =
        runMix(cfg, mix, {LlcDesign::Jumanji}, LoadLevel::High);

    const DesignResult &st = result.of(LlcDesign::Static);
    const DesignResult &ju = result.of(LlcDesign::Jumanji);

    std::printf("\n%-12s %14s %14s %14s\n", "design", "tail/deadline",
                "batch speedup", "attackers");
    for (const DesignResult *d : {&st, &ju}) {
        std::printf("%-12s %14.3f %14.3f %14.3f\n",
                    llcDesignName(d->design), d->tailRatio(),
                    d->batchSpeedup, d->run.attackersPerAccess());
    }

    std::printf("\nJumanji: deadline %s (ratio %.2f), batch %+.1f%%, "
                "%s potential attackers per access.\n",
                ju.tailRatio() <= 1.0 ? "met" : "MISSED", ju.tailRatio(),
                100.0 * (ju.batchSpeedup - 1.0),
                ju.run.attackersPerAccess() == 0.0 ? "zero" : "NONZERO");
    return 0;
}
