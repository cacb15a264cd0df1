/**
 * @file
 * Reproduces Fig. 5: end-to-end results of the Sec. III case study —
 * normalized tail latency and batch weighted speedup per design for
 * the 4x(xapian + 4 batch) workload.
 *
 * Paper shape: Adaptive and VM-Part meet deadlines with negligible
 * batch speedup; Jigsaw speeds batch up but wildly violates
 * deadlines; Jumanji meets deadlines with near-Jigsaw speedup.
 */

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

int
main()
{
    setQuiet(true);
    const driver::ExperimentSpec spec = scenario("fig05_case_study.json");
    header(spec.output.title, spec.output.caption);
    const std::vector<MixResult> results = runSpec(spec).results;

    auto speedups = gmeanSpeedups(results);
    auto vuln = meanVulnerability(results);

    std::printf("%-20s %14s %14s %14s\n", "design", "tail/deadline",
                "batch speedup", "attackers");
    std::vector<LlcDesign> all = {LlcDesign::Static};
    for (LlcDesign d : spec.designs) all.push_back(d);
    for (LlcDesign d : all) {
        double meanTail = 0.0;
        for (const auto &mix : results) meanTail += mix.of(d).meanTailRatio();
        meanTail /= static_cast<double>(results.size());
        std::printf("%-20s %14.3f %14.3f %14.3f\n", llcDesignName(d),
                    meanTail, speedups[d], vuln[d]);
    }

    note(spec.output.note);
    return 0;
}
