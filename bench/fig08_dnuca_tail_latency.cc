/**
 * @file
 * Reproduces Fig. 8: xapian's tail (95th-percentile) latency as a
 * function of its LLC allocation, with allocations striped across
 * all banks (S-NUCA / way-partitioning) vs. reserved in the closest
 * banks (D-NUCA).
 *
 * Paper shape: small allocations blow up tail latency (queueing);
 * D-NUCA meets the deadline with meaningfully less space than
 * S-NUCA, and its worst case is far lower.
 */

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {

double
soloTailAt(const SystemConfig &base, LlcDesign design,
           std::uint64_t lines, const LcCalibrationMap &calib)
{
    SystemConfig cfg = base;
    cfg.design = design;
    cfg.load = LoadLevel::High;
    cfg.fixedLcTargetLines = lines;
    cfg.measureTicks *= 2;

    System system(cfg, soloMix("xapian"), calib);
    RunResult run = system.run();
    for (const auto &app : run.apps)
        if (app.latencyCritical) return app.tailLatency;
    return 0.0;
}

} // namespace

int
main()
{
    setQuiet(true);
    header("Figure 8", "xapian tail latency vs. LLC allocation, "
                       "S-NUCA vs. D-NUCA");

    SystemConfig cfg = benchConfig();
    const LcCalibration calib = calibrateLcApp(cfg, "xapian");
    LcCalibrationMap calibMap;
    calibMap["xapian"] = calib;

    PlacementGeometry geo = cfg.placementGeometry();
    std::printf("deadline (cycles): %.0f\n\n", calib.deadline);
    std::printf("%-14s %-12s %16s %16s\n", "alloc(frac)", "alloc(ln)",
                "S-NUCA p95", "D-NUCA p95");

    // Sweep allocations from half a bank up to half the LLC.
    // Adaptive with a pinned target = way-partitioned S-NUCA;
    // Jumanji with a pinned target = nearest-bank D-NUCA.
    for (double frac : {0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5}) {
        auto lines = static_cast<std::uint64_t>(
            frac * static_cast<double>(geo.totalLines()));
        double snuca =
            soloTailAt(cfg, LlcDesign::Adaptive, lines, calibMap);
        double dnuca =
            soloTailAt(cfg, LlcDesign::Jumanji, lines, calibMap);
        std::printf("%-14.3f %-12llu %16.0f %16.0f\n", frac,
                    static_cast<unsigned long long>(lines), snuca,
                    dnuca);
    }

    note("Paper: D-NUCA reaches the deadline with ~2/3 of the S-NUCA "
         "allocation (2 MB vs 3 MB on the 20 MB LLC) and degrades far "
         "more gracefully at small allocations.");
    return 0;
}
