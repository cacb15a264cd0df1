/**
 * @file
 * Reproduces Fig. 12: performance leakage through the shared
 * replacement policy. img-dnn runs with a *fixed* LLC partition
 * alongside many different batch mixes; its tail latency still
 * varies with the co-runners, because DRRIP's set-dueling PSEL is
 * shared bank-wide.
 *
 * Two configurations:
 *  - S-NUCA: a fixed 2.5 MB-equivalent partition striped across all
 *    banks (co-runners share every bank's replacement state);
 *  - D-NUCA: the two closest banks reserved exclusively (Jumanji
 *    with a fixed allocation; no shared banks).
 *
 * Paper shape: the S-NUCA line varies across mixes (violations up to
 * ~10%), the D-NUCA line is flat and ~20% lower despite a smaller
 * partition.
 */

#include <algorithm>

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {

double
tailWithMix(const SystemConfig &base, LlcDesign design,
            std::uint64_t lcLines, std::uint64_t mixSeed,
            const LcCalibrationMap &calib)
{
    SystemConfig cfg = base;
    cfg.design = design;
    cfg.load = LoadLevel::High;
    cfg.fixedLcTargetLines = lcLines;
    // The system seed stays FIXED across mixes: img-dnn must see the
    // identical request sequence every time, so that any tail
    // variation is attributable to the co-runners (the leakage the
    // figure demonstrates), not to arrival randomness.

    // One VM with img-dnn + batch apps in *other* VMs: the batch mix
    // varies, img-dnn's partition does not.
    Rng rng(mixSeed ^ 0xfeed);
    WorkloadMix mix;
    VmSpec lcVm;
    lcVm.lcApps.push_back("img-dnn");
    mix.vms.push_back(lcVm);
    for (int v = 0; v < 3; v++) {
        VmSpec batchVm;
        for (int b = 0; b < 5; b++)
            batchVm.batchApps.push_back(randomBatchApp(rng));
        mix.vms.push_back(batchVm);
    }

    System system(cfg, mix, calib);
    RunResult run = system.run();
    for (const auto &app : run.apps)
        if (app.latencyCritical) return app.tailLatency;
    return 0.0;
}

double
tailAlone(const SystemConfig &base, LlcDesign design,
          std::uint64_t lcLines, const LcCalibrationMap &calib)
{
    SystemConfig cfg = base;
    cfg.design = design;
    cfg.load = LoadLevel::High;
    cfg.fixedLcTargetLines = lcLines;
    cfg.measureTicks *= 2;
    System system(cfg, soloMix("img-dnn"), calib);
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
    header("Figure 12", "tail-latency leakage with a fixed partition "
                        "across 40 batch mixes");
    std::uint32_t mixes = driver::mixCountFromEnv(12);

    SystemConfig cfg = benchConfig();
    LcCalibrationMap calib;
    calib["img-dnn"] = calibrateLcApp(cfg, "img-dnn");

    PlacementGeometry geo = cfg.placementGeometry();
    // S-NUCA: 2.5 MB of 20 MB = 1/8 of the LLC, striped (4 ways).
    std::uint64_t snucaLines = geo.totalLines() / 8;
    // D-NUCA: the two closest 1 MB banks = 1/10 of the LLC.
    std::uint64_t dnucaLines = 2 * geo.linesPerBank;

    double snucaAlone =
        tailAlone(cfg, LlcDesign::Adaptive, snucaLines, calib);
    double dnucaAlone =
        tailAlone(cfg, LlcDesign::Jumanji, dnucaLines, calib);

    std::vector<double> snuca, dnuca;
    for (std::uint32_t m = 0; m < mixes; m++) {
        std::uint64_t seed = cfg.seed + 7919 * (m + 1);
        snuca.push_back(tailWithMix(cfg, LlcDesign::Adaptive, snucaLines,
                                    seed, calib) /
                        snucaAlone);
        dnuca.push_back(tailWithMix(cfg, LlcDesign::Jumanji, dnucaLines,
                                    seed, calib) /
                        dnucaAlone);
    }
    std::sort(snuca.begin(), snuca.end());
    std::sort(dnuca.begin(), dnuca.end());

    std::printf("normalized tail latency (vs. running alone), sorted "
                "best to worst:\n");
    std::printf("%-8s %18s %20s\n", "mix", "S-NUCA 2.5MB-eq",
                "D-NUCA 2 banks");
    for (std::uint32_t m = 0; m < mixes; m++)
        std::printf("%-8u %18.3f %20.3f\n", m, snuca[m], dnuca[m]);

    double snucaSpread = snuca.back() - snuca.front();
    double dnucaSpread = dnuca.back() - dnuca.front();
    std::printf("\nspread: S-NUCA %.3f, D-NUCA %.3f\n", snucaSpread,
                dnucaSpread);
    std::printf("absolute tails alone: S-NUCA %.0f, D-NUCA %.0f "
                "cycles\n", snucaAlone, dnucaAlone);

    note("Paper: the S-NUCA tail varies significantly across mixes "
         "(>10% violations) while the bank-isolated D-NUCA line is "
         "stable and ~20% lower with a smaller partition. Here the "
         "D-NUCA line is exactly flat and far lower in absolute "
         "terms; the S-NUCA line varies with the co-runners, though "
         "by only a few percent — our LC-priority memory model "
         "removes the bandwidth component of the paper's "
         "interference, leaving just the replacement-state channel "
         "(EXPERIMENTS.md).");
    return 0;
}
