/**
 * @file
 * Example: tuning a latency SLO with the feedback controller.
 *
 * Shows the control loop from the operator's perspective: register a
 * latency-critical service with a deadline, watch the controller
 * size its LLC reservation epoch by epoch, then tighten the deadline
 * mid-run and watch the allocation grow to compensate.
 *
 * Usage: slo_tuning [seed]
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

    std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 9;

    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = seed;
    cfg.design = LlcDesign::Jumanji;
    cfg.load = LoadLevel::High;

    Rng rng(seed);
    WorkloadMix mix = makeMix({"masstree"}, 4, 4, rng);

    const LcCalibrationMap calib = calibrateMix(cfg, mix);
    double deadline = calib.at("masstree").deadline;

    System system(cfg, mix, calib);

    std::printf("masstree SLO: p95 <= %.0f cycles\n\n", deadline);
    std::printf("%-8s %16s %16s %12s\n", "epoch", "controller tgt",
                "measured tail", "verdict");

    // Phase 1: run 12 epochs under the calibrated deadline.
    FeedbackController *ctrl = system.runtime().controller(0);
    for (int epoch = 1; epoch <= 12; epoch++) {
        system.runUntil(static_cast<Tick>(epoch) * cfg.epochTicks);
        std::printf("%-8d %16llu %16.0f %12s\n", epoch,
                    static_cast<unsigned long long>(ctrl->targetLines()),
                    ctrl->lastTail(),
                    ctrl->lastTail() <= deadline ? "ok" : "over");
    }

    // Phase 2: the operator tightens the SLO by 30%.
    double tightened = deadline * 0.7;
    std::printf("\n-- SLO tightened to %.0f cycles --\n\n", tightened);
    for (VcId vc : {0, 5, 10, 15})
        system.runtime().setDeadline(vc, tightened);

    for (int epoch = 13; epoch <= 24; epoch++) {
        system.runUntil(static_cast<Tick>(epoch) * cfg.epochTicks);
        std::printf("%-8d %16llu %16.0f %12s\n", epoch,
                    static_cast<unsigned long long>(ctrl->targetLines()),
                    ctrl->lastTail(),
                    ctrl->lastTail() <= tightened ? "ok" : "over");
    }

    std::printf("\npanics: %llu. The controller grows the reservation "
                "after the SLO tightens and settles below the new "
                "deadline (paper Listing 1 / Sec. V-C).\n",
                static_cast<unsigned long long>(ctrl->panics()));
    return 0;
}
