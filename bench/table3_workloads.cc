/**
 * @file
 * Reproduces Table III: the workload configuration for the
 * latency-critical applications — request rates at low and high
 * load, and the number of queries completed in a measurement run.
 *
 * Absolute QPS values differ from the paper (our time base is
 * scaled; rates are per Mcycle rather than per second), but the
 * structure matches: low = 10% and high = 50% of each app's
 * calibrated service rate, and the relative ordering of the five
 * apps' rates follows the paper's table (silo fastest, moses and
 * img-dnn slowest).
 */

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

int
main()
{
    setQuiet(true);
    header("Table III", "latency-critical workload configuration");

    SystemConfig cfg = benchConfig();

    std::printf("%-10s %14s %14s %14s %14s %12s\n", "app",
                "service(cyc)", "QPM(low)", "QPM(high)", "deadline",
                "queries/run");

    for (const auto &name : allTailAppNames()) {
        const LcCalibration calib = calibrateLcApp(cfg, name);

        // Requests per Mcycle at each load level.
        double qpmLow = 1e6 * loadUtilization(LoadLevel::Low) /
                        calib.serviceCycles;
        double qpmHigh = 1e6 * loadUtilization(LoadLevel::High) /
                         calib.serviceCycles;

        // Queries completed in a standard high-load measurement.
        SystemConfig soloCfg = cfg;
        soloCfg.design = LlcDesign::Static;
        soloCfg.load = LoadLevel::High;
        LcCalibrationMap calibMap;
        calibMap[name] = calib;
        System system(soloCfg, soloMix(name), calibMap);
        RunResult run = system.run();
        std::uint64_t queries = 0;
        for (const auto &app : run.apps)
            if (app.latencyCritical) queries = app.requestsCompleted;

        std::printf("%-10s %14.0f %14.2f %14.2f %14.0f %12llu\n",
                    name.c_str(), calib.serviceCycles, qpmLow, qpmHigh,
                    calib.deadline,
                    static_cast<unsigned long long>(queries));
    }

    note("QPM = queries per Mcycle (the paper reports QPS on a 2.66 "
         "GHz machine; scale differs, ratios hold). Deadline = padded "
         "p95 running alone at high load with a fixed 4-way "
         "partition, per Sec. VII.");
    return 0;
}
