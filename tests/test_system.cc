/**
 * @file
 * Tests for the System assembly layer and the experiment harness.
 * These run small end-to-end simulations (testTiny geometry keeps
 * them fast).
 */

#include <gtest/gtest.h>

#include "src/driver/env.hh"
#include "src/sim/logging.hh"
#include "src/system/harness.hh"
#include "src/system/system.hh"

namespace jumanji {
namespace {

constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

SystemConfig
smallConfig()
{
    // Paper topology but small banks + short windows, so these
    // system tests stay fast while still exercising 20 cores.
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 200000;
    cfg.measureTicks = 300000;
    cfg.seed = 7;
    return cfg;
}

WorkloadMix
smallMix(std::uint64_t seed = 7)
{
    Rng rng(seed);
    return makeMix({"xapian"}, 4, 4, rng);
}

TEST(SystemTest, ConstructsAndRuns)
{
    System system(smallConfig(), smallMix());
    RunResult run = system.run();
    EXPECT_EQ(run.apps.size(), 20u);
    EXPECT_GT(run.measuredTicks, 0u);
    for (const auto &app : run.apps)
        EXPECT_GT(app.progress.instrs, 0u) << app.name;
}

TEST(SystemTest, RejectsOversizedMix)
{
    Rng rng(1);
    WorkloadMix big = makeMix({"xapian"}, 4, 10, rng); // 44 apps
    EXPECT_THROW(System(smallConfig(), big), FatalError);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    SystemConfig cfg = smallConfig();
    System a(cfg, smallMix());
    System b(cfg, smallMix());
    RunResult ra = a.run();
    RunResult rb = b.run();
    for (std::size_t i = 0; i < ra.apps.size(); i++) {
        EXPECT_EQ(ra.apps[i].progress.instrs, rb.apps[i].progress.instrs)
            << ra.apps[i].name;
        EXPECT_DOUBLE_EQ(ra.apps[i].tailLatency, rb.apps[i].tailLatency);
    }
    EXPECT_DOUBLE_EQ(ra.attackersPerAccess(), rb.attackersPerAccess());
}

TEST(SystemTest, SeedChangesResults)
{
    SystemConfig cfg = smallConfig();
    System a(cfg, smallMix());
    cfg.seed = 8;
    System b(cfg, smallMix());
    RunResult ra = a.run();
    RunResult rb = b.run();
    bool anyDiff = false;
    for (std::size_t i = 0; i < ra.apps.size(); i++)
        if (ra.apps[i].progress.instrs != rb.apps[i].progress.instrs)
            anyDiff = true;
    EXPECT_TRUE(anyDiff);
}

TEST(SystemTest, LcAppsReportRequests)
{
    System system(smallConfig(), smallMix());
    RunResult run = system.run();
    for (const auto &app : run.apps) {
        if (!app.latencyCritical) continue;
        EXPECT_GT(app.requestsCompleted, 0u);
        EXPECT_GT(app.tailLatency, 0.0);
        EXPECT_GT(app.deadline, 0.0);
    }
}

TEST(SystemTest, JumanjiHasZeroAttackers)
{
    SystemConfig cfg = smallConfig();
    cfg.design = LlcDesign::Jumanji;
    System system(cfg, smallMix());
    RunResult run = system.run();
    EXPECT_DOUBLE_EQ(run.attackersPerAccess(), 0.0);
}

TEST(SystemTest, SnucaDesignsFullyExposed)
{
    for (LlcDesign d : {LlcDesign::Static, LlcDesign::Adaptive}) {
        SystemConfig cfg = smallConfig();
        cfg.design = d;
        System system(cfg, smallMix());
        RunResult run = system.run();
        // 15 untrusted apps share every bank (4 VMs x 5 apps - own 5).
        EXPECT_GT(run.attackersPerAccess(), 12.0) << llcDesignName(d);
    }
}

TEST(SystemTest, IdealBatchRunsWithTwoLlcs)
{
    SystemConfig cfg = smallConfig();
    cfg.design = LlcDesign::JumanjiIdealBatch;
    System system(cfg, smallMix());
    RunResult run = system.run();
    EXPECT_EQ(run.apps.size(), 20u);
    EXPECT_DOUBLE_EQ(run.attackersPerAccess(), 0.0);
}

TEST(SystemTest, DerivedViewsMatchReferenceLoops)
{
    // RunResult keeps no scalar copies: its views read the registry
    // snapshot or sum over apps. Each must equal, bit for bit, the
    // live runtime counter or the per-app loop it replaced.
    for (LlcDesign d : {LlcDesign::Static, LlcDesign::Jigsaw,
                        LlcDesign::Jumanji, LlcDesign::JumanjiIdealBatch}) {
        SCOPED_TRACE(llcDesignName(d));
        SystemConfig cfg = smallConfig();
        cfg.design = d;
        System system(cfg, smallMix());
        RunResult run = system.run();
        EXPECT_EQ(run.reconfigurations(),
                  system.runtime().reconfigurations());
        EXPECT_EQ(run.coherenceInvalidations(),
                  system.runtime().totalInvalidations());

        double worst = 0.0;
        double sum = 0.0;
        int n = 0;
        EnergyBreakdown energy;
        for (const auto &app : run.apps) {
            energy += dataMovementEnergy(app.counters);
            if (!app.latencyCritical || app.deadline <= 0.0) continue;
            worst = std::max(worst, app.tailLatency / app.deadline);
            sum += app.tailLatency / app.deadline;
            n++;
        }
        ASSERT_GT(n, 0);
        EXPECT_EQ(run.worstTailRatio(), worst);
        EXPECT_EQ(run.meanTailRatio(), sum / n);
        EnergyBreakdown derived = run.energy();
        EXPECT_EQ(derived.l1, energy.l1);
        EXPECT_EQ(derived.l2, energy.l2);
        EXPECT_EQ(derived.llc, energy.llc);
        EXPECT_EQ(derived.noc, energy.noc);
        EXPECT_EQ(derived.mem, energy.mem);
    }
}

TEST(SystemTest, ReconfiguresEveryEpoch)
{
    SystemConfig cfg = smallConfig();
    System system(cfg, smallMix());
    system.run();
    Tick total = cfg.warmupTicks + cfg.measureTicks;
    std::uint64_t expected = total / cfg.epochTicks;
    EXPECT_NEAR(static_cast<double>(system.runtime().reconfigurations()),
                static_cast<double>(expected), 2.0);
}

TEST(SystemTest, TimelinesPopulated)
{
    SystemConfig cfg = smallConfig();
    System system(cfg, smallMix());
    system.run();
    // The recorder is the only per-epoch record: Fig. 4's latency,
    // allocation and vulnerability series are its columns.
    const TimelineSeries &ts = system.recorder().series();
    ASSERT_FALSE(ts.empty());
    EXPECT_NE(ts.columnIndex("epoch.vuln"), kNoColumn);
    std::size_t index = ts.columnIndex("epoch.index");
    ASSERT_NE(index, kNoColumn);
    double lastIndex = 0.0;
    for (auto row = ts.cursor(); row.next();) lastIndex = row[index];
    EXPECT_EQ(lastIndex, static_cast<double>(ts.rowCount()));
    for (std::size_t i = 0; i < system.cores().size(); i++) {
        const AccessOwner &owner = system.cores()[i]->owner();
        EXPECT_NE(ts.columnIndex("runtime.vc" + statIndexName(owner.vc) +
                                 ".allocLines"),
                  kNoColumn);
        // Only LC apps have a per-epoch latency.
        EXPECT_EQ(ts.columnIndex("apps.a" + statIndexName(i) +
                                 ".epochLatency") != kNoColumn,
                  owner.latencyCritical);
    }
}

TEST(SystemTest, EnergyPositive)
{
    System system(smallConfig(), smallMix());
    RunResult run = system.run();
    EXPECT_GT(run.energy().total(), 0.0);
    EXPECT_GT(run.energy().mem, 0.0);
    EXPECT_GT(run.energy().noc, 0.0);
}

TEST(SystemTest, VmScalingConfigs)
{
    // Fig. 17's regroupings all construct and run.
    Rng rng(3);
    WorkloadMix base = makeMix(allTailAppNames(), 4, 4, rng);
    for (std::uint32_t vms : {1u, 2u, 4u, 10u}) {
        SystemConfig cfg = smallConfig();
        cfg.design = LlcDesign::Jumanji;
        WorkloadMix mix = regroupMix(base, vms);
        System system(cfg, mix);
        RunResult run = system.run();
        EXPECT_EQ(run.apps.size(), 20u) << vms << " VMs";
    }
}

TEST(SystemTest, NominalServiceCyclesSane)
{
    for (const auto &params : tailAppCatalog()) {
        double service = System::nominalServiceCycles(params);
        EXPECT_GT(service, static_cast<double>(params.instrsPerRequest) /
                               params.traits.baseIpc);
    }
}

TEST(SystemTest, FixedLcTargetPinsAllocation)
{
    SystemConfig cfg = smallConfig();
    cfg.design = LlcDesign::Jumanji;
    cfg.fixedLcTargetLines = cfg.placementGeometry().totalLines() / 10;
    System system(cfg, smallMix());
    system.run();
    // Every epoch's LC allocation equals the pinned target (within
    // way quantization).
    const TimelineSeries &ts = system.recorder().series();
    ASSERT_FALSE(ts.empty());
    for (const auto &core : system.cores()) {
        if (!core->owner().latencyCritical) continue;
        std::size_t col = ts.columnIndex(
            "runtime.vc" + statIndexName(core->owner().vc) + ".allocLines");
        ASSERT_NE(col, kNoColumn);
        for (auto row = ts.cursor(); row.next();) {
            EXPECT_NEAR(row[col],
                        static_cast<double>(cfg.fixedLcTargetLines),
                        static_cast<double>(
                            2 * cfg.placementGeometry().linesPerWay()));
        }
    }
}

TEST(SystemTest, LoadLevelHelpers)
{
    EXPECT_DOUBLE_EQ(loadUtilization(LoadLevel::Low), 0.10);
    EXPECT_DOUBLE_EQ(loadUtilization(LoadLevel::High), 0.50);
    EXPECT_STREQ(loadName(LoadLevel::Low), "low");
    EXPECT_STREQ(loadName(LoadLevel::High), "high");
}

TEST(SystemTest, LowLoadMeansFewerRequests)
{
    SystemConfig cfg = smallConfig();
    cfg.load = LoadLevel::Low;
    System low(cfg, smallMix());
    RunResult lowRun = low.run();
    cfg.load = LoadLevel::High;
    System high(cfg, smallMix());
    RunResult highRun = high.run();

    auto requests = [](const RunResult &r) {
        std::uint64_t n = 0;
        for (const auto &app : r.apps)
            if (app.latencyCritical) n += app.requestsCompleted;
        return n;
    };
    // High load = 5x the arrival rate of low load.
    EXPECT_GT(requests(highRun), 3 * requests(lowRun));
}

TEST(SystemTest, PaperScaleGeometryRuns)
{
    // The full Table II geometry (20 MB LLC, 512-set banks) must
    // construct and execute; only the time windows are shortened so
    // the test stays fast. This guards the unscaled configuration
    // that --paper-scale exposes.
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.epochTicks = 200000;
    cfg.warmupTicks = 400000;
    cfg.measureTicks = 400000;
    cfg.seed = 5;
    cfg.design = LlcDesign::Jumanji;
    Rng rng(5);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);
    System system(cfg, mix);
    RunResult run = system.run();
    EXPECT_EQ(run.apps.size(), 20u);
    EXPECT_DOUBLE_EQ(run.attackersPerAccess(), 0.0);
    EXPECT_EQ(system.memPath().totalLines(), 20u * 512 * 32);
}

// ------------------------------------------------------------ Harness

TEST(Harness, CalibrationProducesPositiveValues)
{
    const LcCalibration calib = calibrateLcApp(smallConfig(), "silo");
    EXPECT_GT(calib.serviceCycles, 0.0);
    EXPECT_GT(calib.deadline, calib.serviceCycles);
}

TEST(Harness, CalibrationIsAPureFunctionOfConfigAndName)
{
    // Nothing is cached between calls: equal inputs give equal
    // values, and a config field the runs read moves them.
    const SystemConfig cfg = smallConfig();
    const LcCalibration a = calibrateLcApp(cfg, "silo");
    const LcCalibration b = calibrateLcApp(cfg, "silo");
    EXPECT_EQ(a.serviceCycles, b.serviceCycles);
    EXPECT_EQ(a.deadline, b.deadline);

    // Calibrating another app in between leaves silo's alone.
    const LcCalibration x = calibrateLcApp(cfg, "xapian");
    const LcCalibration c = calibrateLcApp(cfg, "silo");
    EXPECT_EQ(c.serviceCycles, a.serviceCycles);
    EXPECT_EQ(c.deadline, a.deadline);

    // The deadline is measured at High load whatever the config's
    // load override; the service run sets its own 5% load.
    SystemConfig overridden = cfg;
    overridden.utilizationOverride = 0.3;
    const LcCalibration d = calibrateLcApp(overridden, "silo");
    EXPECT_EQ(d.serviceCycles, a.serviceCycles);
    EXPECT_EQ(d.deadline, a.deadline);

    SystemConfig reseeded = cfg;
    reseeded.seed += 1;
    EXPECT_NE(calibrateLcApp(reseeded, "silo").serviceCycles,
              a.serviceCycles);

    // calibrateMix is calibrateLcApp once per distinct LC app.
    Rng rng(7);
    const LcCalibrationMap mix =
        calibrateMix(cfg, makeMix({"silo", "xapian"}, 4, 4, rng));
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_EQ(mix.at("silo").serviceCycles, a.serviceCycles);
    EXPECT_EQ(mix.at("silo").deadline, a.deadline);
    EXPECT_EQ(mix.at("xapian").serviceCycles, x.serviceCycles);
    EXPECT_EQ(mix.at("xapian").deadline, x.deadline);
}

TEST(Harness, RunMixIncludesStaticBaseline)
{
    MixResult result = runMix(smallConfig(), smallMix(),
                              {LlcDesign::Jumanji}, LoadLevel::High);
    EXPECT_EQ(result.designs.size(), 2u);
    EXPECT_EQ(result.designs[0].design, LlcDesign::Static);
    EXPECT_DOUBLE_EQ(result.designs[0].batchSpeedup, 1.0);
    EXPECT_NO_THROW(result.of(LlcDesign::Jumanji));
    EXPECT_THROW(result.of(LlcDesign::Jigsaw), FatalError);
}

TEST(Harness, MixCountEnvOverride)
{
    unsetenv("JUMANJI_MIXES");
    EXPECT_EQ(driver::mixCountFromEnv(6), 6u);
    setenv("JUMANJI_MIXES", "3", 1);
    EXPECT_EQ(driver::mixCountFromEnv(6), 3u);
    // Junk, trailing garbage, signs, 0, and overflow all fall back
    // (and warn once — not asserted here, the warning is logging).
    for (const char *bad :
         {"garbage", "abc", "3x", "0", "-2", " 3", "", "4294967296"}) {
        setenv("JUMANJI_MIXES", bad, 1);
        EXPECT_EQ(driver::mixCountFromEnv(6), 6u) << "value: " << bad;
    }
    unsetenv("JUMANJI_MIXES");
}

TEST(Harness, CalibrationOrderingMatchesTableIII)
{
    // Table III's QPS ordering is a service-time ordering: silo and
    // masstree serve the shortest requests, img-dnn and moses the
    // longest. The calibrated service times must reproduce it.
    const SystemConfig cfg = smallConfig();
    double silo = calibrateLcApp(cfg, "silo").serviceCycles;
    double masstree = calibrateLcApp(cfg, "masstree").serviceCycles;
    double xapian = calibrateLcApp(cfg, "xapian").serviceCycles;
    double imgdnn = calibrateLcApp(cfg, "img-dnn").serviceCycles;
    double moses = calibrateLcApp(cfg, "moses").serviceCycles;
    EXPECT_LT(silo, masstree);
    EXPECT_LT(masstree, xapian);
    EXPECT_LT(xapian, imgdnn);
    EXPECT_LT(xapian, moses);
}

TEST(Harness, AggregationHelpers)
{
    std::vector<MixResult> results;
    results.push_back(runMix(smallConfig(), smallMix(),
                             {LlcDesign::Jumanji}, LoadLevel::High));
    auto speedups = gmeanSpeedups(results);
    auto vuln = meanVulnerability(results);
    EXPECT_EQ(speedups.count(LlcDesign::Jumanji), 1u);
    EXPECT_DOUBLE_EQ(speedups[LlcDesign::Static], 1.0);
    EXPECT_DOUBLE_EQ(vuln[LlcDesign::Jumanji], 0.0);
    EXPECT_GT(vuln[LlcDesign::Static], 10.0);
}

} // namespace
} // namespace jumanji
