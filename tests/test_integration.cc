/**
 * @file
 * Integration tests: cross-module behaviours that the paper's
 * results rest on, each checked end-to-end on a (small) simulated
 * system. These are slower than unit tests but still finish in
 * seconds.
 */

#include <gtest/gtest.h>

#include "src/cpu/core_model.hh"
#include "src/security/attacks.hh"
#include "src/system/harness.hh"

namespace jumanji {
namespace {

constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

SystemConfig
itConfig(std::uint64_t seed = 11)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 100000;
    cfg.warmupTicks = 600000;
    cfg.measureTicks = 1000000;
    cfg.seed = seed;
    return cfg;
}

double
soloTail(LlcDesign design, std::uint64_t lines, const SystemConfig &base)
{
    SystemConfig cfg = base;
    cfg.design = design;
    cfg.load = LoadLevel::High;
    cfg.fixedLcTargetLines = lines;
    WorkloadMix solo;
    VmSpec vm;
    vm.lcApps.push_back("xapian");
    solo.vms.push_back(vm);
    LcCalibrationMap calib;
    calib["xapian"] = LcCalibration{12000.0, 0.0};
    System system(cfg, solo, calib);
    RunResult run = system.run();
    for (const auto &app : run.apps)
        if (app.latencyCritical) return app.tailLatency;
    return 0.0;
}

/** Fig. 8's core claim: at equal (modest) allocation, nearby D-NUCA
 *  placement yields a lower tail than striped S-NUCA. */
TEST(Integration, DnucaBeatsSnucaAtEqualAllocation)
{
    SystemConfig cfg = itConfig();
    std::uint64_t lines = cfg.placementGeometry().totalLines() / 10;
    double snuca = soloTail(LlcDesign::Adaptive, lines, cfg);
    double dnuca = soloTail(LlcDesign::Jumanji, lines, cfg);
    EXPECT_LT(dnuca, snuca);
}

/** More capacity never makes the solo tail dramatically worse. */
TEST(Integration, TailMonotoneInAllocation)
{
    SystemConfig cfg = itConfig();
    std::uint64_t total = cfg.placementGeometry().totalLines();
    double small = soloTail(LlcDesign::Jumanji, total / 20, cfg);
    double large = soloTail(LlcDesign::Jumanji, total / 4, cfg);
    EXPECT_LT(large, small * 1.3);
}

/** Jigsaw starves an idle LC app: at low load its allocation is a
 *  small fraction of what tail-aware designs reserve. */
TEST(Integration, JigsawStarvesIdleLatencyCritical)
{
    SystemConfig cfg = itConfig();
    cfg.load = LoadLevel::Low;
    Rng rng(3);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);

    auto lcAllocUnder = [&](LlcDesign d) {
        SystemConfig c = cfg;
        c.design = d;
        System system(c, mix);
        system.run();
        // LC allocations in the last recorded epoch.
        const TimelineSeries &ts = system.recorder().series();
        std::uint64_t lc = 0;
        for (const auto &core : system.cores()) {
            if (!core->owner().latencyCritical) continue;
            std::size_t col = ts.columnIndex(
                "runtime.vc" + statIndexName(core->owner().vc) +
                ".allocLines");
            EXPECT_NE(col, kNoColumn);
            if (col == kNoColumn) continue;
            double last = 0.0;
            for (auto row = ts.cursor(); row.next();) last = row[col];
            lc += static_cast<std::uint64_t>(last);
        }
        return lc;
    };

    std::uint64_t jigsaw = lcAllocUnder(LlcDesign::Jigsaw);
    std::uint64_t jumanji = lcAllocUnder(LlcDesign::Jumanji);
    EXPECT_LT(jigsaw, jumanji / 2)
        << "Jigsaw should give idle LC apps far less than Jumanji";
}

/** Jumanji's bank isolation is airtight across the whole run, for
 *  every seed tried (TEST_P over seeds below stresses this more). */
TEST(Integration, JumanjiIsolationHoldsUnderReconfiguration)
{
    SystemConfig cfg = itConfig();
    cfg.design = LlcDesign::Jumanji;
    Rng rng(17);
    WorkloadMix mix = makeMix(allTailAppNames(), 4, 4, rng);
    System system(cfg, mix);
    RunResult run = system.run();
    EXPECT_DOUBLE_EQ(run.attackersPerAccess(), 0.0);
    // Also true per-epoch, not just on average.
    const TimelineSeries &ts = system.recorder().series();
    std::size_t vuln = ts.columnIndex("epoch.vuln");
    ASSERT_NE(vuln, kNoColumn);
    ASSERT_FALSE(ts.empty());
    for (auto row = ts.cursor(); row.next();)
        EXPECT_DOUBLE_EQ(row[vuln], 0.0);
}

/** The D-NUCAs cut average hop distance dramatically vs S-NUCA. */
TEST(Integration, DnucaReducesNocHops)
{
    SystemConfig cfg = itConfig();
    Rng rng(5);
    WorkloadMix mix = makeMix({"silo"}, 4, 4, rng);

    auto hopsUnder = [&](LlcDesign d) {
        SystemConfig c = cfg;
        c.design = d;
        System system(c, mix);
        RunResult run = system.run();
        double hops = 0.0;
        std::uint64_t accesses = 0;
        for (const auto &app : run.apps) {
            hops += static_cast<double>(app.counters.nocHops);
            accesses += app.counters.llcHits + app.counters.llcMisses;
        }
        return hops / (2.0 * static_cast<double>(accesses));
    };

    double snuca = hopsUnder(LlcDesign::Static);
    double dnuca = hopsUnder(LlcDesign::Jumanji);
    EXPECT_GT(snuca, 2.0);
    EXPECT_LT(dnuca, snuca / 2.0);
}

/** Data-movement energy: D-NUCA total below S-NUCA total. */
TEST(Integration, DnucaReducesDataMovementEnergy)
{
    // The energy claim is about the paper-proportioned geometry;
    // the extra-tiny itConfig over-penalizes partitioning, so this
    // test runs at bench scale with shortened windows.
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = 11;
    Rng rng(7);
    // Mixed LC apps: single-app selections (especially silo, whose
    // tiny requests magnify LC memory traffic) are noisier.
    WorkloadMix mix = makeMix(allTailAppNames(), 4, 4, rng);

    struct Point
    {
        EnergyBreakdown energy;
        EnergyBreakdown batchEnergy;
        double instrs;
        double batchInstrs;
    };
    auto energyUnder = [&](LlcDesign d) {
        SystemConfig c = cfg;
        c.design = d;
        System system(c, mix);
        RunResult run = system.run();
        Point p;
        p.energy = run.energy();
        for (const auto &app : run.apps) {
            p.instrs += static_cast<double>(app.progress.instrs);
            if (!app.latencyCritical) {
                p.batchEnergy += dataMovementEnergy(app.counters);
                p.batchInstrs +=
                    static_cast<double>(app.progress.instrs);
            }
        }
        return p;
    };
    // Energy must be compared at equal *work* (pJ per instruction),
    // not per wall-clock window: faster designs execute more.
    Point snuca = energyUnder(LlcDesign::Static);
    Point dnuca = energyUnder(LlcDesign::Jumanji);
    // The robust claims: placement slashes NoC energy (Fig. 15's
    // dominant D-NUCA effect)...
    EXPECT_LT(dnuca.energy.noc / dnuca.instrs,
              0.6 * snuca.energy.noc / snuca.instrs);
    // ...and whole-system energy stays within ~20% of Static.
    // (The paper's -13% total does not fully transfer: our scaled
    // LC apps are more memory-intensive than TailBench's, and small
    // per-app partitions lose some capacity to per-set skew at the
    // scaled geometry; see EXPERIMENTS.md. The NoC reduction above
    // is the robust D-NUCA signature.)
    EXPECT_LT(dnuca.energy.total() / dnuca.instrs,
              snuca.energy.total() / snuca.instrs * 1.20);
}

/** Port attack end-to-end: flooding victim raises attacker latency
 *  only while it shares the bank. */
TEST(Integration, PortContentionObservableAtSharedBank)
{
    LlcParams llc;
    llc.banks = 4;
    llc.setsPerBank = 32;
    llc.ways = 8;
    llc.timing.portOccupancy = 3;
    MeshParams mesh;
    mesh.cols = 2;
    mesh.rows = 2;
    MemPath path(llc, mesh, MemoryParams{}, UmonParams{}, 1);

    PlacementDescriptor striped;
    striped.fillStriped({0, 1, 2, 3});
    path.registerVc(0);
    path.installPlacement(0, striped);
    path.registerVc(1);
    path.installPlacement(1, striped);

    PortAttackerApp attacker(
        linesTargetingBank(appAddressBase(0), 2, 4, 16), 50);
    AccessOwner ao;
    ao.vc = 0;
    ao.app = 0;
    ao.vm = 0;
    CoreModel attackerCore(0, ao, &attacker, &path, Rng(1));

    std::vector<std::vector<LineAddr>> perBank;
    for (BankId b = 0; b < 4; b++)
        perBank.push_back(
            linesTargetingBank(appAddressBase(1), b, 4, 16));
    RotatingVictimApp victim(std::move(perBank), 20000, 5000);
    AccessOwner vo;
    vo.vc = 1;
    vo.app = 1;
    vo.vm = 1;
    CoreModel victimCore(3, vo, &victim, &path, Rng(2));

    EventQueue queue;
    queue.schedule(&attackerCore, 0);
    queue.schedule(&victimCore, 0);
    queue.runUntil(2 * 4 * 25000);

    double floor = 1e30, peak = 0.0;
    for (const auto &s : attacker.trace()) {
        if (s.when < 3000) continue;
        floor = std::min(floor, s.cyclesPerAccess);
        peak = std::max(peak, s.cyclesPerAccess);
    }
    EXPECT_GT(peak, floor + 0.2)
        << "victim flooding must be observable through port queueing";
}

/** The coherence walk makes reconfiguration visible but small once
 *  the runtime stabilizes placements. */
TEST(Integration, ReconfigurationChurnBounded)
{
    SystemConfig cfg = itConfig();
    cfg.design = LlcDesign::Jumanji;
    Rng rng(13);
    WorkloadMix mix = makeMix({"masstree"}, 4, 4, rng);
    System system(cfg, mix);
    RunResult run = system.run();
    std::uint64_t totalLines = cfg.placementGeometry().totalLines();
    double perEpoch = static_cast<double>(run.coherenceInvalidations()) /
                      static_cast<double>(run.reconfigurations());
    EXPECT_LT(perEpoch, 0.5 * static_cast<double>(totalLines))
        << "descriptor stabilization should keep churn well below "
           "half the LLC per epoch";
}

/** Identical arrival streams across designs: the paired-comparison
 *  property the harness depends on. */
TEST(Integration, ArrivalsIdenticalAcrossDesigns)
{
    SystemConfig cfg = itConfig();
    Rng rngA(21), rngB(21);
    WorkloadMix mixA = makeMix({"silo"}, 4, 4, rngA);
    WorkloadMix mixB = makeMix({"silo"}, 4, 4, rngB);

    SystemConfig a = cfg;
    a.design = LlcDesign::Static;
    System sysA(a, mixA);
    sysA.run();

    SystemConfig b = cfg;
    b.design = LlcDesign::Jumanji;
    System sysB(b, mixB);
    sysB.run();

    auto tailsA = sysA.tailApps();
    auto tailsB = sysB.tailApps();
    ASSERT_EQ(tailsA.size(), tailsB.size());
    for (std::size_t i = 0; i < tailsA.size(); i++) {
        // requestsArrived counts *drained* arrivals; a slower design
        // drains a few arrivals later, so allow a small lag.
        double a = static_cast<double>(tailsA[i]->requestsArrived());
        double b = static_cast<double>(tailsB[i]->requestsArrived());
        EXPECT_NEAR(a, b, 0.05 * std::max(a, b));
    }
}

/** Ideal Batch really is a (near-)upper bound for Jumanji's batch. */
TEST(Integration, IdealBatchBoundsJumanji)
{
    Rng rng(29);
    WorkloadMix mix = makeMix({"silo"}, 4, 4, rng);
    MixResult result = runMix(
        itConfig(), mix,
        {LlcDesign::Jumanji, LlcDesign::JumanjiIdealBatch},
        LoadLevel::High);
    double jumanji = result.of(LlcDesign::Jumanji).batchSpeedup;
    double ideal = result.of(LlcDesign::JumanjiIdealBatch).batchSpeedup;
    // Allow small inversion from measurement noise.
    EXPECT_GT(ideal, jumanji - 0.06);
}

} // namespace
} // namespace jumanji
