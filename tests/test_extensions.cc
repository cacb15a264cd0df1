/**
 * @file
 * Tests for the extension features: the trading policy (the paper's
 * rejected refinement), the VM swap-in flush, the coherence-walk
 * model switch, and the ablation flags.
 */

#include <gtest/gtest.h>

#include "src/core/trade_policy.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/system/config.hh"
#include "src/system/system.hh"
#include "src/workloads/mixes.hh"

namespace jumanji {
namespace {

PlacementGeometry
tradeGeo()
{
    PlacementGeometry geo;
    geo.banks = 4;
    geo.waysPerBank = 8;
    geo.linesPerBank = 1024;
    geo.linesPerBucket = geo.totalLines() / 16;
    return geo;
}

EpochInputs
tradeInputs(const PlacementGeometry &geo, const MeshTopology &mesh)
{
    // One VM spanning the whole 2x2 mesh: LC on tile 0, batch on
    // tile 3 — maximally far apart, the configuration most likely
    // to produce profitable trades.
    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;

    VcInfo lc;
    lc.vc = 0;
    lc.app = 0;
    lc.vm = 0;
    lc.coreTile = 0;
    lc.latencyCritical = true;
    lc.targetLines = geo.linesPerBank + geo.linesPerBank / 2;
    lc.curve = MissCurve({100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 0, 0,
                          0, 0, 0, 0});
    lc.name = "lc";
    in.vcs.push_back(lc);

    VcInfo batch;
    batch.vc = 1;
    batch.app = 1;
    batch.vm = 0;
    batch.coreTile = 3;
    batch.latencyCritical = false;
    batch.curve = MissCurve({1000, 700, 500, 350, 250, 180, 130, 90,
                             60, 40, 25, 15, 10, 6, 3, 1, 0});
    batch.name = "batch";
    in.vcs.push_back(batch);
    return in;
}

// -------------------------------------------------------- TradePolicy

TEST(TradePolicy, RejectsPenalizingCompensation)
{
    TradeParams params;
    params.compensation = 0.9;
    EXPECT_THROW(JumanjiTradePolicy{params}, FatalError);
}

TEST(TradePolicy, CapacityConservedAcrossTrades)
{
    MeshParams mp;
    mp.cols = 2;
    mp.rows = 2;
    MeshTopology mesh(mp);
    PlacementGeometry geo = tradeGeo();
    EpochInputs in = tradeInputs(geo, mesh);

    JumanjiTradePolicy policy;
    PlacementPlan plan = policy.reconfigure(in);

    std::uint64_t total = 0;
    for (const auto &vc : in.vcs) total += plan.matrix.vcTotal(vc.vc);
    EXPECT_LE(total, geo.totalLines());
    for (std::uint32_t b = 0; b < geo.banks; b++)
        EXPECT_LE(plan.matrix.bankTotal(static_cast<BankId>(b)),
                  geo.linesPerBank);
}

TEST(TradePolicy, LcNeverShrinksFromTrades)
{
    MeshParams mp;
    mp.cols = 2;
    mp.rows = 2;
    MeshTopology mesh(mp);
    PlacementGeometry geo = tradeGeo();
    EpochInputs in = tradeInputs(geo, mesh);

    JumanjiPolicy plain(true);
    JumanjiTradePolicy trading;
    PlacementPlan before = plain.reconfigure(in);
    PlacementPlan after = trading.reconfigure(in);

    // The LC app's total may only grow (compensation >= 1).
    EXPECT_GE(after.matrix.vcTotal(0), before.matrix.vcTotal(0));
}

TEST(TradePolicy, TradesAreRareOnStandardWorkloads)
{
    // The paper's negative result: on the standard 4-VM case study,
    // the no-penalty constraint leaves few acceptable trades, so the
    // policy behaves like plain Jumanji.
    MeshParams mp;
    mp.cols = 5;
    mp.rows = 4;
    MeshTopology mesh(mp);
    PlacementGeometry geo;
    geo.banks = 20;
    geo.waysPerBank = 32;
    geo.linesPerBank = 4096;
    geo.linesPerBucket = geo.totalLines() / 64;

    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;
    Rng rng(3);
    for (int i = 0; i < 20; i++) {
        VcInfo vc;
        vc.vc = i;
        vc.app = i;
        vc.vm = i / 5;
        vc.coreTile = static_cast<std::uint32_t>(i);
        vc.latencyCritical = (i % 5 == 0);
        vc.targetLines = geo.linesPerBank;
        std::vector<double> pts(65);
        double v = 1e4 + static_cast<double>(rng.below(100000));
        for (auto &p : pts) {
            p = v;
            v *= 0.85;
        }
        vc.curve = MissCurve(pts);
        vc.name = "app" + std::to_string(i);
        in.vcs.push_back(std::move(vc));
    }

    JumanjiTradePolicy policy;
    for (int epoch = 0; epoch < 5; epoch++) policy.reconfigure(in);
    // Acceptance rate is low: trades happen, but rarely relative to
    // candidates considered.
    EXPECT_GT(policy.tradesConsidered(), policy.tradesAccepted() * 4);
}

// ----------------------------------------------------- VM flush

TEST(VmFlush, DropsOnlyOtherVmsLines)
{
    LlcParams llc;
    llc.banks = 2;
    llc.setsPerBank = 16;
    llc.ways = 4;
    llc.repl = ReplKind::LRU;
    MeshParams mesh;
    mesh.cols = 2;
    mesh.rows = 1;
    MemPath path(llc, mesh, MemoryParams{}, UmonParams{}, 1);

    PlacementDescriptor striped;
    striped.fillStriped({0, 1});
    for (VcId vc = 0; vc < 2; vc++) {
        path.registerVc(vc);
        path.installPlacement(vc, striped);
    }

    AccessOwner a;
    a.vc = 0;
    a.app = 0;
    a.vm = 0;
    AccessOwner b;
    b.vc = 1;
    b.app = 1;
    b.vm = 1;
    for (LineAddr l = 0; l < 40; l++) path.access(0, 0, a, l);
    for (LineAddr l = 1000; l < 1040; l++) path.access(100, 1, b, l);

    std::uint64_t vm0Before = path.bank(0).constArray().occupancyOfVc(0);
    ASSERT_GT(vm0Before, 0u);

    // VM 0 is swapped onto bank 0: all other VMs' state is flushed.
    std::uint64_t flushed = path.flushBankForVm(0, /*incoming=*/0);
    EXPECT_GT(flushed, 0u);
    EXPECT_EQ(path.bank(0).constArray().occupancyOfVc(1), 0u);
    EXPECT_EQ(path.bank(0).constArray().occupancyOfVc(0), vm0Before);
    // Bank 1 untouched.
    EXPECT_GT(path.bank(1).constArray().occupancyOfVc(1), 0u);
}

// ------------------------------------------------- walk model switch

TEST(WalkModel, MigrationPreservesResidency)
{
    LlcParams llc;
    llc.banks = 2;
    llc.setsPerBank = 16;
    llc.ways = 4;
    llc.repl = ReplKind::LRU;
    MeshParams mesh;
    mesh.cols = 2;
    mesh.rows = 1;

    for (bool migrate : {true, false}) {
        MemPath path(llc, mesh, MemoryParams{}, UmonParams{}, 1);
        path.setMigrateOnReconfig(migrate);
        path.registerVc(0);
        PlacementDescriptor first;
        first.fillStriped({0});
        path.installPlacement(0, first);

        AccessOwner o;
        o.vc = 0;
        o.app = 0;
        o.vm = 0;
        for (LineAddr l = 0; l < 30; l++) path.access(0, 0, o, l);
        std::uint64_t resident =
            path.bank(0).constArray().occupancyOfVc(0);

        PlacementDescriptor second;
        second.fillStriped({1});
        path.installPlacement(0, second);

        std::uint64_t after = path.bank(1).constArray().occupancyOfVc(0);
        if (migrate) {
            EXPECT_EQ(after, resident) << "migration must carry lines";
        } else {
            EXPECT_EQ(after, 0u) << "invalidation must drop lines";
        }
        EXPECT_EQ(path.bank(0).constArray().occupancyOfVc(0), 0u);
    }
}

// -------------------------------------------------- thread migration

TEST(Migration, AllocationFollowsThread)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 200000;
    cfg.measureTicks = 200000;
    cfg.design = LlcDesign::Jumanji;
    cfg.seed = 3;

    // Two VMs with one LC app each, plus one batch app, leaving
    // free tiles to migrate into.
    WorkloadMix mix;
    for (int v = 0; v < 2; v++) {
        VmSpec vm;
        vm.lcApps.push_back("silo");
        vm.batchApps.push_back("429.mcf");
        mix.vms.push_back(vm);
    }
    System system(cfg, mix);
    system.runUntil(cfg.warmupTicks);

    // App 0 (VM 0's silo) starts at tile 0; its allocation should
    // sit in nearby banks.
    MeshTopology mesh(cfg.mesh);
    auto meanHops = [&](std::uint32_t tile) {
        const auto &banks =
            system.memPath().vtb().descriptor(0).ownedBanks();
        double hops = 0;
        for (BankId b : banks)
            hops += mesh.hops(tile, static_cast<std::uint32_t>(b));
        return hops / static_cast<double>(banks.size());
    };
    double hopsFromOldTile = meanHops(0);

    // Migrate to the free top-right corner (VM anchors sit at tiles
    // 0 and 19; tiles 4 and 15 are unoccupied).
    system.migrateApp(0, 4);
    system.runUntil(cfg.warmupTicks + 4 * cfg.epochTicks);

    double hopsFromNewTile = meanHops(4);
    double hopsFromAbandonedTile = meanHops(0);
    // The allocation must now be anchored at the new tile: close to
    // it in absolute terms (mesh-average distance is ~3.5 hops) and
    // far closer than to the abandoned tile.
    EXPECT_LT(hopsFromNewTile, hopsFromOldTile + 1.0);
    EXPECT_LT(hopsFromNewTile, 2.0);
    EXPECT_GT(hopsFromAbandonedTile, hopsFromNewTile + 0.5)
        << "allocation still anchored at the abandoned tile";

    EXPECT_EQ(system.runtime().appTile(0), 4u);
}

TEST(Migration, InFlightAccessIsChargedTheNewTilesHops)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 200000;
    cfg.design = LlcDesign::Jumanji;
    cfg.seed = 3;
    WorkloadMix mix;
    for (int v = 0; v < 2; v++) {
        VmSpec vm;
        vm.lcApps.push_back("silo");
        vm.batchApps.push_back("429.mcf");
        mix.vms.push_back(vm);
    }
    System system(cfg, mix);
    // Past the epoch boundary at warmupTicks, so no reconfiguration
    // (and no VTB change) happens while the access is in flight.
    system.runUntil(cfg.warmupTicks + 1);

    // Pin VM 0's batch app to one bank whose distance differs from
    // its old tile and from the free tile 4 it migrates to.
    const std::size_t app = 1;
    CoreModel &core = *system.cores()[app];
    const auto oldTile = static_cast<std::uint32_t>(core.id());
    const std::uint32_t newTile = 4;
    const BankId bank = 15;
    MeshTopology mesh(cfg.mesh);
    const std::uint32_t newHops =
        mesh.hops(newTile, static_cast<std::uint32_t>(bank));
    ASSERT_NE(mesh.hops(oldTile, static_cast<std::uint32_t>(bank)),
              newHops);
    PlacementDescriptor pinned;
    pinned.fillStriped({bank});
    system.memPath().installPlacement(core.owner().vc, pinned);

    // Step one tick at a time to an access issued after the pin.
    Tick t = system.queue().now();
    auto stepWhile = [&](bool inFlight) {
        for (int i = 0; i < 100000 && core.accessInFlight() == inFlight;
             i++)
            system.runUntil(++t);
        ASSERT_NE(core.accessInFlight(), inFlight);
    };
    stepWhile(true);
    stepWhile(false);
    const std::uint64_t hopsBefore = core.counters().nocHops;
    system.migrateApp(app, newTile);
    stepWhile(true);
    // Both directions are charged from the tile the core now sits on.
    EXPECT_EQ(core.counters().nocHops - hopsBefore, 2ull * newHops);
}

TEST(Migration, RejectsOccupiedTile)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    Rng rng(2);
    WorkloadMix mix = makeMix({"silo"}, 4, 4, rng);
    System system(cfg, mix);
    // Tile of app 1 is occupied.
    std::uint32_t occupied =
        static_cast<std::uint32_t>(system.cores()[1]->id());
    EXPECT_THROW(system.migrateApp(0, occupied), FatalError);
    EXPECT_THROW(system.migrateApp(99, 0), FatalError);
}

// ------------------------------------------------- ablation flags

TEST(AblationFlags, VariantsRunAndStayIsolated)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 200000;
    cfg.measureTicks = 200000;
    cfg.design = LlcDesign::Jumanji;
    Rng rng(5);
    WorkloadMix mix = makeMix({"silo"}, 4, 4, rng);

    for (int variant = 0; variant < 3; variant++) {
        SystemConfig c = cfg;
        if (variant == 0) c.hullCurves = false;
        if (variant == 1) c.rateNormalizeCurves = false;
        if (variant == 2) c.migrateOnReconfig = false;
        System system(c, mix);
        RunResult run = system.run();
        EXPECT_DOUBLE_EQ(run.attackersPerAccess(), 0.0)
            << "variant " << variant
            << " must not affect the isolation guarantee";
    }
}

} // namespace
} // namespace jumanji
