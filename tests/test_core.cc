/**
 * @file
 * Unit tests for the paper's core algorithms: the feedback
 * controller (Listing 1), Lookahead / JumanjiLookahead,
 * LatCritPlacer (Listing 2), JigsawPlacer, plan materialization, and
 * the full policies (Listing 3 et al.).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/feedback_controller.hh"
#include "src/core/jigsaw_placer.hh"
#include "src/core/lat_crit_placer.hh"
#include "src/core/lookahead.hh"
#include "src/core/placement_types.hh"
#include "src/core/policies.hh"
#include "src/core/runtime_driver.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/fingerprint.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/sim/statreg.hh"
#include "src/sim/tracing.hh"

namespace jumanji {
namespace {

PlacementGeometry
testGeo(std::uint32_t banks = 4, std::uint32_t ways = 8,
        std::uint64_t linesPerBank = 1024)
{
    PlacementGeometry geo;
    geo.banks = banks;
    geo.waysPerBank = ways;
    geo.linesPerBank = linesPerBank;
    geo.linesPerBucket = geo.totalLines() / 16;
    return geo;
}

MeshParams
quadMesh()
{
    MeshParams p;
    p.cols = 2;
    p.rows = 2;
    return p;
}

// -------------------------------------------------- FeedbackController

ControllerParams
defaultCtrl()
{
    return ControllerParams{};
}

TEST(FeedbackController, HoldsInsideTargetBand)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 500, 800, 10, 10000);
    // Tail at 90% of deadline: inside [85%, 95%] -> hold.
    for (int i = 0; i < 21; i++) ctrl.requestCompleted(900.0);
    EXPECT_EQ(ctrl.targetLines(), 500u);
}

TEST(FeedbackController, GrowsWhenAboveHighFrac)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 500, 800, 10, 10000);
    for (int i = 0; i < 21; i++) ctrl.requestCompleted(1000.0);
    EXPECT_EQ(ctrl.targetLines(), 550u); // +10%
}

TEST(FeedbackController, ShrinksWhenBelowLowFrac)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 500, 800, 10, 10000);
    for (int i = 0; i < 21; i++) ctrl.requestCompleted(100.0);
    EXPECT_EQ(ctrl.targetLines(), 450u); // -10%
}

TEST(FeedbackController, PanicBoostsToSafeSize)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 100, 800, 10, 10000);
    for (int i = 0; i < 21; i++) ctrl.requestCompleted(2000.0);
    EXPECT_EQ(ctrl.targetLines(), 800u);
    EXPECT_EQ(ctrl.panics(), 1u);
}

TEST(FeedbackController, RepeatedPanicKeepsGrowing)
{
    // When the panic size itself is insufficient, the controller
    // must not get stuck at it.
    FeedbackController ctrl(defaultCtrl(), 1000.0, 800, 800, 10, 10000);
    for (int round = 0; round < 3; round++)
        for (int i = 0; i < 21; i++) ctrl.requestCompleted(2000.0);
    EXPECT_GT(ctrl.targetLines(), 800u);
}

TEST(FeedbackController, ClampsToBounds)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 95, 50, 90, 100);
    for (int round = 0; round < 10; round++)
        for (int i = 0; i < 21; i++) ctrl.requestCompleted(1.0);
    EXPECT_EQ(ctrl.targetLines(), 90u); // min clamp
    for (int round = 0; round < 20; round++)
        for (int i = 0; i < 21; i++) ctrl.requestCompleted(990.0);
    EXPECT_EQ(ctrl.targetLines(), 100u); // max clamp
}

TEST(FeedbackController, UpdatesOnlyEveryInterval)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 500, 800, 10, 10000);
    // Listing 1: update fires when count exceeds the interval.
    for (int i = 0; i < 20; i++)
        EXPECT_FALSE(ctrl.requestCompleted(2000.0));
    EXPECT_TRUE(ctrl.requestCompleted(2000.0));
}

TEST(FeedbackController, TracksLastTail)
{
    FeedbackController ctrl(defaultCtrl(), 1000.0, 500, 800, 10, 10000);
    for (int i = 0; i < 21; i++) ctrl.requestCompleted(640.0);
    EXPECT_NEAR(ctrl.lastTail(), 640.0, 1.0);
}

TEST(FeedbackController, RejectsBadConfig)
{
    EXPECT_THROW(FeedbackController(defaultCtrl(), 0.0, 1, 1, 1, 2),
                 FatalError);
    EXPECT_THROW(FeedbackController(defaultCtrl(), 10.0, 1, 1, 5, 2),
                 FatalError);
}

// ---------------------------------------------------------- Lookahead

MissCurve
steepCurve()
{
    // Saves 100 misses/bucket for 4 buckets.
    return MissCurve({400, 300, 200, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                      0, 0, 0});
}

MissCurve
shallowCurve()
{
    // Saves 10 misses/bucket for 8 buckets.
    return MissCurve({80, 70, 60, 50, 40, 30, 20, 10, 0, 0, 0, 0, 0, 0,
                      0, 0, 0});
}

TEST(Lookahead, PrefersSteeperCurve)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].curve = steepCurve();
    claims[1].curve = shallowCurve();

    // Budget of 4 buckets: all to the steep claim.
    LookaheadResult r = lookahead(claims, 4 * geo.linesPerBucket, geo);
    EXPECT_EQ(r.lines[0], 4 * geo.linesPerBucket);
    EXPECT_EQ(r.lines[1], 0u);
}

TEST(Lookahead, SpillsToSecondClaim)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].curve = steepCurve();
    claims[1].curve = shallowCurve();

    LookaheadResult r = lookahead(claims, 6 * geo.linesPerBucket, geo);
    EXPECT_EQ(r.lines[0], 4 * geo.linesPerBucket);
    EXPECT_EQ(r.lines[1], 2 * geo.linesPerBucket);
}

TEST(Lookahead, BudgetConserved)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(3);
    claims[0].curve = steepCurve();
    claims[1].curve = shallowCurve();
    claims[2].curve = MissCurve::flat(16, 5.0);

    std::uint64_t budget = geo.totalLines();
    LookaheadResult r = lookahead(claims, budget, geo);
    std::uint64_t total = 0;
    for (auto l : r.lines) total += l;
    EXPECT_EQ(total, budget);
}

TEST(Lookahead, FlatCurvesSplitEvenly)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(4);
    for (auto &c : claims) c.curve = MissCurve::flat(16, 0.0);

    LookaheadResult r = lookahead(claims, geo.totalLines(), geo);
    for (auto l : r.lines)
        EXPECT_NEAR(static_cast<double>(l),
                    static_cast<double>(geo.totalLines()) / 4,
                    static_cast<double>(geo.linesPerWay()));
}

TEST(Lookahead, FloorsRespected)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].curve = MissCurve::flat(16, 0.0);
    claims[0].floorLines = 500;
    claims[1].curve = steepCurve();

    LookaheadResult r = lookahead(claims, 1000, geo);
    EXPECT_GE(r.lines[0], 500u);
}

TEST(Lookahead, FloorsBeyondBudgetGrantedOnly)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].floorLines = 800;
    claims[1].floorLines = 800;
    LookaheadResult r = lookahead(claims, 1000, geo);
    EXPECT_EQ(r.lines[0], 800u);
    EXPECT_EQ(r.lines[1], 800u);
}

TEST(JumanjiLookahead, BankGranularTotals)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].curve = steepCurve();
    claims[0].floorLines = 300; // 0.29 banks of LC
    claims[1].curve = shallowCurve();

    LookaheadResult r = jumanjiLookahead(claims, geo.totalLines(), geo);
    std::uint64_t total = 0;
    for (auto l : r.lines) {
        EXPECT_EQ(l % geo.linesPerBank, 0u) << "not bank granular";
        total += l;
    }
    EXPECT_EQ(total, geo.totalLines());
}

TEST(JumanjiLookahead, FloorCoversLatCritReservation)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(2);
    claims[0].floorLines = geo.linesPerBank + 1; // needs 2 banks
    claims[1].curve = steepCurve();

    LookaheadResult r = jumanjiLookahead(claims, geo.totalLines(), geo);
    EXPECT_GE(r.lines[0], 2 * geo.linesPerBank);
}

TEST(JumanjiLookahead, EveryVmGetsABank)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(4);
    claims[0].curve = steepCurve();
    for (std::size_t i = 1; i < 4; i++)
        claims[i].curve = MissCurve::flat(16, 0.0);

    LookaheadResult r = jumanjiLookahead(claims, geo.totalLines(), geo);
    for (auto l : r.lines) EXPECT_GE(l, geo.linesPerBank);
}

TEST(JumanjiLookahead, RejectsNonBankBudget)
{
    PlacementGeometry geo = testGeo();
    std::vector<LookaheadClaim> claims(1);
    EXPECT_THROW(jumanjiLookahead(claims, geo.linesPerBank + 7, geo),
                 PanicError);
}

// ------------------------------------------------------ LatCritPlacer

VcInfo
lcVc(VcId vc, VmId vm, std::uint32_t tile, std::uint64_t target)
{
    VcInfo info;
    info.vc = vc;
    info.app = vc;
    info.vm = vm;
    info.coreTile = tile;
    info.latencyCritical = true;
    info.targetLines = target;
    info.name = "lc" + std::to_string(vc);
    return info;
}

TEST(LatCritPlacer, PlacesInNearestBank)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    latCritPlacer({lcVc(0, 0, 0, 512)}, balance, mesh, geo, true,
                  matrix);
    EXPECT_EQ(matrix.get(0, 0), 512u);
    EXPECT_EQ(balance[0], geo.linesPerBank - 512);
}

TEST(LatCritPlacer, SpillsToNextNearest)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    latCritPlacer({lcVc(0, 0, 0, geo.linesPerBank + 100)}, balance,
                  mesh, geo, true, matrix);
    EXPECT_EQ(matrix.get(0, 0), geo.linesPerBank);
    EXPECT_EQ(matrix.vcTotal(0), geo.linesPerBank + 100);
}

TEST(LatCritPlacer, IsolatesVms)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    // Two LC apps of different VMs anchored at the same tile: with
    // isolation their allocations must not share banks.
    latCritPlacer({lcVc(0, 0, 0, 512), lcVc(1, 1, 0, 512)}, balance,
                  mesh, geo, true, matrix);
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        bool hasVm0 = matrix.get(static_cast<BankId>(b), 0) > 0;
        bool hasVm1 = matrix.get(static_cast<BankId>(b), 1) > 0;
        EXPECT_FALSE(hasVm0 && hasVm1);
    }
}

TEST(LatCritPlacer, SharingAllowedWhenInsecure)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    latCritPlacer({lcVc(0, 0, 0, 512), lcVc(1, 1, 0, 512)}, balance,
                  mesh, geo, false, matrix);
    // Both land in the closest bank (bank 0).
    EXPECT_EQ(matrix.get(0, 0), 512u);
    EXPECT_EQ(matrix.get(0, 1), 512u);
}

// ------------------------------------------------------- JigsawPlacer

TEST(JigsawPlacer, PlacesNearCore)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    PlacementRequest req;
    req.vc = 0;
    req.coreTile = 3;
    req.lines = 100;
    req.intensity = 1.0;
    jigsawPlacer({req}, balance, {}, mesh, matrix);
    EXPECT_EQ(matrix.get(3, 0), 100u);
}

TEST(JigsawPlacer, RespectsAllowedBanks)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    PlacementRequest req;
    req.vc = 0;
    req.coreTile = 0;
    req.lines = 2 * geo.linesPerBank;
    jigsawPlacer({req}, balance, {2, 3}, mesh, matrix);
    EXPECT_EQ(matrix.get(0, 0), 0u);
    EXPECT_EQ(matrix.get(1, 0), 0u);
    EXPECT_EQ(matrix.get(2, 0) + matrix.get(3, 0),
              2 * geo.linesPerBank);
}

TEST(JigsawPlacer, HotterVcPicksFirst)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    PlacementRequest cold;
    cold.vc = 0;
    cold.coreTile = 1;
    cold.lines = geo.linesPerBank;
    cold.intensity = 1.0;
    PlacementRequest hot;
    hot.vc = 1;
    hot.coreTile = 1;
    hot.lines = geo.linesPerBank;
    hot.intensity = 100.0;
    jigsawPlacer({cold, hot}, balance, {}, mesh, matrix);
    // The hot VC owns the local bank.
    EXPECT_EQ(matrix.get(1, 1), geo.linesPerBank);
    EXPECT_EQ(matrix.get(1, 0), 0u);
}

TEST(JigsawPlacer, ConservesCapacity)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    std::vector<PlacementRequest> reqs;
    for (int i = 0; i < 4; i++) {
        PlacementRequest r;
        r.vc = i;
        r.coreTile = static_cast<std::uint32_t>(i);
        r.lines = geo.linesPerBank;
        r.intensity = i;
        reqs.push_back(r);
    }
    jigsawPlacer(reqs, balance, {}, mesh, matrix);
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        EXPECT_EQ(matrix.bankTotal(static_cast<BankId>(b)),
                  geo.linesPerBank);
        EXPECT_EQ(balance[b], 0u);
    }
}

// ---------------------------------------------------- materializePlan

TEST(MaterializePlan, AbsoluteWayCounts)
{
    PlacementGeometry geo = testGeo(4, 8, 1024); // 128 lines/way
    AllocationMatrix matrix(geo.banks);
    // One VC with 2 ways' worth in bank 0: gets exactly 2 ways even
    // though the bank is otherwise empty (CAT masks are absolute).
    matrix.add(0, 7, 256);
    PlacementPlan plan = materializePlan(matrix, geo, nullptr);
    EXPECT_EQ(plan.wayMasks.at(7)[0].count(), 2u);
    EXPECT_TRUE(plan.wayMasks.at(7)[1].empty());
}

TEST(MaterializePlan, OversubscriptionScalesDown)
{
    PlacementGeometry geo = testGeo(1, 8, 1024);
    AllocationMatrix matrix(geo.banks);
    matrix.add(0, 0, 1024);
    matrix.add(0, 1, 1024); // 2x the bank
    PlacementPlan plan = materializePlan(matrix, geo, nullptr);
    std::uint32_t total = plan.wayMasks.at(0)[0].count() +
                          plan.wayMasks.at(1)[0].count();
    EXPECT_LE(total, 8u);
    EXPECT_EQ(plan.wayMasks.at(0)[0].count(),
              plan.wayMasks.at(1)[0].count());
}

TEST(MaterializePlan, MasksAreDisjoint)
{
    PlacementGeometry geo = testGeo(2, 8, 1024);
    AllocationMatrix matrix(geo.banks);
    matrix.add(0, 0, 512);
    matrix.add(0, 1, 256);
    matrix.add(0, 2, 256);
    PlacementPlan plan = materializePlan(matrix, geo, nullptr);
    WayMask m0 = plan.wayMasks.at(0)[0];
    WayMask m1 = plan.wayMasks.at(1)[0];
    WayMask m2 = plan.wayMasks.at(2)[0];
    EXPECT_TRUE((m0 & m1).empty());
    EXPECT_TRUE((m0 & m2).empty());
    EXPECT_TRUE((m1 & m2).empty());
}

TEST(MaterializePlan, SharedGroupGetsIdenticalMasks)
{
    PlacementGeometry geo = testGeo(2, 8, 1024);
    AllocationMatrix matrix(geo.banks);
    matrix.add(0, 0, 256);
    matrix.add(0, 1, 256);
    matrix.add(0, 2, 512); // private
    std::vector<std::vector<VcId>> groups = {{0, 1}};
    PlacementPlan plan = materializePlan(matrix, geo, &groups);
    EXPECT_EQ(plan.wayMasks.at(0)[0], plan.wayMasks.at(1)[0]);
    EXPECT_EQ(plan.wayMasks.at(0)[0].count(), 4u); // merged 512 lines
    EXPECT_TRUE(
        (plan.wayMasks.at(0)[0] & plan.wayMasks.at(2)[0]).empty());
}

TEST(MaterializePlan, DescriptorsMatchBankShares)
{
    PlacementGeometry geo = testGeo(4, 8, 1024);
    AllocationMatrix matrix(geo.banks);
    matrix.add(0, 0, 768);
    matrix.add(1, 0, 256);
    PlacementPlan plan = materializePlan(matrix, geo, nullptr);
    const PlacementDescriptor &desc = plan.descriptors.at(0);
    EXPECT_NEAR(desc.slotsOn(0), 96, 2);
    EXPECT_NEAR(desc.slotsOn(1), 32, 2);
    EXPECT_EQ(desc.slotsOn(2), 0u);
}

// ----------------------------------------------------------- Policies

EpochInputs
standardInputs(const PlacementGeometry &geo, const MeshTopology &mesh)
{
    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;
    // 2 VMs x (1 LC + 1 batch) on a 2x2 mesh.
    for (int vm = 0; vm < 2; vm++) {
        VcInfo lc = lcVc(vm * 2, vm, vm == 0 ? 0 : 3, 512);
        lc.curve = MissCurve({100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 0,
                              0, 0, 0, 0, 0});
        in.vcs.push_back(lc);

        VcInfo batch;
        batch.vc = vm * 2 + 1;
        batch.app = batch.vc;
        batch.vm = vm;
        batch.coreTile = vm == 0 ? 1 : 2;
        batch.latencyCritical = false;
        batch.curve = MissCurve({1000, 800, 600, 400, 300, 200, 150,
                                 100, 80, 60, 40, 30, 20, 10, 5, 2, 0});
        batch.name = "batch" + std::to_string(vm);
        in.vcs.push_back(batch);
    }
    return in;
}

TEST(Policies, FactoryCoversAllDesigns)
{
    for (LlcDesign d : {LlcDesign::Static, LlcDesign::Adaptive,
                        LlcDesign::VMPart, LlcDesign::Jigsaw,
                        LlcDesign::Jumanji, LlcDesign::JumanjiInsecure,
                        LlcDesign::JumanjiIdealBatch}) {
        auto policy = LlcPolicy::create(d);
        ASSERT_NE(policy, nullptr);
        EXPECT_STREQ(policy->name(), llcDesignName(d));
    }
}

TEST(Policies, StaticGivesLcFixedWaysEverywhere)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    StaticPolicy policy(2);
    PlacementPlan plan = policy.reconfigure(in);
    std::uint64_t perBank = 2 * geo.linesPerWay();
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        EXPECT_EQ(plan.matrix.get(static_cast<BankId>(b), 0), perBank);
        EXPECT_EQ(plan.matrix.get(static_cast<BankId>(b), 2), perBank);
    }
}

TEST(Policies, StaticClampsLcWaysToProtectBatch)
{
    // Two LC apps asking for 4 of 8 ways each would leave batch with
    // nothing; Static clamps so batch keeps >= a quarter of the bank.
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    StaticPolicy policy(4);
    PlacementPlan plan = policy.reconfigure(in);
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        std::uint64_t lc = plan.matrix.get(static_cast<BankId>(b), 0) +
                           plan.matrix.get(static_cast<BankId>(b), 2);
        EXPECT_LE(lc, 6 * geo.linesPerWay());
        EXPECT_GT(plan.matrix.bankTotal(static_cast<BankId>(b)) - lc,
                  0u);
    }
}

TEST(Policies, AdaptiveUsesControllerTargets)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    in.vcs[0].targetLines = 2048;
    AdaptivePolicy policy;
    PlacementPlan plan = policy.reconfigure(in);
    EXPECT_EQ(plan.matrix.vcTotal(0), 2048u);
}

TEST(Policies, JumanjiIsolatesVmsIntoBanks)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    JumanjiPolicy policy(true);
    PlacementPlan plan = policy.reconfigure(in);

    std::map<VcId, VmId> vmOf;
    for (const auto &vc : in.vcs) vmOf[vc.vc] = vc.vm;
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        auto vms = plan.matrix.vmsInBank(static_cast<BankId>(b), vmOf);
        EXPECT_LE(vms.size(), 1u) << "bank " << b << " shared by VMs";
    }
}

TEST(Policies, JumanjiAllocatesFullCapacity)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    JumanjiPolicy policy(true);
    PlacementPlan plan = policy.reconfigure(in);
    std::uint64_t total = 0;
    for (const auto &vc : in.vcs) total += plan.matrix.vcTotal(vc.vc);
    // All VM totals are bank multiples summing to the LLC.
    EXPECT_EQ(total, geo.totalLines());
}

TEST(Policies, JumanjiHonorsLatCritTargets)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    in.vcs[0].targetLines = 700;
    JumanjiPolicy policy(true);
    PlacementPlan plan = policy.reconfigure(in);
    EXPECT_GE(plan.matrix.vcTotal(0), 700u);
}

TEST(Policies, InsecureMaySharesBanks)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    // Make both batch apps want everything: with only 4 banks their
    // placements overlap under the insecure variant.
    JumanjiPolicy policy(false);
    PlacementPlan plan = policy.reconfigure(in);
    std::uint64_t total = 0;
    for (const auto &vc : in.vcs) total += plan.matrix.vcTotal(vc.vc);
    EXPECT_EQ(total, geo.totalLines());
}

TEST(Policies, EveryVcGetsADescriptor)
{
    PlacementGeometry geo = testGeo();
    MeshTopology mesh(quadMesh());
    EpochInputs in = standardInputs(geo, mesh);
    for (LlcDesign d : {LlcDesign::Static, LlcDesign::Adaptive,
                        LlcDesign::VMPart, LlcDesign::Jigsaw,
                        LlcDesign::Jumanji, LlcDesign::JumanjiInsecure,
                        LlcDesign::JumanjiIdealBatch}) {
        auto policy = LlcPolicy::create(d);
        PlacementPlan plan = policy->reconfigure(in);
        for (const auto &vc : in.vcs) {
            EXPECT_TRUE(plan.descriptors.count(vc.vc))
                << llcDesignName(d) << " lost VC " << vc.vc;
            // And at least one fillable way somewhere.
            std::uint32_t ways = 0;
            auto it = plan.wayMasks.find(vc.vc);
            ASSERT_NE(it, plan.wayMasks.end());
            for (const auto &m : it->second) ways += m.count();
            EXPECT_GT(ways, 0u)
                << llcDesignName(d) << " VC " << vc.vc << " unfillable";
        }
    }
}

TEST(Policies, IdealBatchWantsSecondLlc)
{
    EXPECT_TRUE(JumanjiIdealBatchPolicy().wantsIdealBatchLlc());
    EXPECT_FALSE(JumanjiPolicy(true).wantsIdealBatchLlc());
}

/** A machine and VM layout that the plan-digest tests drive. */
struct PlanShape
{
    std::uint32_t cols, rows, ways;
    std::uint64_t linesPerBank;
    std::uint32_t vms, lcPerVm, batchPerVm;
    /** Each LC target is drawn below this share of the LLC. */
    double lcTargetFrac;
};

const PlanShape kPlanShapes[] = {
    {2, 2, 8, 1024, 2, 1, 1, 0.25},    // 2x2 mesh
    {5, 4, 16, 2048, 4, 1, 4, 0.125},  // the paper's 4 VMs x 5 apps
    {4, 4, 16, 1024, 3, 2, 2, 0.1},    // two LC apps per VM
    {4, 3, 8, 2048, 3, 0, 4, 0.0},     // no LC apps
    {5, 4, 16, 1024, 10, 1, 1, 0.25},  // 10 VMs: LC overcommits the LLC
};

PlacementGeometry
shapeGeo(const PlanShape &shape)
{
    return testGeo(shape.cols * shape.rows, shape.ways,
                   shape.linesPerBank);
}

MeshParams
shapeMesh(const PlanShape &shape)
{
    MeshParams p;
    p.cols = shape.cols;
    p.rows = shape.rows;
    return p;
}

/**
 * One epoch of inputs: app k sits on tile k (mod tiles), VMs list
 * their LC apps first, and every curve and LC target is drawn anew.
 * VM ids descend along the list, so the VMs whose LC data is placed
 * last (and may find no bank left) are the first ones planned.
 */
EpochInputs
randomEpoch(Rng &rng, const PlanShape &shape, const PlacementGeometry &geo,
            const MeshTopology &mesh)
{
    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;
    std::uint32_t perVm = shape.lcPerVm + shape.batchPerVm;
    for (std::uint32_t k = 0; k < shape.vms * perVm; k++) {
        VcInfo vc;
        vc.vc = static_cast<VcId>(k);
        vc.app = static_cast<AppId>(k);
        vc.vm = static_cast<VmId>(shape.vms - 1 - k / perVm);
        vc.coreTile = k % mesh.numTiles();
        vc.latencyCritical = k % perVm < shape.lcPerVm;
        std::vector<double> pts(17);
        double v = 1000.0 + static_cast<double>(rng.below(100000));
        for (auto &p : pts) {
            p = v;
            v *= 0.5 + 0.5 * rng.uniform();
        }
        vc.curve = MissCurve(std::move(pts)).convexHull();
        if (vc.latencyCritical)
            vc.targetLines = rng.below(static_cast<std::uint64_t>(
                shape.lcTargetFrac * static_cast<double>(geo.totalLines())));
        vc.name = "app" + std::to_string(k);
        in.vcs.push_back(std::move(vc));
    }
    return in;
}

/** Folds a plan's matrix, descriptors and way masks. */
void
foldPlan(Fingerprint &fp, const PlacementPlan &plan)
{
    for (std::uint32_t b = 0; b < plan.matrix.numBanks(); b++) {
        fp.addU64(b);
        for (const auto &[vc, lines] :
             plan.matrix.bank(static_cast<BankId>(b))) {
            fp.addI64(vc);
            fp.addU64(lines);
        }
    }
    for (const auto &[vc, desc] : plan.descriptors) {
        fp.addI64(vc);
        for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
            fp.addI64(desc.slot(s));
    }
    for (const auto &[vc, masks] : plan.wayMasks) {
        fp.addI64(vc);
        for (WayMask m : masks) fp.addU64(m.bits());
    }
}

std::uint64_t
planDigest(const PlacementPlan &plan)
{
    Fingerprint fp;
    foldPlan(fp, plan);
    return fp.value();
}

TEST(Policies, PlansMatchPinnedDigests)
{
    // One digest per design over every shape's 40 epochs. One policy
    // instance serves each (design, shape), so state carried across
    // epochs (Jumanji's sticky banks) is pinned too. A change that
    // moves placements on purpose re-pins and says so.
    const std::pair<LlcDesign, std::uint64_t> kPins[] = {
        {LlcDesign::Static, 0xe1fb2ec614aeaa25ull},
        {LlcDesign::Adaptive, 0xf957e10f3bb867d1ull},
        {LlcDesign::VMPart, 0x5df89f8fbcaba96aull},
        {LlcDesign::Jigsaw, 0x8b10d5a99298d92cull},
        {LlcDesign::Jumanji, 0xa7d3de3e98cea68bull},
        {LlcDesign::JumanjiInsecure, 0xf2025277aa111e7dull},
        {LlcDesign::JumanjiIdealBatch, 0x4276b0834379121full},
    };
    setQuiet(true); // over-committed shapes warn on every epoch
    for (const auto &[design, pin] : kPins) {
        Fingerprint fp;
        std::uint64_t seed = 1;
        for (const PlanShape &shape : kPlanShapes) {
            PlacementGeometry geo = shapeGeo(shape);
            MeshTopology mesh(shapeMesh(shape));
            Rng rng(seed++);
            auto policy = LlcPolicy::create(design);
            for (int epoch = 0; epoch < 40; epoch++)
                foldPlan(fp, policy->reconfigure(
                                 randomEpoch(rng, shape, geo, mesh)));
        }
        EXPECT_EQ(fp.value(), pin)
            << llcDesignName(design) << " digest 0x" << std::hex
            << fp.value();
    }
    setQuiet(false);
}

TEST(Policies, IdealBatchEqualsJumanjiWithoutLcApps)
{
    // With no LC data there is nothing for Ideal Batch's private LLC
    // copy to avoid: it must run exactly Jumanji's placement steps.
    PlanShape shape = kPlanShapes[3]; // the shape without LC apps
    ASSERT_EQ(shape.lcPerVm, 0u);
    PlacementGeometry geo = shapeGeo(shape);
    MeshTopology mesh(shapeMesh(shape));
    Rng rng(7);
    setQuiet(true);
    for (int trial = 0; trial < 100; trial++) {
        shape.vms = 1 + static_cast<std::uint32_t>(rng.below(4));
        shape.batchPerVm = 1 + static_cast<std::uint32_t>(rng.below(3));
        EpochInputs in = randomEpoch(rng, shape, geo, mesh);
        EXPECT_EQ(planDigest(JumanjiPolicy(true).reconfigure(in)),
                  planDigest(JumanjiIdealBatchPolicy().reconfigure(in)))
            << "trial " << trial;
    }
    setQuiet(false);
}

TEST(Policies, OnlyStaticPlansFromTheRoster)
{
    for (LlcDesign design :
         {LlcDesign::Static, LlcDesign::Adaptive, LlcDesign::VMPart,
          LlcDesign::Jigsaw, LlcDesign::Jumanji,
          LlcDesign::JumanjiInsecure, LlcDesign::JumanjiIdealBatch})
        EXPECT_EQ(LlcPolicy::create(design)->plansFromRosterOnly(),
                  design == LlcDesign::Static)
            << llcDesignName(design);

    // Fresh curves and LC targets every epoch leave Static's plan as
    // it was: it depends on the roster and the geometry alone.
    setQuiet(true);
    Rng rng(11);
    for (const PlanShape &shape : kPlanShapes) {
        PlacementGeometry geo = shapeGeo(shape);
        MeshTopology mesh(shapeMesh(shape));
        StaticPolicy policy;
        std::uint64_t first =
            planDigest(policy.reconfigure(randomEpoch(rng, shape, geo, mesh)));
        for (int epoch = 1; epoch < 10; epoch++)
            EXPECT_EQ(planDigest(policy.reconfigure(
                          randomEpoch(rng, shape, geo, mesh))),
                      first);
    }
    setQuiet(false);
}

// ------------------------------------------------------ RuntimeDriver

/** Static, planned from scratch every epoch: the reference path. */
class ReplanningStaticPolicy : public StaticPolicy
{
  public:
    bool plansFromRosterOnly() const override { return false; }
};

constexpr Tick kRigEpoch = 1000;

LlcParams
rigLlc()
{
    LlcParams llc;
    llc.banks = 4;
    llc.setsPerBank = 32;
    llc.ways = 8;
    llc.repl = ReplKind::LRU;
    return llc;
}

UmonParams
rigUmon()
{
    UmonParams p;
    p.sets = 8;
    p.ways = 8;
    p.modelledLines = 4 * 32 * 8;
    return p;
}

/** One LLC with its runtime, stats and trace. */
struct RuntimeRig
{
    MemPath path;
    RuntimeDriver runtime;
    StatRegistry reg;
    Tracer tracer;

    explicit RuntimeRig(std::unique_ptr<LlcPolicy> policy)
        : path(rigLlc(), quadMesh(), MemoryParams{}, rigUmon(), 1),
          runtime(std::move(policy), &path, nullptr,
                  testGeo(4, 8, 32 * 8), kRigEpoch)
    {
    }

    std::string
    trace() const
    {
        std::ostringstream os;
        tracer.writeTo(os);
        return os.str();
    }
};

TEST(RuntimeDriver, RosterOnlyFastPathMatchesReplanningEveryEpoch)
{
    // The same calls drive two runtimes: Static's fast path, which
    // plans once and then re-installs, and a Static that re-plans,
    // re-materializes and re-stabilizes every epoch. Accesses, LC
    // completions (moving the controller targets Static ignores), a
    // thread migration and a late app must leave both identical.
    RuntimeRig fast(std::make_unique<StaticPolicy>());
    RuntimeRig slow(std::make_unique<ReplanningStaticPolicy>());
    RuntimeRig *rigs[] = {&fast, &slow};

    std::vector<RuntimeAppInfo> apps;
    auto addApp = [&](VcId vc, VmId vm, std::uint32_t tile, bool lc) {
        RuntimeAppInfo info;
        info.vc = vc;
        info.app = static_cast<AppId>(vc);
        info.vm = vm;
        info.coreTile = tile;
        info.latencyCritical = lc;
        info.name = "app" + std::to_string(vc);
        for (RuntimeRig *rig : rigs)
            rig->runtime.registerApp(info, ControllerParams{}, 1000.0);
        apps.push_back(info);
    };
    addApp(0, 0, 0, true);
    addApp(1, 0, 1, false);
    addApp(2, 1, 2, true);
    addApp(3, 1, 3, false);
    addApp(4, 1, 3, false);
    for (RuntimeRig *rig : rigs) {
        rig->path.registerStats(rig->reg, "");
        rig->runtime.registerStats(rig->reg, "runtime.");
        rig->runtime.setTracer(&rig->tracer, rig->tracer.beginRun("rig"));
    }

    auto expectSame = [&](int epoch) {
        for (const RuntimeAppInfo &app : apps) {
            ASSERT_TRUE(fast.path.vtb().descriptor(app.vc) ==
                        slow.path.vtb().descriptor(app.vc))
                << "epoch " << epoch << " vc " << app.vc;
            for (BankId b = 0; b < 4; b++)
                ASSERT_TRUE(fast.path.bank(b).array().wayMaskFor(app.vc) ==
                            slow.path.bank(b).array().wayMaskFor(app.vc))
                    << "epoch " << epoch << " vc " << app.vc << " bank "
                    << b;
        }
        std::vector<StatValue> a = fast.reg.snapshot();
        std::vector<StatValue> b = slow.reg.snapshot();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); i++) {
            ASSERT_EQ(a[i].name, b[i].name);
            ASSERT_EQ(a[i].value, b[i].value)
                << "epoch " << epoch << " " << a[i].name;
        }
        ASSERT_TRUE(fast.trace() == slow.trace()) << "epoch " << epoch;
    };

    Rng rng(5);
    Tick now = 0;
    for (int epoch = 0; epoch < 60; epoch++) {
        if (epoch == 20) {
            for (RuntimeRig *rig : rigs) rig->runtime.migrateApp(1, 2);
            apps[1].coreTile = 2;
        }
        if (epoch == 35) addApp(5, 0, 1, false); // forces a re-plan
        for (RuntimeRig *rig : rigs) rig->runtime.reconfigureNow(now);
        ASSERT_NO_FATAL_FAILURE(expectSame(epoch));

        for (int i = 0; i < 300; i++) {
            const RuntimeAppInfo &app = apps[rng.below(apps.size())];
            AccessOwner owner;
            owner.app = app.app;
            owner.vc = app.vc;
            owner.vm = app.vm;
            LineAddr line = (static_cast<LineAddr>(app.vc) << 16) +
                            rng.below(600);
            for (RuntimeRig *rig : rigs)
                rig->path.access(now, app.coreTile, owner, line);
            now += 3;
        }
        for (VcId lc : {0, 2})
            for (int r = 0; r < 25; r++) {
                double latency = 500.0 + static_cast<double>(rng.below(1500));
                for (RuntimeRig *rig : rigs)
                    rig->runtime.requestCompleted(lc, latency, now);
            }
        now += kRigEpoch;
    }

    // One install per VC per epoch, as on the full path.
    EXPECT_EQ(fast.reg.value("dnuca.vtb.installs"), 35 * 5 + 25 * 6);
    EXPECT_EQ(fast.reg.value("runtime.reconfigurations"), 60);
    EXPECT_GT(fast.reg.value("runtime.vc00.allocLines"), 0);
    EXPECT_GT(fast.reg.value("llc.misses"), 0);
}

} // namespace
} // namespace jumanji
