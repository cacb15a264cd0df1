/**
 * @file
 * Property-based tests: invariants checked over randomized inputs
 * via parameterized sweeps (TEST_P). These complement the
 * example-based unit tests with coverage of the input space.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/cache/cache_array.hh"
#include "src/core/lookahead.hh"
#include "src/core/placement_types.hh"
#include "src/core/policies.hh"
#include "src/dnuca/miss_curve.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

// ------------------------------------------------ random generators

MissCurve
randomCurve(Rng &rng, std::size_t buckets = 16)
{
    std::vector<double> pts(buckets + 1);
    double v = 1000.0 + static_cast<double>(rng.below(100000));
    for (auto &p : pts) {
        p = v;
        v *= 0.5 + 0.5 * rng.uniform();
    }
    return MissCurve(std::move(pts));
}

PlacementGeometry
randomGeo(Rng &rng)
{
    PlacementGeometry geo;
    geo.banks = 2 + static_cast<std::uint32_t>(rng.below(19));
    geo.waysPerBank = 4u << rng.below(3); // 4, 8, 16
    geo.linesPerBank = (64u << rng.below(4)) * geo.waysPerBank / 4;
    geo.linesPerBucket = std::max<std::uint64_t>(1, geo.totalLines() / 16);
    return geo;
}

// ------------------------------------------------------- MissCurve

class CurveProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CurveProperty, HullIsConvexMonotoneLowerBound)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; trial++) {
        MissCurve curve = randomCurve(rng, 8 + rng.below(60));
        MissCurve hull = curve.convexHull();

        ASSERT_EQ(hull.points().size(), curve.points().size());
        for (std::size_t k = 0; k < hull.points().size(); k++) {
            EXPECT_LE(hull.at(k), curve.at(k) + 1e-6);
            if (k > 0) {
                EXPECT_LE(hull.at(k), hull.at(k - 1) + 1e-9);
            }
        }
        for (std::size_t k = 1; k + 1 < hull.points().size(); k++) {
            double dLeft = hull.at(k - 1) - hull.at(k);
            double dRight = hull.at(k) - hull.at(k + 1);
            EXPECT_GE(dLeft + 1e-6, dRight);
        }
        // Idempotent.
        MissCurve hull2 = hull.convexHull();
        for (std::size_t k = 0; k < hull.points().size(); k++)
            EXPECT_NEAR(hull2.at(k), hull.at(k), 1e-6);
    }
}

TEST_P(CurveProperty, CombineOptimalDominatesAnyEvenSplit)
{
    Rng rng(GetParam() ^ 0xc0ffee);
    for (int trial = 0; trial < 10; trial++) {
        MissCurve a = randomCurve(rng);
        MissCurve b = randomCurve(rng);
        MissCurve combined = MissCurve::combineOptimal({a, b});
        // The optimal division is at least as good as any even split
        // of hulled curves (combine works on hulls).
        MissCurve ha = a.convexHull(), hb = b.convexHull();
        for (std::size_t k = 0; k <= combined.buckets(); k += 2) {
            double even = ha.at(k / 2) + hb.at(k / 2);
            EXPECT_LE(combined.at(k), even + 1e-6)
                << "k=" << k << " trial=" << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------- Lookahead

class LookaheadProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LookaheadProperty, ConservesBudgetAndHonorsFloors)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 10; trial++) {
        PlacementGeometry geo = randomGeo(rng);
        std::size_t n = 1 + rng.below(12);
        std::vector<LookaheadClaim> claims(n);
        std::uint64_t floorSum = 0;
        for (auto &claim : claims) {
            claim.curve = randomCurve(rng);
            if (rng.bernoulli(0.4)) {
                claim.floorLines = rng.below(geo.totalLines() / (2 * n));
                floorSum += claim.floorLines;
            }
        }
        std::uint64_t budget =
            floorSum + rng.below(geo.totalLines() - floorSum + 1);

        LookaheadResult r = lookahead(claims, budget, geo);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < n; i++) {
            EXPECT_GE(r.lines[i], claims[i].floorLines);
            total += r.lines[i];
        }
        EXPECT_LE(total, budget + geo.linesPerWay());
        if (budget >= geo.linesPerWay()) {
            EXPECT_GT(total, 0u);
        }
    }
}

TEST_P(LookaheadProperty, JumanjiVariantBankGranular)
{
    Rng rng(GetParam() ^ 0xbeef);
    for (int trial = 0; trial < 10; trial++) {
        PlacementGeometry geo = randomGeo(rng);
        std::size_t n = 1 + rng.below(6);
        if (n > geo.banks) n = geo.banks;
        std::vector<LookaheadClaim> claims(n);
        for (auto &claim : claims) {
            claim.curve = randomCurve(rng);
            claim.floorLines = rng.below(geo.linesPerBank);
        }
        LookaheadResult r =
            jumanjiLookahead(claims, geo.totalLines(), geo);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < n; i++) {
            EXPECT_EQ(r.lines[i] % geo.linesPerBank, 0u);
            EXPECT_GE(r.lines[i], geo.linesPerBank); // every VM >= 1
            EXPECT_GE(r.lines[i], claims[i].floorLines);
            total += r.lines[i];
        }
        EXPECT_EQ(total, geo.totalLines());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookaheadProperty,
                         ::testing::Values(1, 4, 9, 16, 25, 36));

// ------------------------------------------------- materializePlan

class PlanProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlanProperty, MasksDisjointAndDescriptorsConsistent)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 10; trial++) {
        PlacementGeometry geo = randomGeo(rng);
        AllocationMatrix matrix(geo.banks);
        std::size_t vcs = 1 + rng.below(10);
        for (VcId vc = 0; vc < static_cast<VcId>(vcs); vc++) {
            // Random allocations over random banks.
            std::uint32_t spread = 1 + static_cast<std::uint32_t>(
                                           rng.below(geo.banks));
            for (std::uint32_t k = 0; k < spread; k++) {
                auto bank = static_cast<BankId>(rng.below(geo.banks));
                matrix.add(bank, vc,
                           rng.below(geo.linesPerBank / spread) + 1);
            }
        }

        PlacementPlan plan = materializePlan(matrix, geo, nullptr);

        // Masks disjoint per bank, and total within associativity.
        for (std::uint32_t b = 0; b < geo.banks; b++) {
            std::uint64_t seen = 0;
            std::uint32_t total = 0;
            for (const auto &[vc, masks] : plan.wayMasks) {
                std::uint64_t bits = masks[b].bits();
                EXPECT_EQ(seen & bits, 0u)
                    << "overlapping masks in bank " << b;
                seen |= bits;
                total += masks[b].count();
            }
            EXPECT_LE(total, geo.waysPerBank);
        }

        // Descriptors only point at banks where the VC has lines.
        for (const auto &[vc, desc] : plan.descriptors) {
            for (BankId b : desc.ownedBanks())
                EXPECT_GT(matrix.get(b, vc), 0u)
                    << "descriptor points at empty bank";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperty,
                         ::testing::Values(2, 3, 5, 7, 11, 13));

// ----------------------------------------------------- Policies

class PolicyProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    EpochInputs
    randomInputs(Rng &rng, const PlacementGeometry &geo,
                 const MeshTopology &mesh)
    {
        EpochInputs in;
        in.geo = geo;
        in.mesh = &mesh;
        std::uint32_t vms = 1 + static_cast<std::uint32_t>(rng.below(4));
        std::uint32_t apps = vms + static_cast<std::uint32_t>(
                                       rng.below(mesh.numTiles() - vms));
        for (std::uint32_t i = 0; i < apps; i++) {
            VcInfo vc;
            vc.vc = static_cast<VcId>(i);
            vc.app = static_cast<AppId>(i);
            vc.vm = static_cast<VmId>(i % vms);
            vc.coreTile = static_cast<std::uint32_t>(
                rng.below(mesh.numTiles()));
            vc.latencyCritical = i < vms && rng.bernoulli(0.7);
            vc.curve = randomCurve(rng);
            if (vc.latencyCritical)
                vc.targetLines = rng.below(geo.totalLines() / 4);
            vc.name = "app" + std::to_string(i);
            in.vcs.push_back(std::move(vc));
        }
        return in;
    }
};

TEST_P(PolicyProperty, JumanjiNeverSharesBanksAcrossVms)
{
    Rng rng(GetParam());
    MeshParams mp;
    mp.cols = 5;
    mp.rows = 4;
    MeshTopology mesh(mp);
    PlacementGeometry geo;
    geo.banks = 20;
    geo.waysPerBank = 16;
    geo.linesPerBank = 1024;
    geo.linesPerBucket = geo.totalLines() / 16;

    for (int trial = 0; trial < 8; trial++) {
        EpochInputs in = randomInputs(rng, geo, mesh);
        JumanjiPolicy policy(true);
        PlacementPlan plan = policy.reconfigure(in);

        std::map<VcId, VmId> vmOf;
        for (const auto &vc : in.vcs) vmOf[vc.vc] = vc.vm;
        for (std::uint32_t b = 0; b < geo.banks; b++) {
            auto vms = plan.matrix.vmsInBank(static_cast<BankId>(b),
                                             vmOf);
            EXPECT_LE(vms.size(), 1u)
                << "trial " << trial << " bank " << b;
        }
    }
}

TEST_P(PolicyProperty, AllPoliciesCoverEveryVcAndConserveCapacity)
{
    Rng rng(GetParam() ^ 0xfeedface);
    MeshParams mp;
    mp.cols = 4;
    mp.rows = 3;
    MeshTopology mesh(mp);
    PlacementGeometry geo;
    geo.banks = 12;
    geo.waysPerBank = 16;
    geo.linesPerBank = 2048;
    geo.linesPerBucket = geo.totalLines() / 16;

    for (LlcDesign d : {LlcDesign::Static, LlcDesign::Adaptive,
                        LlcDesign::VMPart, LlcDesign::Jigsaw,
                        LlcDesign::Jumanji, LlcDesign::JumanjiInsecure}) {
        EpochInputs in = randomInputs(rng, geo, mesh);
        auto policy = LlcPolicy::create(d);
        PlacementPlan plan = policy->reconfigure(in);

        std::uint64_t total = 0;
        for (const auto &vc : in.vcs) {
            EXPECT_TRUE(plan.descriptors.count(vc.vc))
                << llcDesignName(d);
            total += plan.matrix.vcTotal(vc.vc);
        }
        EXPECT_LE(total, geo.totalLines()) << llcDesignName(d);
        // Physical banks never oversubscribed.
        for (std::uint32_t b = 0; b < geo.banks; b++)
            EXPECT_LE(plan.matrix.bankTotal(static_cast<BankId>(b)),
                      geo.linesPerBank)
                << llcDesignName(d) << " bank " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------- descriptor churn

class DescriptorProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DescriptorProperty, StabilizationNeverIncreasesMoves)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; trial++) {
        std::uint32_t banks = 2 + static_cast<std::uint32_t>(
                                      rng.below(18));
        auto randomShares = [&] {
            std::vector<std::pair<BankId, double>> shares;
            for (std::uint32_t b = 0; b < banks; b++)
                if (rng.bernoulli(0.7))
                    shares.emplace_back(static_cast<BankId>(b),
                                        0.1 + rng.uniform());
            if (shares.empty()) shares.emplace_back(0, 1.0);
            return shares;
        };

        PlacementDescriptor prev, next;
        prev.fillProportional(randomShares());
        next.fillProportional(randomShares());
        PlacementDescriptor stable = next.stabilizedAgainst(prev);

        auto moves = [&](const PlacementDescriptor &d) {
            std::uint32_t m = 0;
            for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots;
                 s++)
                if (d.slot(s) != prev.slot(s)) m++;
            return m;
        };
        EXPECT_LE(moves(stable), moves(next));
        // Quotas preserved exactly.
        for (std::uint32_t b = 0; b < banks; b++)
            EXPECT_EQ(stable.slotsOn(static_cast<BankId>(b)),
                      next.slotsOn(static_cast<BankId>(b)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorProperty,
                         ::testing::Values(10, 20, 30, 40));

// ----------------------------------------------------- cache array

class ArrayProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ArrayProperty, OccupancyAccountingAlwaysConsistent)
{
    Rng rng(GetParam());
    CacheArray array(16, 8, ReplKind::DRRIP, 3);
    array.setWayMask(0, WayMask::range(0, 4));
    array.setWayMask(1, WayMask::range(4, 2));
    array.setWayMask(2, WayMask::range(6, 2));

    std::uint64_t ops = 0;
    for (int i = 0; i < 5000; i++) {
        auto vc = static_cast<VcId>(rng.below(3));
        AccessOwner owner;
        owner.vc = vc;
        owner.app = vc;
        owner.vm = vc % 2;
        array.access(rng.below(1000), owner);
        ops++;
        if (i % 500 == 0) array.invalidateVc(rng.below(3));

        std::uint64_t sum = array.occupancyOfVc(0) +
                            array.occupancyOfVc(1) +
                            array.occupancyOfVc(2);
        ASSERT_EQ(sum, array.validLines()) << "after op " << ops;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayProperty,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ Umon

class UmonProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UmonProperty, CurveMonotoneAndBounded)
{
    Rng rng(GetParam());
    UmonParams params;
    params.sets = 32;
    params.ways = 16;
    Umon umon(params, 512 * (1 + rng.below(8)));

    for (int i = 0; i < 20000; i++)
        umon.access(rng.below(1 + rng.below(5000)));

    MissCurve curve = umon.missCurve();
    for (std::size_t k = 1; k <= curve.buckets(); k++)
        EXPECT_LE(curve.at(k), curve.at(k - 1) + 1e-9);
    // Misses at zero capacity equal total (scaled) accesses.
    EXPECT_GT(curve.at(0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UmonProperty,
                         ::testing::Values(3, 6, 9, 12));

} // namespace
} // namespace jumanji
