/**
 * @file
 * Unit tests for the D-NUCA substrate: miss curves, UMONs, placement
 * descriptors, and the VTB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <vector>

#include "src/dnuca/miss_curve.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/sim/statreg.hh"

namespace jumanji {
namespace {

// ---------------------------------------------------------- MissCurve

TEST(MissCurve, EnforcesMonotonicity)
{
    MissCurve curve({100, 120, 50, 60});
    EXPECT_DOUBLE_EQ(curve.at(0), 100);
    EXPECT_DOUBLE_EQ(curve.at(1), 100); // clamped down
    EXPECT_DOUBLE_EQ(curve.at(2), 50);
    EXPECT_DOUBLE_EQ(curve.at(3), 50);
}

TEST(MissCurve, AtClampsOutOfRange)
{
    MissCurve curve({10, 5, 1});
    EXPECT_DOUBLE_EQ(curve.at(100), 1);
    EXPECT_DOUBLE_EQ(MissCurve().at(3), 0.0);
}

TEST(MissCurve, Interpolation)
{
    MissCurve curve({100, 50, 0});
    EXPECT_DOUBLE_EQ(curve.interpolate(0.5), 75);
    EXPECT_DOUBLE_EQ(curve.interpolate(1.5), 25);
    EXPECT_DOUBLE_EQ(curve.interpolate(-1), 100);
    EXPECT_DOUBLE_EQ(curve.interpolate(9), 0);
}

TEST(MissCurve, ConvexHullRemovesCliff)
{
    // A cliff at 4: flat then a drop. The hull is the straight line.
    MissCurve curve({100, 100, 100, 100, 0});
    MissCurve hull = curve.convexHull();
    EXPECT_DOUBLE_EQ(hull.at(0), 100);
    EXPECT_DOUBLE_EQ(hull.at(2), 50);
    EXPECT_DOUBLE_EQ(hull.at(4), 0);
}

TEST(MissCurve, ConvexHullBelowOriginal)
{
    Rng rng(5);
    std::vector<double> pts(33);
    double v = 10000;
    for (auto &p : pts) {
        p = v;
        v -= static_cast<double>(rng.below(500));
        if (v < 0) v = 0;
    }
    MissCurve curve(pts);
    MissCurve hull = curve.convexHull();
    for (std::size_t k = 0; k <= curve.buckets(); k++) {
        EXPECT_LE(hull.at(k), curve.at(k) + 1e-9);
    }
    // Endpoints coincide.
    EXPECT_DOUBLE_EQ(hull.at(0), curve.at(0));
    EXPECT_DOUBLE_EQ(hull.at(curve.buckets()), curve.at(curve.buckets()));
}

TEST(MissCurve, ConvexHullIsConvex)
{
    MissCurve curve({100, 90, 85, 40, 39, 5, 4, 0});
    MissCurve hull = curve.convexHull();
    for (std::size_t k = 1; k + 1 < hull.points().size(); k++) {
        double left = hull.at(k - 1) - hull.at(k);
        double right = hull.at(k) - hull.at(k + 1);
        EXPECT_GE(left, right - 1e-9) << "non-convex at " << k;
    }
}

TEST(MissCurve, Addition)
{
    MissCurve a({10, 5, 0});
    MissCurve b({4, 4, 4});
    MissCurve sum = a + b;
    EXPECT_DOUBLE_EQ(sum.at(0), 14);
    EXPECT_DOUBLE_EQ(sum.at(2), 4);
}

TEST(MissCurve, CombineOptimalPicksBestSplit)
{
    // A saves 10/bucket for 2 buckets; B saves 1/bucket for 2.
    MissCurve a({20, 10, 0});
    MissCurve b({2, 1, 0});
    MissCurve combined = MissCurve::combineOptimal({a, b});
    EXPECT_DOUBLE_EQ(combined.at(0), 22);
    // First two buckets go to A.
    EXPECT_DOUBLE_EQ(combined.at(1), 12);
    EXPECT_DOUBLE_EQ(combined.at(2), 2);
    // Then B's buckets.
    EXPECT_DOUBLE_EQ(combined.at(4), 0);
    EXPECT_EQ(combined.buckets(), 4u);
}

TEST(MissCurve, CombineOptimalOfNothing)
{
    EXPECT_TRUE(MissCurve::combineOptimal({}).empty());
}

TEST(MissCurve, FlatAndScaled)
{
    MissCurve flat = MissCurve::flat(4, 7.0);
    EXPECT_DOUBLE_EQ(flat.at(0), 7.0);
    EXPECT_DOUBLE_EQ(flat.at(4), 7.0);
    MissCurve scaled = flat.scaled(2.0);
    EXPECT_DOUBLE_EQ(scaled.at(2), 14.0);
}

// --------------------------------------------------------------- Umon

Umon
smallUmon()
{
    UmonParams p;
    p.sets = 16;
    p.ways = 16;
    return Umon(p, 16 * 16); // sample rate 1: monitor everything
}

TEST(Umon, CountsAccesses)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 100; l++) umon.access(l);
    EXPECT_EQ(umon.accesses(), 100u);
}

TEST(Umon, ColdMissesAtFullAllocation)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 50; l++) umon.access(l);
    MissCurve curve = umon.missCurve();
    // Every access was a cold miss: curve is flat at ~50 everywhere.
    EXPECT_NEAR(curve.at(umon.params().ways), 50, 1e-9);
}

TEST(Umon, HotLineHitsNearTop)
{
    Umon umon(smallUmon());
    // Touch one line repeatedly: hits at MRU position; misses ~1.
    for (int i = 0; i < 100; i++) umon.access(7);
    MissCurve curve = umon.missCurve();
    EXPECT_NEAR(curve.at(1), 1, 1e-9);  // one cold miss with 1 bucket
    EXPECT_NEAR(curve.at(0), 100, 1e-9); // all miss with nothing
}

TEST(Umon, WorkingSetKneeVisible)
{
    // Working set of ~64 lines cycled repeatedly: with enough
    // capacity, only cold misses; with none, all misses.
    Umon umon(smallUmon());
    for (int round = 0; round < 20; round++)
        for (LineAddr l = 0; l < 64; l++) umon.access(l);
    MissCurve curve = umon.missCurve();
    double atZero = curve.at(0);
    double atFull = curve.at(umon.params().ways);
    EXPECT_NEAR(atZero, 20 * 64, 1e-6);
    // Nearly everything hits with full capacity (cold misses only).
    EXPECT_LT(atFull, 0.15 * atZero);
}

TEST(Umon, DecayScalesCounters)
{
    Umon umon(smallUmon());
    for (int i = 0; i < 100; i++) umon.access(3);
    double before = umon.missCurve().at(0);
    umon.decay(0.5);
    double after = umon.missCurve().at(0);
    EXPECT_NEAR(after, before / 2, 1.0);
}

TEST(Umon, ClearResetsCounters)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 30; l++) umon.access(l);
    umon.clear();
    EXPECT_EQ(umon.accesses(), 0u);
    EXPECT_NEAR(umon.missCurve().at(0), 0, 1e-9);
}

TEST(Umon, SamplingScalesBack)
{
    UmonParams p;
    p.sets = 16;
    p.ways = 16;
    Umon umon(p, 16 * 16 * 8); // sample 1/8 of lines
    Rng rng(3);
    // Uniform traffic over many lines: scaled miss estimate should
    // approximate the true access count at allocation 0.
    const int n = 20000;
    for (int i = 0; i < n; i++)
        umon.access(rng.below(100000));
    double estimated = umon.missCurve().at(0);
    EXPECT_NEAR(estimated, n, 0.25 * n);
}

/**
 * Naive UMON: one std::list true-LRU stack per set, chosen by the same
 * umon_detail::mix sampling and set hash, with hits counted by recency
 * position and each miss-curve point summed on its own.
 */
class NaiveUmon
{
  public:
    NaiveUmon(const UmonParams &p, std::uint64_t modelledLines)
        : p_(p), stacks_(p.sets), hits_(p.ways, 0)
    {
        const double tags = static_cast<double>(p.sets) * p.ways;
        rate_ = std::max(1.0, static_cast<double>(modelledLines) / tags);
    }

    void
    access(LineAddr line)
    {
        accesses_++;
        const auto every = static_cast<std::uint64_t>(rate_);
        if (umon_detail::mix(line ^ umon_detail::kSampleSalt) % every != 0)
            return;
        sampled_++;
        std::list<LineAddr> &stack = stacks_[umon_detail::mix(line) % p_.sets];
        std::size_t pos = 0;
        for (auto it = stack.begin(); it != stack.end(); ++it, ++pos) {
            if (*it == line) {
                hits_[pos]++;
                stack.erase(it);
                stack.push_front(line);
                return;
            }
        }
        misses_++;
        stack.push_front(line);
        if (stack.size() > p_.ways) stack.pop_back();
    }

    /** misses(k) = misses + hits at positions >= k, times the rate. */
    std::vector<double>
    curve() const
    {
        std::vector<double> pts;
        for (std::size_t k = 0; k <= p_.ways; k++) {
            std::uint64_t misses = misses_;
            for (std::size_t pos = k; pos < p_.ways; pos++)
                misses += hits_[pos];
            pts.push_back(static_cast<double>(misses) * rate_);
        }
        return MissCurve(pts).points();
    }

    void
    decay(double factor)
    {
        auto scale = [factor](std::uint64_t &c) {
            c = static_cast<std::uint64_t>(static_cast<double>(c) * factor);
        };
        for (std::uint64_t &h : hits_) scale(h);
        scale(misses_);
        scale(sampled_);
        scale(accesses_);
    }

    void
    clear()
    {
        std::fill(hits_.begin(), hits_.end(), 0);
        misses_ = sampled_ = accesses_ = 0;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t sampled() const { return sampled_; }
    std::uint64_t misses() const { return misses_; }

    /** Lines held over all sets (at most sets * ways). */
    std::size_t
    held() const
    {
        std::size_t n = 0;
        for (const auto &stack : stacks_) n += stack.size();
        return n;
    }

  private:
    UmonParams p_;
    double rate_;
    std::vector<std::list<LineAddr>> stacks_;
    std::vector<std::uint64_t> hits_;
    std::uint64_t misses_ = 0, sampled_ = 0, accesses_ = 0;
};

TEST(Umon, MatchesNaiveListModelBitForBit)
{
    // An integral sampling rate (4) and a fractional one (5.25: the
    // sampler keeps 1 line in 5, the curve scales back by 5.25).
    for (std::uint64_t modelled : {32u * 16u * 4u, 32u * 16u * 21u / 4u}) {
        UmonParams p;
        p.sets = 32;
        p.ways = 16;
        Umon umon(p, modelled);
        NaiveUmon ref(p, modelled);
        StatRegistry reg;
        umon.registerStats(reg, "umon.");
        auto expectSame = [&](int epoch, const char *when) {
            SCOPED_TRACE(testing::Message() << "modelled " << modelled
                                            << ", epoch " << epoch << ", "
                                            << when);
            ASSERT_EQ(umon.missCurve().points(), ref.curve());
            ASSERT_EQ(umon.accesses(), ref.accesses());
            ASSERT_EQ(reg.value("umon.accesses"),
                      static_cast<double>(ref.accesses()));
            ASSERT_EQ(reg.value("umon.sampledAccesses"),
                      static_cast<double>(ref.sampled()));
            ASSERT_EQ(reg.value("umon.sampledMisses"),
                      static_cast<double>(ref.misses()));
        };

        // Working sets of a quarter, all, and four times the modelled
        // capacity, half scanned and half drawn at random, moving to
        // fresh lines every other epoch so stacks keep turning over.
        const std::vector<LineAddr> sizes = {modelled / 4, modelled,
                                             modelled * 4};
        Rng rng(modelled);
        std::uint64_t fed = 0;
        for (int epoch = 0; epoch < 30; epoch++) {
            const LineAddr ws = sizes[static_cast<std::size_t>(epoch) % 3];
            const LineAddr base = static_cast<LineAddr>(epoch / 2) << 32;
            for (LineAddr i = 0; i < 4000; i++) {
                LineAddr line = base + (i % 2 == 0 ? (i / 2) % ws
                                                   : rng.below(ws));
                umon.access(line);
                ref.access(line);
            }
            fed += 4000;
            ASSERT_NO_FATAL_FAILURE(expectSame(epoch, "end of epoch"));
            if (epoch % 3 == 1) {
                umon.decay(epoch % 2 == 0 ? 0.5 : 0.75);
                ref.decay(epoch % 2 == 0 ? 0.5 : 0.75);
                ASSERT_NO_FATAL_FAILURE(expectSame(epoch, "after decay"));
            } else if (epoch % 5 == 4) {
                umon.clear();
                ref.clear();
                ASSERT_NO_FATAL_FAILURE(expectSame(epoch, "after clear"));
            }
        }
        EXPECT_GE(fed, 100000u);
        // The large working sets filled every stack to its ways.
        EXPECT_EQ(ref.held(), std::size_t{p.sets} * p.ways);
    }
}

// ------------------------------------------------ PlacementDescriptor

TEST(Descriptor, StripedCoversAllBanks)
{
    PlacementDescriptor desc;
    desc.fillStriped({0, 1, 2, 3});
    for (BankId b = 0; b < 4; b++)
        EXPECT_EQ(desc.slotsOn(b), PlacementDescriptor::kSlots / 4);
}

TEST(Descriptor, ProportionalSharesApproximateRatios)
{
    PlacementDescriptor desc;
    desc.fillProportional({{0, 3.0}, {1, 1.0}});
    EXPECT_NEAR(desc.slotsOn(0), 96, 2);
    EXPECT_NEAR(desc.slotsOn(1), 32, 2);
    EXPECT_EQ(desc.slotsOn(0) + desc.slotsOn(1),
              PlacementDescriptor::kSlots);
}

TEST(Descriptor, TinyShareStillReachable)
{
    PlacementDescriptor desc;
    desc.fillProportional({{0, 1000.0}, {1, 0.001}});
    EXPECT_GE(desc.slotsOn(1), 1u);
}

TEST(Descriptor, ProportionalFillPanicsOnMoreSharesThanSlots)
{
    // 128 equal shares fill one slot each.
    constexpr auto kSlots = static_cast<BankId>(PlacementDescriptor::kSlots);
    std::vector<std::pair<BankId, double>> shares;
    for (BankId b = 0; b < kSlots; b++) shares.emplace_back(b, 1.0);
    PlacementDescriptor desc;
    desc.fillProportional(shares);
    for (BankId b = 0; b < kSlots; b++) EXPECT_EQ(desc.slotsOn(b), 1u);

    // A 129th positive share cannot hold a slot; the apportionment's
    // trim loop used to spin forever here. A zero share is no claim.
    shares.emplace_back(kSlots, 0.0);
    EXPECT_NO_THROW(desc.fillProportional(shares));
    shares.back().second = 1.0;
    try {
        desc.fillProportional(shares);
        ADD_FAILURE() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(),
                     "panic: PlacementDescriptor::fillProportional: 129 "
                     "positive shares exceed the 128 slots");
    }
}

TEST(Descriptor, BankForUsesHash)
{
    PlacementDescriptor desc;
    desc.fillStriped({0, 1, 2, 3});
    // Deterministic.
    for (LineAddr l = 0; l < 50; l++)
        EXPECT_EQ(desc.bankFor(l), desc.bankFor(l));
    // Roughly uniform over banks.
    std::vector<int> counts(4, 0);
    for (LineAddr l = 0; l < 4000; l++) counts[desc.bankFor(l)]++;
    for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Descriptor, OwnedBanksSorted)
{
    PlacementDescriptor desc;
    desc.fillProportional({{7, 1.0}, {2, 1.0}, {11, 1.0}});
    EXPECT_EQ(desc.ownedBanks(), (std::vector<BankId>{2, 7, 11}));
}

TEST(Descriptor, StabilizedKeepsUnchangedSlots)
{
    PlacementDescriptor prev;
    prev.fillProportional({{0, 1.0}, {1, 1.0}});

    // Same share split; stabilization should be a no-op move-wise.
    PlacementDescriptor next;
    next.fillProportional({{1, 1.0}, {0, 1.0}});
    PlacementDescriptor stable = next.stabilizedAgainst(prev);

    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (stable.slot(s) != prev.slot(s)) moved++;
    EXPECT_EQ(moved, 0u);
    EXPECT_EQ(stable.slotsOn(0), next.slotsOn(0));
    EXPECT_EQ(stable.slotsOn(1), next.slotsOn(1));
}

TEST(Descriptor, StabilizedMovesMinimumForSmallChange)
{
    PlacementDescriptor prev;
    prev.fillProportional({{0, 1.0}, {1, 1.0}});

    // Shift ~8 slots of share from bank 1 to bank 0.
    PlacementDescriptor next;
    next.fillProportional({{0, 72.0}, {1, 56.0}});
    PlacementDescriptor stable = next.stabilizedAgainst(prev);

    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (stable.slot(s) != prev.slot(s)) moved++;
    // Exactly the slots whose bank lost quota move.
    EXPECT_EQ(moved, stable.slotsOn(0) - prev.slotsOn(0));
    EXPECT_EQ(stable.slotsOn(0), next.slotsOn(0));
}

TEST(Descriptor, StabilizedPreservesQuotas)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; trial++) {
        PlacementDescriptor prev, next;
        std::vector<std::pair<BankId, double>> a, b;
        for (BankId bank = 0; bank < 6; bank++) {
            a.emplace_back(bank, 1.0 + rng.uniform() * 5);
            b.emplace_back(bank, 1.0 + rng.uniform() * 5);
        }
        prev.fillProportional(a);
        next.fillProportional(b);
        PlacementDescriptor stable = next.stabilizedAgainst(prev);
        for (BankId bank = 0; bank < 6; bank++)
            EXPECT_EQ(stable.slotsOn(bank), next.slotsOn(bank));
    }
}

// ----------------------------------------------------------------- Vtb

TEST(Vtb, InstallAndLookup)
{
    Vtb vtb;
    PlacementDescriptor desc;
    desc.fillStriped({3});
    vtb.install(5, desc);
    EXPECT_TRUE(vtb.has(5));
    EXPECT_FALSE(vtb.has(6));
    EXPECT_EQ(vtb.lookup(5, 1234), 3);
}

TEST(Vtb, UnknownVcPanics)
{
    Vtb vtb;
    EXPECT_THROW(vtb.lookup(9, 0), PanicError);
}

TEST(Vtb, Reinstall)
{
    Vtb vtb;
    PlacementDescriptor a, b;
    a.fillStriped({0});
    b.fillStriped({1});
    vtb.install(1, a);
    vtb.install(1, b);
    EXPECT_EQ(vtb.lookup(1, 55), 1);
    EXPECT_EQ(vtb.size(), 1u);
}

} // namespace
} // namespace jumanji
