/**
 * @file
 * Unit tests for the cache substrate: way masks, replacement
 * policies, the partitioned array, and bank timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/cache/cache_bank.hh"
#include "src/cache/replacement.hh"
#include "src/cache/way_mask.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

AccessOwner
owner(AppId app, VcId vc = -1, VmId vm = 0)
{
    AccessOwner o;
    o.app = app;
    o.vc = vc < 0 ? app : vc;
    o.vm = vm;
    return o;
}

// ------------------------------------------------------------ WayMask

TEST(WayMask, RangeAndContains)
{
    WayMask m = WayMask::range(4, 3);
    EXPECT_FALSE(m.contains(3));
    EXPECT_TRUE(m.contains(4));
    EXPECT_TRUE(m.contains(6));
    EXPECT_FALSE(m.contains(7));
    EXPECT_EQ(m.count(), 3u);
}

TEST(WayMask, EmptyAndAll)
{
    EXPECT_TRUE(WayMask::range(0, 0).empty());
    EXPECT_EQ(WayMask::all(32).count(), 32u);
    EXPECT_EQ(WayMask::all(64).count(), 64u);
}

TEST(WayMask, SetOperations)
{
    WayMask a = WayMask::range(0, 4);
    WayMask b = WayMask::range(2, 4);
    EXPECT_EQ((a & b).count(), 2u);
    EXPECT_EQ((a | b).count(), 6u);
}

TEST(WayMask, ToString)
{
    EXPECT_EQ(WayMask::range(1, 2).toString(4), "0110");
}

// --------------------------------------------------------------- LRU

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w = 0; w < 4; w++) lru.onFill(0, w);
    // Touch 0 and 2; victim among all should be 1.
    lru.onHit(0, 0);
    lru.onHit(0, 2);
    EXPECT_EQ(lru.victimWay(0, WayMask::all(4)), 1u);
}

TEST(LruPolicy, RespectsMask)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w = 0; w < 4; w++) lru.onFill(0, w);
    lru.onHit(0, 0); // way 0 is MRU
    // Mask restricted to way 0 must still pick way 0.
    EXPECT_EQ(lru.victimWay(0, WayMask::range(0, 1)), 0u);
}

TEST(LruPolicy, InvalidatedLineBecomesVictim)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w = 0; w < 4; w++) lru.onFill(0, w);
    lru.onInvalidate(0, 3);
    EXPECT_EQ(lru.victimWay(0, WayMask::all(4)), 3u);
}

// -------------------------------------------------------------- RRIP

TEST(RripPolicy, SrripVictimIsDistant)
{
    RripPolicy srrip(1, 4, RripPolicy::Insertion::SRRIP, 1);
    srrip.onFill(0, 0); // rrpv 2
    srrip.onHit(0, 0);  // rrpv 0
    srrip.onFill(0, 1); // rrpv 2
    // Ways 2,3 still at max rrpv (cold) -> way 2 first victim.
    EXPECT_EQ(srrip.victimWay(0, WayMask::all(4)), 2u);
}

TEST(RripPolicy, AgingFindsVictim)
{
    RripPolicy srrip(1, 2, RripPolicy::Insertion::SRRIP, 1);
    srrip.onFill(0, 0);
    srrip.onFill(0, 1);
    srrip.onHit(0, 0);
    srrip.onHit(0, 1);
    // Both at rrpv 0; aging must eventually yield a victim.
    std::uint32_t v = srrip.victimWay(0, WayMask::all(2));
    EXPECT_LT(v, 2u);
}

TEST(RripPolicy, AgingRespectsMask)
{
    RripPolicy srrip(1, 4, RripPolicy::Insertion::SRRIP, 1);
    for (std::uint32_t w = 0; w < 4; w++) {
        srrip.onFill(0, w);
        srrip.onHit(0, w);
    }
    // Victim restricted to ways {2,3}: never returns 0/1.
    for (int i = 0; i < 8; i++) {
        std::uint32_t v = srrip.victimWay(0, WayMask::range(2, 2));
        EXPECT_GE(v, 2u);
        EXPECT_LT(v, 4u);
    }
}

TEST(RripPolicy, BrripMostlyDistantInserts)
{
    RripPolicy brrip(1, 8, RripPolicy::Insertion::BRRIP, 12345);
    // BRRIP-inserted lines are immediately re-evictable most of the
    // time: fill way 0 repeatedly and check it is usually the victim.
    int distant = 0;
    for (int i = 0; i < 200; i++) {
        brrip.onFill(0, 0);
        if (brrip.victimWay(0, WayMask::range(0, 1)) == 0) distant++;
    }
    EXPECT_EQ(distant, 200); // only way 0 allowed, trivially victim
}

// ------------------------------------------------------------- DRRIP

TEST(DrripPolicy, HasBothLeaderKinds)
{
    DrripPolicy drrip(64, 4, 8, 1);
    int srripLeaders = 0, brripLeaders = 0;
    for (std::uint32_t s = 0; s < 64; s++) {
        if (drrip.isSrripLeader(s)) srripLeaders++;
        if (drrip.isBrripLeader(s)) brripLeaders++;
        EXPECT_FALSE(drrip.isSrripLeader(s) && drrip.isBrripLeader(s));
    }
    EXPECT_GT(srripLeaders, 0);
    EXPECT_GT(brripLeaders, 0);
}

TEST(DrripPolicy, PselMovesWithLeaderMisses)
{
    DrripPolicy drrip(64, 4, 8, 1);
    std::uint32_t srripLeader = 0, brripLeader = 0;
    for (std::uint32_t s = 0; s < 64; s++) {
        if (drrip.isSrripLeader(s)) srripLeader = s;
        if (drrip.isBrripLeader(s)) brripLeader = s;
    }
    std::int32_t before = drrip.psel();
    drrip.onFill(srripLeader, 0); // miss in SRRIP leader: vote BRRIP
    EXPECT_LT(drrip.psel(), before);
    drrip.onFill(brripLeader, 0);
    drrip.onFill(brripLeader, 1);
    EXPECT_GT(drrip.psel(), before - 1);
}

TEST(DrripPolicy, PselSharedAcrossPartitions)
{
    // The PSEL has no notion of partition: fills from any accessor
    // move it. This *is* the Fig. 12 leakage channel.
    DrripPolicy drrip(64, 4, 8, 1);
    std::uint32_t brripLeader = 0;
    for (std::uint32_t s = 0; s < 64; s++)
        if (drrip.isBrripLeader(s)) brripLeader = s;
    std::int32_t before = drrip.psel();
    for (int i = 0; i < 100; i++) drrip.onFill(brripLeader, i % 4);
    EXPECT_GT(drrip.psel(), before);
}

// --------------------------------------------------------- CacheArray

TEST(CacheArray, HitAfterFill)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    EXPECT_FALSE(array.access(100, owner(0)).hit);
    EXPECT_TRUE(array.access(100, owner(0)).hit);
    EXPECT_TRUE(array.contains(100));
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(15, 4, ReplKind::LRU, 1), FatalError);
    EXPECT_THROW(CacheArray(16, 0, ReplKind::LRU, 1), FatalError);
    EXPECT_THROW(CacheArray(16, 65, ReplKind::LRU, 1), FatalError);
}

TEST(CacheArray, CapacityEviction)
{
    CacheArray array(1, 2, ReplKind::LRU, 1);
    array.access(1, owner(0));
    array.access(2, owner(0));
    auto r = array.access(3, owner(0));
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(array.validLines(), 2u);
}

TEST(CacheArray, PartitionRestrictsFills)
{
    CacheArray array(1, 4, ReplKind::LRU, 1);
    array.setWayMask(0, WayMask::range(0, 2));
    array.setWayMask(1, WayMask::range(2, 2));

    // VC 0 fills 3 lines into 2 ways: must evict its own.
    array.access(10, owner(0, 0));
    array.access(11, owner(0, 0));
    array.access(12, owner(0, 0));
    EXPECT_EQ(array.occupancyOfVc(0), 2u);

    // VC 1 fills: must not evict VC 0's lines.
    array.access(20, owner(1, 1));
    array.access(21, owner(1, 1));
    EXPECT_EQ(array.occupancyOfVc(0), 2u);
    EXPECT_EQ(array.occupancyOfVc(1), 2u);
}

TEST(CacheArray, CatHitsAcrossPartitions)
{
    // CAT semantics: a line may be *hit* even if it sits outside the
    // accessor's current fill mask.
    CacheArray array(1, 4, ReplKind::LRU, 1);
    array.setWayMask(0, WayMask::range(0, 2));
    array.access(10, owner(0, 0));
    // Shrink VC 0's mask to ways 2..3; line 10 sits in way 0/1.
    array.setWayMask(0, WayMask::range(2, 2));
    EXPECT_TRUE(array.access(10, owner(0, 0)).hit);
}

TEST(CacheArray, EmptyMaskMeansUncached)
{
    CacheArray array(1, 4, ReplKind::LRU, 1);
    array.setWayMask(0, WayMask(0));
    auto r = array.access(10, owner(0, 0));
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(array.contains(10));
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, InvalidateVc)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    for (LineAddr l = 0; l < 20; l++) array.access(l, owner(0, 0));
    for (LineAddr l = 100; l < 110; l++) array.access(l, owner(1, 1));
    std::uint64_t before = array.occupancyOfVc(0);
    std::uint64_t dropped = array.invalidateVc(0);
    EXPECT_EQ(dropped, before);
    EXPECT_EQ(array.occupancyOfVc(0), 0u);
    EXPECT_EQ(array.occupancyOfVc(1), 10u);
}

TEST(CacheArray, InvalidatedLineMissesDespiteItsStaleTag)
{
    // One set: all four lines share it, one per way.
    CacheArray array(1, 4, ReplKind::LRU, 1);
    for (LineAddr l = 10; l < 14; l++) array.access(l, owner(0));
    ASSERT_TRUE(array.contains(11));

    // Invalidation clears the way's valid bit; its tag stays 11.
    EXPECT_EQ(array.invalidateIf([](LineAddr line, const AccessOwner &) {
                  return line == 11;
              }),
              1u);
    EXPECT_FALSE(array.contains(11));
    EXPECT_TRUE(array.contains(12));
    EXPECT_FALSE(array.access(11, owner(0)).hit);
    EXPECT_TRUE(array.access(11, owner(0)).hit);

    array.invalidateVc(0);
    EXPECT_FALSE(array.access(12, owner(0)).hit);
    array.invalidateAll();
    EXPECT_TRUE(array.insert(13, owner(0)));
    EXPECT_EQ(array.validLines(), 1u);
}

TEST(CacheArray, InvalidateAll)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    for (LineAddr l = 0; l < 30; l++) array.access(l, owner(0));
    EXPECT_GT(array.validLines(), 0u);
    array.invalidateAll();
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, OccupancyTracking)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    array.access(1, owner(0, 0, 0));
    array.access(2, owner(0, 0, 0));
    array.access(3, owner(1, 1, 1));
    EXPECT_EQ(array.occupancyOfApp(0), 2u);
    EXPECT_EQ(array.occupancyOfApp(1), 1u);
}

TEST(CacheArray, AppsFromOtherVms)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    array.access(1, owner(0, 0, 0));
    array.access(2, owner(1, 1, 0));
    array.access(3, owner(2, 2, 1));
    array.access(4, owner(3, 3, 2));
    // From VM 0's view: apps 2 (vm1) and 3 (vm2) are untrusted.
    EXPECT_EQ(array.appsFromOtherVms(0), 2u);
    // From VM 1's view: apps 0, 1 (vm0) and 3 (vm2).
    EXPECT_EQ(array.appsFromOtherVms(1), 3u);
}

TEST(CacheArray, EvictionUpdatesOccupancy)
{
    CacheArray array(1, 2, ReplKind::LRU, 1);
    array.access(1, owner(0, 0, 0));
    array.access(2, owner(0, 0, 0));
    array.access(3, owner(1, 1, 1)); // evicts one of VC 0's lines
    EXPECT_EQ(array.occupancyOfVc(0), 1u);
    EXPECT_EQ(array.occupancyOfVc(1), 1u);
    EXPECT_EQ(array.appsFromOtherVms(1), 1u);
}

// ---------------------------------------------------------- CacheBank

TEST(CacheBank, BaseLatency)
{
    BankTimingParams timing;
    timing.accessLatency = 13;
    timing.ports = 1;
    timing.portOccupancy = 1;
    CacheBank bank(0, 16, 4, ReplKind::LRU, timing, 1);

    auto r = bank.access(1000, 42, owner(0));
    EXPECT_EQ(r.queueDelay, 0u);
    EXPECT_EQ(r.latency, 13u);
}

TEST(CacheBank, PortQueueingDelaysConcurrentAccesses)
{
    BankTimingParams timing;
    timing.accessLatency = 13;
    timing.ports = 1;
    timing.portOccupancy = 4;
    CacheBank bank(0, 16, 4, ReplKind::LRU, timing, 1);

    auto first = bank.access(100, 1, owner(0));
    auto second = bank.access(100, 2, owner(1));
    auto third = bank.access(100, 3, owner(2));
    EXPECT_EQ(first.queueDelay, 0u);
    EXPECT_EQ(second.queueDelay, 4u);
    EXPECT_EQ(third.queueDelay, 8u);
}

TEST(CacheBank, PortFreesAfterOccupancy)
{
    BankTimingParams timing;
    timing.portOccupancy = 4;
    CacheBank bank(0, 16, 4, ReplKind::LRU, timing, 1);
    bank.access(100, 1, owner(0));
    // An access arriving after the port frees sees no queueing.
    auto later = bank.access(104, 2, owner(1));
    EXPECT_EQ(later.queueDelay, 0u);
}

TEST(CacheBank, MultiplePortsServeInParallel)
{
    BankTimingParams timing;
    timing.ports = 2;
    timing.portOccupancy = 4;
    CacheBank bank(0, 16, 4, ReplKind::LRU, timing, 1);
    EXPECT_EQ(bank.access(100, 1, owner(0)).queueDelay, 0u);
    EXPECT_EQ(bank.access(100, 2, owner(1)).queueDelay, 0u);
    EXPECT_EQ(bank.access(100, 3, owner(2)).queueDelay, 4u);
}

TEST(CacheBank, CountsHitsAndQueueCycles)
{
    BankTimingParams timing;
    timing.portOccupancy = 2;
    CacheBank bank(0, 16, 4, ReplKind::LRU, timing, 1);
    bank.access(100, 1, owner(0));
    bank.access(100, 1, owner(0));
    EXPECT_EQ(bank.totalAccesses(), 2u);
    EXPECT_EQ(bank.totalHits(), 1u);
    EXPECT_EQ(bank.totalQueueCycles(), 2u);
}

// ------------------------------------------- property: model vs. ref

/**
 * Property test: an LRU CacheArray with a single full-mask partition
 * behaves exactly like a reference LRU model.
 */
class LruEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LruEquivalence, MatchesReferenceModel)
{
    const std::uint32_t sets = 4, ways = 4;
    CacheArray array(sets, ways, ReplKind::LRU, 1);

    // Reference: per-set vector of lines in LRU order (front = MRU).
    // The reference must use the same set-index function; recover it
    // via contains() probes on a fresh array. Instead, track sets by
    // observing which lines conflict: simpler — model the entire
    // cache as per-set lists discovered through the array itself is
    // circular, so instead model *capacity per set* generically:
    // every line maps to some fixed set; emulate with a map from
    // set-representative. We approximate by checking two invariants:
    // (1) a hit is reported iff the line was accessed within the
    //     last `ways` *conflicting* fills, and
    // (2) total valid lines never exceed sets*ways.
    Rng rng(GetParam());
    std::vector<LineAddr> universe;
    for (LineAddr l = 0; l < 64; l++) universe.push_back(l);

    std::uint64_t hits = 0, accesses = 0;
    for (int i = 0; i < 2000; i++) {
        LineAddr line = universe[rng.below(universe.size())];
        bool expectedHit = array.contains(line);
        auto r = array.access(line, owner(0));
        EXPECT_EQ(r.hit, expectedHit);
        EXPECT_LE(array.validLines(),
                  static_cast<std::uint64_t>(sets) * ways);
        accesses++;
        if (r.hit) hits++;
    }
    // 64-line universe in a 16-line cache: hit rate must be near
    // 16/64 for uniform random access under LRU.
    double hitRate = static_cast<double>(hits) /
                     static_cast<double>(accesses);
    EXPECT_NEAR(hitRate, 0.25, 0.08) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruEquivalence,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

/**
 * Property: partitions never interfere — VC A's hit rate with a
 * private mask is unchanged by VC B's traffic intensity.
 */
class PartitionIsolation : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionIsolation, VictimNeverCrossesMask)
{
    CacheArray array(8, 8, ReplKind::DRRIP, 7);
    array.setWayMask(0, WayMask::range(0, 4));
    array.setWayMask(1, WayMask::range(4, 4));

    Rng rng(GetParam());
    // Fill VC 0 with a small resident set, then blast VC 1.
    for (LineAddr l = 0; l < 16; l++) array.access(l, owner(0, 0, 0));
    std::uint64_t residentBefore = array.occupancyOfVc(0);
    for (int i = 0; i < 5000; i++)
        array.access(1000 + rng.below(10000), owner(1, 1, 1));
    EXPECT_EQ(array.occupancyOfVc(0), residentBefore)
        << "VC1 evicted VC0 lines through the partition";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionIsolation,
                         ::testing::Values(1, 7, 21, 63));

// ---------------------------------- differential: array vs. naive

/**
 * Naive reference for CacheArray's bookkeeping: one {tag, valid,
 * owner} record per way, its own way masks and std::map occupancy
 * tallies, and its own replacement policy, driven by the same
 * onHit/onFill/onInvalidate/victimWay calls the array makes. Only the
 * set hash is shared. A fill takes the lowest invalid way its mask
 * allows, else the policy's victim.
 */
class NaiveArray
{
  public:
    NaiveArray(const CacheArray &shape, ReplKind kind, std::uint64_t seed)
        : shape_(shape),
          ways_(shape.numWays()),
          lines_(shape.numLines()),
          repl_(ReplPolicy::create(kind, shape.numSets(), shape.numWays(),
                                   seed))
    {
    }

    ArrayAccessResult
    access(LineAddr line, const AccessOwner &owner)
    {
        ArrayAccessResult r;
        const std::uint32_t set = shape_.setIndex(line);
        if (const std::uint32_t w = find(set, line); w < ways_) {
            repl_->onHit(set, w);
            r.hit = true;
            return r;
        }
        fill(set, line, owner, &r);
        return r;
    }

    bool
    insert(LineAddr line, const AccessOwner &owner)
    {
        const std::uint32_t set = shape_.setIndex(line);
        return find(set, line) < ways_ || fill(set, line, owner, nullptr);
    }

    void setWayMask(VcId vc, const WayMask &mask) { masks_[vc] = mask; }
    void clearWayMasks() { masks_.clear(); }

    template <typename Pred>
    std::uint64_t
    invalidateIf(Pred pred)
    {
        std::uint64_t dropped = 0;
        for (std::uint32_t s = 0; s < shape_.numSets(); s++) {
            for (std::uint32_t w = 0; w < ways_; w++) {
                Way &l = way(s, w);
                if (!l.valid || !pred(l.tag, l.owner)) continue;
                tally(l.owner, -1);
                l.valid = false;
                repl_->onInvalidate(s, w);
                dropped++;
            }
        }
        return dropped;
    }

    std::uint64_t validLines() const { return valid_; }
    std::uint64_t occupancyOfApp(AppId app) const { return get(byApp_, app); }
    std::uint64_t occupancyOfVc(VcId vc) const { return get(byVc_, vc); }

    /** Distinct apps with a valid line, counted in every VM but @p vm. */
    std::uint32_t
    appsFromOtherVms(VmId vm) const
    {
        std::uint32_t apps = 0;
        for (const auto &[v, byApp] : byVmApp_)
            for (const auto &[app, lines] : byApp)
                if (v != vm && lines > 0) apps++;
        return apps;
    }

  private:
    struct Way
    {
        LineAddr tag = 0;
        bool valid = false;
        AccessOwner owner;
    };

    Way &way(std::uint32_t set, std::uint32_t w)
    {
        return lines_[static_cast<std::size_t>(set) * ways_ + w];
    }

    /** The valid way of @p set holding @p line, or ways_. */
    std::uint32_t
    find(std::uint32_t set, LineAddr line)
    {
        for (std::uint32_t w = 0; w < ways_; w++)
            if (way(set, w).valid && way(set, w).tag == line) return w;
        return ways_;
    }

    template <typename K>
    static std::uint64_t
    get(const std::map<K, std::uint64_t> &m, K key)
    {
        auto it = m.find(key);
        return it == m.end() ? 0 : it->second;
    }

    bool
    fill(std::uint32_t set, LineAddr line, const AccessOwner &owner,
         ArrayAccessResult *r)
    {
        auto it = masks_.find(owner.vc);
        const WayMask mask =
            it == masks_.end() ? WayMask::all(ways_) : it->second;
        if (mask.empty()) return false;
        std::uint32_t victim = ways_;
        for (std::uint32_t w = 0; w < ways_ && victim == ways_; w++)
            if (mask.contains(w) && !way(set, w).valid) victim = w;
        if (victim == ways_) victim = repl_->victimWay(set, mask);
        Way &l = way(set, victim);
        if (l.valid) {
            if (r != nullptr) {
                r->evicted = true;
                r->evictedOwner = l.owner;
                r->evictedLine = l.tag;
            }
            tally(l.owner, -1);
        }
        l = Way{line, true, owner};
        tally(owner, +1);
        repl_->onFill(set, victim);
        return true;
    }

    void
    tally(const AccessOwner &owner, int delta)
    {
        valid_ += static_cast<std::uint64_t>(delta);
        byApp_[owner.app] += static_cast<std::uint64_t>(delta);
        byVc_[owner.vc] += static_cast<std::uint64_t>(delta);
        byVmApp_[owner.vm][owner.app] += static_cast<std::uint64_t>(delta);
    }

    const CacheArray &shape_;
    std::uint32_t ways_;
    std::vector<Way> lines_;
    std::unique_ptr<ReplPolicy> repl_;
    std::map<VcId, WayMask> masks_;
    std::uint64_t valid_ = 0;
    std::map<AppId, std::uint64_t> byApp_;
    std::map<VcId, std::uint64_t> byVc_;
    std::map<VmId, std::map<AppId, std::uint64_t>> byVmApp_;
};

std::string
describe(const AccessOwner &o)
{
    std::ostringstream os;
    os << "{app " << o.app << ", vc " << o.vc << ", vm " << o.vm
       << ", lc " << o.latencyCritical << "}";
    return os.str();
}

/** The first field in which two access results differ, or "". */
std::string
resultDiff(const ArrayAccessResult &got, const ArrayAccessResult &want)
{
    std::ostringstream os;
    if (got.hit != want.hit) os << "hit " << got.hit << " vs " << want.hit;
    else if (got.evicted != want.evicted)
        os << "evicted " << got.evicted << " vs " << want.evicted;
    else if (got.evicted && got.evictedLine != want.evictedLine)
        os << "evictedLine " << got.evictedLine << " vs "
           << want.evictedLine;
    else if (got.evicted && got.evictedOwner != want.evictedOwner)
        os << "evictedOwner " << describe(got.evictedOwner) << " vs "
           << describe(want.evictedOwner);
    return os.str();
}

/** The first occupancy query on which the two arrays differ, or "". */
std::string
stateDiff(const CacheArray &got, const NaiveArray &want,
          const std::vector<AccessOwner> &owners)
{
    std::ostringstream os;
    if (got.validLines() != want.validLines())
        os << "validLines " << got.validLines() << " vs "
           << want.validLines();
    for (const AccessOwner &o : owners) {
        if (!os.str().empty()) break;
        if (got.occupancyOfApp(o.app) != want.occupancyOfApp(o.app))
            os << "occupancyOfApp(" << o.app
               << ") " << got.occupancyOfApp(o.app) << " vs "
               << want.occupancyOfApp(o.app);
        else if (got.occupancyOfVc(o.vc) != want.occupancyOfVc(o.vc))
            os << "occupancyOfVc(" << o.vc << ") "
               << got.occupancyOfVc(o.vc) << " vs "
               << want.occupancyOfVc(o.vc);
        else if (got.appsFromOtherVms(o.vm) != want.appsFromOtherVms(o.vm))
            os << "appsFromOtherVms(" << o.vm << ") "
               << got.appsFromOtherVms(o.vm) << " vs "
               << want.appsFromOtherVms(o.vm);
    }
    return os.str();
}

class ArrayDifferential : public ::testing::TestWithParam<ReplKind>
{
};

/**
 * Lock-step: the array and the naive model take the same random
 * stream of fills, migrations, mask changes and invalidations, and
 * after every step agree on the access result and on every occupancy
 * query. Owners share VCs across apps, VMs and LC flags, so an owner
 * recorded by VC alone reports the wrong evictee.
 */
TEST_P(ArrayDifferential, MatchesNaiveModelStepByStep)
{
    const ReplKind kind = GetParam();
    // 128 sets make DRRIP's leader stride 4, so follower sets exist.
    CacheArray array(128, 4, kind, 17);
    NaiveArray ref(array, kind, 17);
    auto lc = [](AccessOwner o) {
        o.latencyCritical = true;
        return o;
    };
    const std::vector<AccessOwner> owners = {
        lc(owner(0, 0, 0)), owner(0, 0, 0), owner(1, 1, 0),
        lc(owner(2, 2, 1)), owner(3, 2, 1), owner(4, 3, 2),
        owner(5, 4, 2),     owner(6, 4, 1),
    };
    const VcId kVcs = 5;
    const LineAddr kUniverse = 2 * array.numLines();

    Rng rng(static_cast<std::uint64_t>(kind) + 101);
    std::uint64_t evictions = 0, peakValid = 0;
    // Invalidations are rare enough (1 step in 180) that the array
    // refills between them and most fills must evict.
    for (int step = 0; step < 40000; step++) {
        const std::uint64_t op = rng.below(20000);
        const LineAddr line = rng.below(kUniverse);
        const AccessOwner &o = owners[rng.below(owners.size())];
        const auto vc = static_cast<VcId>(rng.below(kVcs));
        std::string what;
        if (op < 15000) {
            what = "access";
            ArrayAccessResult got = array.access(line, o);
            ArrayAccessResult want = ref.access(line, o);
            ASSERT_EQ(resultDiff(got, want), "")
                << "step " << step << ": access(" << line << ", "
                << describe(o) << ")";
            evictions += want.evicted ? 1 : 0;
        } else if (op < 17000) {
            what = "insert";
            ASSERT_EQ(array.insert(line, o), ref.insert(line, o))
                << "step " << step;
        } else if (op < 19700) {
            // One mask in six is empty: that VC can no longer fill.
            what = "setWayMask";
            WayMask mask(rng.below(6) == 0 ? 0 : rng.below(16));
            array.setWayMask(vc, mask);
            ref.setWayMask(vc, mask);
        } else if (op < 19890) {
            what = "clearWayMasks";
            array.clearWayMasks();
            ref.clearWayMasks();
        } else if (op < 19970) {
            // A line-hash stripe, optionally only the LC lines, or a
            // VM flush that spares one app.
            what = "invalidateIf";
            const std::uint64_t k = 2 + rng.below(6), r = rng.below(k);
            const bool lcOnly = rng.below(2) == 0;
            const auto vm = static_cast<VmId>(rng.below(3));
            auto stripe = [=](LineAddr l, const AccessOwner &ow) {
                return l % k == r && (!lcOnly || ow.latencyCritical);
            };
            auto flush = [=](LineAddr, const AccessOwner &ow) {
                return ow.vm == vm && ow.app != o.app;
            };
            if (rng.below(2) == 0) {
                ASSERT_EQ(array.invalidateIf(stripe),
                          ref.invalidateIf(stripe))
                    << "step " << step;
            } else {
                ASSERT_EQ(array.invalidateIf(flush), ref.invalidateIf(flush))
                    << "step " << step;
            }
        } else if (op < 19995) {
            what = "invalidateVc";
            ASSERT_EQ(array.invalidateVc(vc),
                      ref.invalidateIf([vc](LineAddr, const AccessOwner &ow) {
                          return ow.vc == vc;
                      }))
                << "step " << step;
        } else {
            what = "invalidateAll";
            ASSERT_EQ(array.invalidateAll(),
                      ref.invalidateIf(
                          [](LineAddr, const AccessOwner &) { return true; }))
                << "step " << step;
        }
        ASSERT_EQ(stateDiff(array, ref, owners), "")
            << "after step " << step << " (" << what << ")";
        peakValid = std::max(peakValid, ref.validLines());
    }
    // The stream filled most of the array and made the policy choose.
    EXPECT_GT(peakValid, array.numLines() * 3 / 4);
    EXPECT_GT(evictions, 5000u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ArrayDifferential,
                         ::testing::Values(ReplKind::LRU, ReplKind::SRRIP,
                                           ReplKind::BRRIP, ReplKind::DRRIP),
                         [](const auto &info) {
                             return std::string(replKindName(info.param));
                         });

TEST(CacheArray, OwnerIdsStopAtTheTwoByteLimit)
{
    // Every access brings a new owner, so the owner table gains one
    // entry per access; evictions must keep naming the line's filler.
    CacheArray array(64, 16, ReplKind::LRU, 1);
    ASSERT_EQ(CacheArray::kMaxOwners, std::size_t{65536});
    auto nth = [](std::size_t i) {
        const auto id = static_cast<std::int32_t>(i);
        return owner(id, id, id % 3);
    };
    for (std::size_t i = 0; i < CacheArray::kMaxOwners; i++) {
        ArrayAccessResult r = array.access(i, nth(i));
        ASSERT_FALSE(r.hit) << "access " << i;
        if (r.evicted) {
            ASSERT_EQ(describe(r.evictedOwner),
                      describe(nth(r.evictedLine)))
                << "access " << i;
        }
    }
    ASSERT_EQ(array.validLines(), array.numLines());

    const LineAddr next = CacheArray::kMaxOwners;
    try {
        array.access(next, nth(next));
        FAIL() << "owner " << next << " was accepted";
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("65536"), std::string::npos) << msg;
        EXPECT_NE(msg.find("2-byte owner id"), std::string::npos) << msg;
    }
    // The refused fill left the array as it was; known owners still fill.
    EXPECT_FALSE(array.contains(next));
    EXPECT_EQ(array.validLines(), array.numLines());
    EXPECT_FALSE(array.access(next, nth(5)).hit);
    EXPECT_TRUE(array.contains(next));
    EXPECT_EQ(array.occupancyOfApp(5), 1u);
}

} // namespace
} // namespace jumanji
