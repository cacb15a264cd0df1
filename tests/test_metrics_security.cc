/**
 * @file
 * Unit tests for the metrics layer (energy, speedup) and the
 * security attack applications.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/dnuca/vtb.hh"
#include "src/metrics/energy.hh"
#include "src/metrics/speedup.hh"
#include "src/security/attacks.hh"
#include "src/sim/logging.hh"

namespace jumanji {
namespace {

// -------------------------------------------------------------- Energy

TEST(Energy, ZeroCountersZeroEnergy)
{
    EnergyBreakdown e = dataMovementEnergy(AccessCounters{});
    EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(Energy, PerLevelAttribution)
{
    AccessCounters c;
    c.l1Hits = 10;
    c.llcHits = 4;
    c.nocHops = 8;
    c.memAccesses = 1;
    EnergyParams p;
    EnergyBreakdown e = dataMovementEnergy(c, p);
    EXPECT_DOUBLE_EQ(e.l1, 10 * p.l1AccessPj);
    EXPECT_DOUBLE_EQ(e.llc, 4 * p.llcBankAccessPj);
    EXPECT_DOUBLE_EQ(e.noc, 8 * p.nocHopPj);
    EXPECT_DOUBLE_EQ(e.mem, 1 * p.memAccessPj);
    EXPECT_DOUBLE_EQ(e.total(), e.l1 + e.l2 + e.llc + e.noc + e.mem);
}

TEST(Energy, MemoryDominatesPerEvent)
{
    // Sanity: one DRAM access costs more than one of anything else.
    EnergyParams p;
    EXPECT_GT(p.memAccessPj, p.llcBankAccessPj);
    EXPECT_GT(p.llcBankAccessPj, p.l2AccessPj);
    EXPECT_GT(p.l2AccessPj, p.l1AccessPj);
}

TEST(Energy, BreakdownAccumulates)
{
    AccessCounters c;
    c.llcHits = 1;
    EnergyBreakdown a = dataMovementEnergy(c);
    EnergyBreakdown b = dataMovementEnergy(c);
    a += b;
    EXPECT_DOUBLE_EQ(a.llc, 2 * EnergyParams{}.llcBankAccessPj);
}

// ------------------------------------------------------------- Speedup

AppProgress
progress(std::uint64_t instrs, Tick cycles)
{
    AppProgress p;
    p.instrs = instrs;
    p.cycles = cycles;
    return p;
}

TEST(Speedup, WeightedSpeedupIdentity)
{
    std::vector<AppProgress> run = {progress(100, 100),
                                    progress(300, 100)};
    EXPECT_DOUBLE_EQ(weightedSpeedup(run, run), 1.0);
}

TEST(Speedup, WeightedSpeedupAverageOfRatios)
{
    std::vector<AppProgress> mix = {progress(200, 100),
                                    progress(100, 100)};
    std::vector<AppProgress> ref = {progress(100, 100),
                                    progress(100, 100)};
    EXPECT_DOUBLE_EQ(weightedSpeedup(mix, ref), 1.5);
}

TEST(Speedup, MismatchedSizesFatal)
{
    std::vector<AppProgress> a = {progress(1, 1)};
    std::vector<AppProgress> b;
    EXPECT_THROW(weightedSpeedup(a, b), FatalError);
}

TEST(Speedup, GmeanHelper)
{
    EXPECT_DOUBLE_EQ(gmean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(gmean({}), 1.0);
    EXPECT_DOUBLE_EQ(gmean({1.0}), 1.0);
}

// ------------------------------------------------------------ Attacks

TEST(Attacks, LinesTargetBankUnderStripedDescriptor)
{
    const std::uint32_t banks = 12;
    PlacementDescriptor desc;
    std::vector<BankId> all;
    for (std::uint32_t b = 0; b < banks; b++)
        all.push_back(static_cast<BankId>(b));
    desc.fillStriped(all);

    for (BankId target : {0, 5, 11}) {
        auto lines = linesTargetingBank(1 << 20, target, banks, 32);
        EXPECT_EQ(lines.size(), 32u);
        for (LineAddr l : lines) EXPECT_EQ(desc.bankFor(l), target);
    }
}

TEST(Attacks, PortAttackerEmitsTraceSamples)
{
    auto lines = linesTargetingBank(0, 0, 4, 16);
    PortAttackerApp attacker(lines, /*batch=*/10);
    Rng rng(1);

    Tick now = 0;
    for (int i = 0; i < 100; i++) {
        AppStep step = attacker.next(now, rng);
        ASSERT_EQ(step.kind, AppStep::Kind::Execute);
        now += step.instrs + 20; // pretend 20-cycle accesses
        attacker.onAccessComplete(now);
    }
    EXPECT_EQ(attacker.trace().size(), 10u);
    // Each batch of 10 accesses took ~21 cycles per access.
    for (const auto &sample : attacker.trace())
        EXPECT_NEAR(sample.cyclesPerAccess, 21.0, 2.0);
}

TEST(Attacks, PortAttackerDetectsSlowdown)
{
    auto lines = linesTargetingBank(0, 0, 4, 16);
    PortAttackerApp attacker(lines, 10);
    Rng rng(1);

    Tick now = 0;
    // Phase 1: fast accesses. Phase 2: contended (3x slower).
    for (int i = 0; i < 200; i++) {
        AppStep step = attacker.next(now, rng);
        now += step.instrs + (i < 100 ? 20 : 60);
        attacker.onAccessComplete(now);
    }
    const auto &trace = attacker.trace();
    ASSERT_EQ(trace.size(), 20u);
    EXPECT_GT(trace.back().cyclesPerAccess,
              trace.front().cyclesPerAccess * 2);
}

TEST(Attacks, RotatingVictimCyclesThroughBanks)
{
    std::vector<std::vector<LineAddr>> perBank;
    for (BankId b = 0; b < 4; b++)
        perBank.push_back(linesTargetingBank(1 << 30, b, 4, 8));
    RotatingVictimApp victim(perBank, /*dwell=*/1000, /*pause=*/500);
    Rng rng(1);

    std::set<BankId> visited;
    Tick now = 0;
    for (int i = 0; i < 10000; i++) {
        AppStep step = victim.next(now, rng);
        if (step.kind == AppStep::Kind::Idle) {
            EXPECT_EQ(victim.currentBank(), kInvalidBank);
            now = step.wakeTick;
            continue;
        }
        visited.insert(victim.currentBank());
        now += step.instrs + 20;
    }
    EXPECT_EQ(visited.size(), 4u);
}

TEST(Attacks, VictimLinesAvoidAttackerLines)
{
    // The Fig. 11 setup requires disjoint cache sets: victim lines
    // use a different slice of the address space.
    auto attacker = linesTargetingBank(0, 2, 4, 32);
    auto victim = linesTargetingBank(1 << 30, 2, 4, 32);
    for (LineAddr a : attacker)
        for (LineAddr v : victim) EXPECT_NE(a, v);
}

/**
 * Builds a prime set that never overflows any cache set, by testing
 * candidate lines against a scratch array with the same geometry and
 * masks (a real attacker does the same calibration empirically).
 */
std::vector<LineAddr>
buildPrimeSet(const CacheArray &shape, const AccessOwner &owner,
              std::size_t want)
{
    CacheArray scratch(shape.numSets(), shape.numWays(), ReplKind::LRU,
                       1);
    scratch.setWayMask(owner.vc, shape.wayMaskFor(owner.vc));
    std::vector<LineAddr> prime;
    for (LineAddr cand = 0; prime.size() < want && cand < 100000;
         cand++) {
        if (!scratch.access(cand, owner).evicted) prime.push_back(cand);
    }
    return prime;
}

TEST(Attacks, ConflictProbeDetectsUnpartitionedVictim)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    AccessOwner attacker;
    attacker.vc = 0;
    attacker.app = 0;
    attacker.vm = 0;
    AccessOwner victim;
    victim.vc = 1;
    victim.app = 1;
    victim.vm = 1;

    // A skew-free prime set: a quiet probe is exactly clean.
    std::vector<LineAddr> primeLines =
        buildPrimeSet(array, attacker, 24);
    ConflictProber prober(primeLines, attacker);
    prober.prime(array);

    // No victim activity: the probe is clean.
    EXPECT_EQ(prober.probe(array), 0u);

    // Victim floods: without partitioning its fills evict the
    // attacker's primed lines — the classic conflict signal.
    for (LineAddr l = 1000; l < 1200; l++) array.access(l, victim);
    EXPECT_GT(prober.probe(array), 0u);
}

TEST(Attacks, WayPartitioningDefendsConflictProbe)
{
    CacheArray array(16, 4, ReplKind::LRU, 1);
    array.setWayMask(0, WayMask::range(0, 2));
    array.setWayMask(1, WayMask::range(2, 2));

    AccessOwner attacker;
    attacker.vc = 0;
    attacker.app = 0;
    attacker.vm = 0;
    AccessOwner victim;
    victim.vc = 1;
    victim.app = 1;
    victim.vm = 1;

    // A skew-free prime set inside the attacker's partition, so a
    // clean probe is exactly zero.
    std::vector<LineAddr> primeLines =
        buildPrimeSet(array, attacker, 12);
    ConflictProber prober(primeLines, attacker);
    prober.prime(array);
    ASSERT_EQ(prober.probe(array), 0u);

    // Heavy victim traffic cannot evict the attacker's lines.
    for (LineAddr l = 1000; l < 2000; l++) array.access(l, victim);
    EXPECT_EQ(prober.probe(array), 0u)
        << "partitioned victim leaked through the conflict channel";
}

TEST(Attacks, ConflictProberRejectsEmpty)
{
    AccessOwner o;
    EXPECT_THROW(ConflictProber({}, o), FatalError);
}

TEST(Attacks, RejectsEmptyConfig)
{
    EXPECT_THROW(PortAttackerApp({}, 10), FatalError);
    EXPECT_THROW(PortAttackerApp({1}, 0), FatalError);
    EXPECT_THROW(RotatingVictimApp({}, 1, 1), FatalError);
    EXPECT_THROW(RotatingVictimApp({{}}, 1, 1), FatalError);
}

} // namespace
} // namespace jumanji
