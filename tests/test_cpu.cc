/**
 * @file
 * Unit tests for CoreModel and MemPath (the full access path).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/cpu/core_model.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

LlcParams
tinyLlc()
{
    LlcParams llc;
    llc.banks = 4;
    llc.setsPerBank = 16;
    llc.ways = 4;
    llc.repl = ReplKind::LRU;
    llc.timing.accessLatency = 13;
    llc.timing.portOccupancy = 1;
    return llc;
}

MeshParams
quadMesh()
{
    MeshParams p;
    p.cols = 2;
    p.rows = 2;
    p.routerDelay = 2;
    p.linkDelay = 1;
    return p;
}

UmonParams
tinyUmon()
{
    UmonParams p;
    p.sets = 8;
    p.ways = 8;
    return p;
}

std::unique_ptr<MemPath>
makePath()
{
    auto path = std::make_unique<MemPath>(tinyLlc(), quadMesh(),
                                          MemoryParams{}, tinyUmon(), 1);
    return path;
}

AccessOwner
owner(AppId app, VmId vm = 0)
{
    AccessOwner o;
    o.app = app;
    o.vc = app;
    o.vm = vm;
    return o;
}

void
installStriped(MemPath &path, VcId vc)
{
    PlacementDescriptor desc;
    std::vector<BankId> banks;
    for (std::uint32_t b = 0; b < path.numBanks(); b++)
        banks.push_back(static_cast<BankId>(b));
    desc.fillStriped(banks);
    path.installPlacement(vc, desc);
}

// ------------------------------------------------------------ MemPath

TEST(MemPath, LocalHitLatency)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor desc;
    desc.fillStriped({0}); // everything in bank 0
    path->installPlacement(0, desc);

    // First access misses to memory; second hits.
    path->access(0, /*coreTile=*/0, owner(0), 42);
    PathAccessResult hit = path->access(1000, 0, owner(0), 42);
    EXPECT_TRUE(hit.llcHit);
    EXPECT_EQ(hit.hopsToBank, 0u);
    EXPECT_EQ(hit.latency, 13u); // local bank: no NoC
}

TEST(MemPath, RemoteHitAddsNocLatency)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor desc;
    desc.fillStriped({3}); // diagonal bank: 2 hops from tile 0
    path->installPlacement(0, desc);

    path->access(0, 0, owner(0), 42);
    PathAccessResult hit = path->access(1000, 0, owner(0), 42);
    EXPECT_TRUE(hit.llcHit);
    EXPECT_EQ(hit.hopsToBank, 2u);
    // 2 hops x 3 cycles x 2 directions + 13-cycle bank.
    EXPECT_EQ(hit.latency, 12u + 13u);
}

TEST(MemPath, MissGoesToMemory)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    PathAccessResult miss = path->access(0, 0, owner(0), 7);
    EXPECT_FALSE(miss.llcHit);
    EXPECT_GE(miss.latency, MemoryParams{}.accessLatency);
    EXPECT_EQ(path->counters().llcMisses, 1u);
    EXPECT_EQ(path->counters().memAccesses, 1u);
}

TEST(MemPath, CountersAccumulate)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 50; l++) path->access(0, 0, owner(0), l);
    for (LineAddr l = 0; l < 50; l++)
        path->access(10000, 0, owner(0), l);
    EXPECT_EQ(path->counters().llcMisses, 50u);
    EXPECT_EQ(path->counters().llcHits, 50u);
}

TEST(MemPath, UmonObservesAccesses)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0), l);
    EXPECT_EQ(path->umon(0).accesses(), 100u);
}

TEST(MemPath, UnregisteredUmonPanics)
{
    auto path = makePath();
    EXPECT_THROW(path->umon(3), PanicError);
}

TEST(MemPath, VulnerabilityMetricCountsOtherVms)
{
    auto path = makePath();
    path->registerVc(0);
    path->registerVc(1);
    installStriped(*path, 0);
    installStriped(*path, 1);

    // VM 0 fills bank state everywhere.
    for (LineAddr l = 0; l < 200; l++)
        path->access(0, 0, owner(0, 0), l);
    path->clearVulnerabilityStats();

    // VM 1's accesses see one untrusted app occupying the banks.
    for (LineAddr l = 1000; l < 1050; l++)
        path->access(10000, 3, owner(1, 1), l);
    EXPECT_GT(path->avgAttackersPerAccess(), 0.9);
}

TEST(MemPath, IsolatedVcsHaveNoAttackers)
{
    auto path = makePath();
    path->registerVc(0);
    path->registerVc(1);
    PlacementDescriptor d0, d1;
    d0.fillStriped({0, 1});
    d1.fillStriped({2, 3});
    path->installPlacement(0, d0);
    path->installPlacement(1, d1);

    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0, 0), l);
    path->clearVulnerabilityStats();
    for (LineAddr l = 1000; l < 1100; l++)
        path->access(5000, 3, owner(1, 1), l);
    EXPECT_DOUBLE_EQ(path->avgAttackersPerAccess(), 0.0);
}

TEST(MemPath, ReconfigurationInvalidatesMovedLines)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor before;
    before.fillStriped({0});
    path->installPlacement(0, before);
    for (LineAddr l = 0; l < 40; l++) path->access(0, 0, owner(0), l);
    std::uint64_t resident = path->bank(0).constArray().occupancyOfVc(0);
    EXPECT_GT(resident, 0u);

    PlacementDescriptor after;
    after.fillStriped({1});
    std::uint64_t invalidated = path->installPlacement(0, after);
    EXPECT_EQ(invalidated, resident);
    EXPECT_EQ(path->bank(0).constArray().occupancyOfVc(0), 0u);
}

TEST(MemPath, IdenticalReinstallInvalidatesNothing)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 40; l++) path->access(0, 0, owner(0), l);
    PlacementDescriptor same;
    std::vector<BankId> banks;
    for (std::uint32_t b = 0; b < path->numBanks(); b++)
        banks.push_back(static_cast<BankId>(b));
    same.fillStriped(banks);
    EXPECT_EQ(path->installPlacement(0, same), 0u);
}

TEST(MemPath, PartialMoveInvalidatesOnlyMovedSlices)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor before;
    before.fillStriped({0, 1});
    path->installPlacement(0, before);
    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0), l);
    std::uint64_t occ0 = path->bank(0).constArray().occupancyOfVc(0);
    std::uint64_t occ1 = path->bank(1).constArray().occupancyOfVc(0);

    // Keep the same slot->bank mapping for bank 0's slices and move
    // bank 1's slices to bank 2.
    PlacementDescriptor after = before;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (after.slot(s) == 1) after.setSlot(s, 2);
    std::uint64_t invalidated = path->installPlacement(0, after);
    EXPECT_EQ(invalidated, occ1);
    EXPECT_EQ(path->bank(0).constArray().occupancyOfVc(0), occ0);
}

/**
 * The reference installPlacement must match: a full coherence walk
 * through public APIs. Install through the VTB, run every bank's
 * invalidateIf in ascending order, then re-insert the evictees when
 * migrating.
 */
std::uint64_t
referenceInstall(MemPath &path, VcId vc, const PlacementDescriptor &desc,
                 bool migrate)
{
    const PlacementDescriptor *old = path.vtb().descriptorPtr(vc);
    const bool walk = old != nullptr && !(*old == desc);
    path.vtb().install(vc, desc);
    if (!walk) return 0;
    std::vector<std::pair<LineAddr, AccessOwner>> evictees;
    for (std::uint32_t b = 0; b < path.numBanks(); b++) {
        const auto here = static_cast<BankId>(b);
        path.bank(here).array().invalidateIf(
            [&](LineAddr line, const AccessOwner &o) {
                if (o.vc != vc || desc.bankFor(line) == here) return false;
                evictees.emplace_back(line, o);
                return true;
            });
    }
    if (!migrate) return evictees.size();
    std::uint64_t moved = 0;
    for (const auto &[line, o] : evictees) {
        path.bank(desc.bankFor(line)).array().insert(line, o);
        moved++;
    }
    return moved;
}

TEST(MemPath, WalkOfLosingBanksMatchesAFullWalk)
{
    LlcParams llc = tinyLlc();
    llc.banks = 8;
    llc.ways = 8;
    llc.repl = ReplKind::DRRIP;
    MeshParams mesh = quadMesh();
    mesh.cols = 4;
    constexpr VcId kVcs = 4;
    constexpr LineAddr kLinesPerVc = 300;

    for (bool migrate : {true, false}) {
        MemPath fast(llc, mesh, MemoryParams{}, tinyUmon(), 5);
        MemPath full(llc, mesh, MemoryParams{}, tinyUmon(), 5);
        fast.setMigrateOnReconfig(migrate);
        Rng rng(migrate ? 11 : 12);

        std::vector<PlacementDescriptor> current(kVcs);
        for (VcId vc = 0; vc < kVcs; vc++) {
            fast.registerVc(vc);
            full.registerVc(vc);
            // Each VC starts on two banks of its own.
            current[vc].fillStriped({2 * vc, 2 * vc + 1});
            fast.installPlacement(vc, current[vc]);
            referenceInstall(full, vc, current[vc], migrate);
        }

        Tick now = 0;
        std::uint64_t walked = 0;
        for (int change = 0; change < 240; change++) {
            for (int a = 0; a < 60; a++) {
                const auto vc = static_cast<VcId>(rng.below(kVcs));
                AccessOwner o = owner(vc, vc % 2);
                const LineAddr line =
                    static_cast<LineAddr>(vc) * 1000 +
                    rng.below(kLinesPerVc);
                const auto tile =
                    static_cast<std::uint32_t>(rng.below(llc.banks));
                now += 1 + rng.below(20);
                EXPECT_EQ(fast.access(now, tile, o, line).llcHit,
                          full.access(now, tile, o, line).llcHit);
            }

            // A new stabilized placement for one VC over 1-5 random
            // banks; every tenth change reinstalls the same one.
            const auto vc = static_cast<VcId>(rng.below(kVcs));
            PlacementDescriptor next = current[vc];
            if (change % 10 != 9) {
                std::vector<std::pair<BankId, double>> shares;
                const std::uint64_t banks = 1 + rng.below(5);
                for (std::uint64_t i = 0; i < banks; i++)
                    shares.emplace_back(
                        static_cast<BankId>(rng.below(llc.banks)),
                        0.1 + rng.uniform());
                PlacementDescriptor fresh;
                fresh.fillProportional(shares);
                next = fresh.stabilizedAgainst(current[vc]);
            }
            const std::uint64_t got = fast.installPlacement(vc, next);
            ASSERT_EQ(got, referenceInstall(full, vc, next, migrate))
                << "change " << change;
            walked += got;
            current[vc] = next;

            for (std::uint32_t b = 0; b < llc.banks; b++) {
                const CacheArray &a = fast.bank(static_cast<BankId>(b))
                                          .constArray();
                const CacheArray &r = full.bank(static_cast<BankId>(b))
                                          .constArray();
                for (VcId v = 0; v < kVcs; v++)
                    ASSERT_EQ(a.occupancyOfVc(v), r.occupancyOfVc(v))
                        << "change " << change << " bank " << b;
                for (VcId v = 0; v < kVcs; v++) {
                    for (LineAddr l = 0; l < kLinesPerVc; l++) {
                        const LineAddr line =
                            static_cast<LineAddr>(v) * 1000 + l;
                        ASSERT_EQ(a.contains(line), r.contains(line))
                            << "change " << change << " bank " << b
                            << " line " << line;
                    }
                }
            }
        }
        // The placements really moved lines, in both modes.
        EXPECT_GT(walked, 500u) << "migrate=" << migrate;
    }
}

TEST(MemPath, InFlightAccessLandsInTheNewBank)
{
    // Planned at issue against bank 3; the VC moves to bank 1 before
    // the request arrives, so the access must use bank 1.
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor before, after;
    before.fillStriped({3});
    after.fillStriped({1});
    path->installPlacement(0, before);

    MemPath::Route planned = path->planAccess(0, 0, 42);
    ASSERT_EQ(planned.bank, 3);
    path->installPlacement(0, after);
    PathAccessResult r =
        path->accessArrived(planned.traversal, 0, owner(0), 42, planned);
    EXPECT_EQ(r.bank, 1);
    EXPECT_EQ(r.hopsToBank, 1u);
    EXPECT_TRUE(path->bank(1).constArray().contains(42));
    EXPECT_FALSE(path->bank(3).constArray().contains(42));
}

TEST(MemPath, WayMaskInstallation)
{
    auto path = makePath();
    path->registerVc(0);
    std::vector<WayMask> masks(path->numBanks(), WayMask::range(0, 2));
    path->installWayMasks(0, masks);
    EXPECT_EQ(path->bank(0).array().wayMaskFor(0).count(), 2u);
    EXPECT_THROW(path->installWayMasks(0, {WayMask(0)}), PanicError);
}

// ---------------------------------------------------------- CoreModel

/** A fixed app: N instructions then an access, forever. */
class FixedApp : public AppModel
{
  public:
    FixedApp(std::uint64_t instrs, LineAddr base)
        : instrs_(instrs), base_(base)
    {
        traits_.baseIpc = 2.0;
        traits_.stallFactor = 1.0;
    }

    const std::string &name() const override { return name_; }
    const AppTraits &traits() const override { return traits_; }

    AppStep
    next(Tick, Rng &) override
    {
        return AppStep::execute(instrs_, base_ + (counter_++ % 8));
    }

    int completions = 0;
    void onAccessComplete(Tick) override { completions++; }

  private:
    std::string name_ = "fixed";
    AppTraits traits_;
    std::uint64_t instrs_;
    LineAddr base_;
    std::uint64_t counter_ = 0;
};

TEST(CoreModel, RetiresInstructionsAndCharges)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);

    FixedApp app(100, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    queue.runUntil(50000);

    EXPECT_GT(core.instrsRetired(), 0u);
    EXPECT_GT(core.stallCycles(), 0u);
    EXPECT_GT(app.completions, 0);
    EXPECT_EQ(core.counters().llcHits + core.counters().llcMisses,
              static_cast<std::uint64_t>(app.completions));
}

TEST(CoreModel, IpcBoundedByBaseIpc)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);

    FixedApp app(1000, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    Tick end = queue.runUntil(100000);
    double ipc = static_cast<double>(core.instrsRetired()) /
                 static_cast<double>(end);
    EXPECT_LE(ipc, 2.0 + 1e-9);
    EXPECT_GT(ipc, 0.5);
}

TEST(CoreModel, ResetAccountingClears)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    FixedApp app(100, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    queue.runUntil(10000);
    core.resetAccounting();
    EXPECT_EQ(core.instrsRetired(), 0u);
    EXPECT_EQ(core.stallCycles(), 0u);
    EXPECT_EQ(core.counters().llcHits, 0u);
}

TEST(CoreModel, RejectsNullArgs)
{
    auto path = makePath();
    FixedApp app(1, 0);
    EXPECT_THROW(CoreModel(0, owner(0), nullptr, path.get(), Rng(1)),
                 FatalError);
    EXPECT_THROW(CoreModel(0, owner(0), &app, nullptr, Rng(1)),
                 FatalError);
}

} // namespace
} // namespace jumanji
