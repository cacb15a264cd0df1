/**
 * @file
 * Example: auditing an LLC configuration for cross-VM attack
 * exposure.
 *
 * Uses the library's security instrumentation to answer: if tenant A
 * is a victim, how many co-located untrusted applications could
 * observe its LLC accesses through bank-shared structures (ports,
 * replacement metadata)? Audits all four LLC management designs and
 * demonstrates the port channel directly with an attacker/victim
 * pair on a bank-sharing configuration.
 *
 * Usage: security_audit [seed]
 */

#include <cstdio>
#include <cstdlib>

#include "src/cpu/core_model.hh"
#include "src/security/attacks.hh"
#include "src/sim/logging.hh"
#include "src/system/harness.hh"

using namespace jumanji;

namespace {

/** Part 1: the fleet audit — attackers-per-access per design. */
void
fleetAudit(std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = seed;
    Rng rng(seed);
    WorkloadMix mix = makeMix({"silo"}, 4, 4, rng);

    MixResult result = runMix(cfg, mix,
                              {LlcDesign::Adaptive, LlcDesign::VMPart,
                               LlcDesign::Jigsaw, LlcDesign::Jumanji},
                              LoadLevel::High);

    std::printf("Fleet audit: average untrusted apps sharing the "
                "accessed bank\n\n");
    std::printf("%-14s %12s %s\n", "design", "attackers", "verdict");
    for (const auto &d : result.designs) {
        const char *verdict =
            d.run.attackersPerAccess() == 0.0
                ? "isolated: port+leakage channels closed"
            : d.run.attackersPerAccess() < 1.0
                ? "mitigated heuristically: NOT guaranteed"
                : "exposed: every access observable";
        std::printf("%-14s %12.3f %s\n", llcDesignName(d.design),
                    d.run.attackersPerAccess(), verdict);
    }
}

/** Part 2: demonstrate the port channel on a shared-bank config. */
void
portChannelDemo()
{
    LlcParams llc;
    llc.banks = 4;
    llc.setsPerBank = 64;
    llc.ways = 16;
    llc.timing.portOccupancy = 3;
    MeshParams mesh;
    mesh.cols = 2;
    mesh.rows = 2;
    MemPath path(llc, mesh, MemoryParams{}, UmonParams{}, 1);

    std::vector<BankId> all = {0, 1, 2, 3};
    PlacementDescriptor striped;
    striped.fillStriped(all);

    path.registerVc(0);
    path.installPlacement(0, striped);
    PortAttackerApp attacker(
        linesTargetingBank(appAddressBase(0), 1, 4, 32), 50);
    AccessOwner ao;
    ao.app = 0;
    ao.vc = 0;
    ao.vm = 0;
    CoreModel attackerCore(0, ao, &attacker, &path, Rng(1));

    path.registerVc(1);
    path.installPlacement(1, striped);
    std::vector<std::vector<LineAddr>> perBank;
    for (BankId b = 0; b < 4; b++)
        perBank.push_back(
            linesTargetingBank(appAddressBase(1), b, 4, 32));
    RotatingVictimApp victim(std::move(perBank), 30000, 10000);
    AccessOwner vo;
    vo.app = 1;
    vo.vc = 1;
    vo.vm = 1;
    CoreModel victimCore(3, vo, &victim, &path, Rng(2));

    EventQueue queue;
    queue.schedule(&attackerCore, 0);
    queue.schedule(&victimCore, 0);
    queue.runUntil(4 * 40000 * 2);

    double floor = 1e30, peak = 0.0;
    for (const auto &s : attacker.trace()) {
        if (s.when < 5000) continue; // skip cold start
        floor = std::min(floor, s.cyclesPerAccess);
        peak = std::max(peak, s.cyclesPerAccess);
    }
    std::printf("\nPort-channel probe (attacker on bank 1, rotating "
                "victim):\n");
    std::printf("  quiet-bank access time : %.2f cycles\n", floor);
    std::printf("  contended access time  : %.2f cycles\n", peak);
    std::printf("  => a %.1f%% timing signal reveals when the victim "
                "uses the attacker's bank.\n",
                100.0 * (peak - floor) / floor);
}

/** Part 3: the conflict (prime+probe) channel and its defense. */
void
conflictChannelDemo()
{
    std::printf("\nConflict-channel probe (prime+probe, one bank):\n");
    for (bool partitioned : {false, true}) {
        CacheArray array(64, 8, ReplKind::DRRIP, 1);
        if (partitioned) {
            array.setWayMask(0, WayMask::range(0, 4));
            array.setWayMask(1, WayMask::range(4, 4));
        }
        AccessOwner attacker;
        attacker.vc = 0;
        attacker.vm = 0;
        AccessOwner victim;
        victim.vc = 1;
        victim.vm = 1;

        // Calibrate a skew-free prime set, as a real attacker does.
        std::vector<LineAddr> prime;
        {
            CacheArray scratch(64, 8, ReplKind::LRU, 1);
            scratch.setWayMask(attacker.vc,
                               array.wayMaskFor(attacker.vc));
            for (LineAddr cand = 0; prime.size() < 180 && cand < 100000;
                 cand++) {
                if (!scratch.access(cand, attacker).evicted)
                    prime.push_back(cand);
            }
        }
        ConflictProber prober(prime, attacker);
        prober.prime(array);
        std::uint64_t quiet = prober.probe(array);
        for (LineAddr l = 5000; l < 5400; l++) array.access(l, victim);
        std::uint64_t active = prober.probe(array);
        std::printf("  %-22s quiet=%3llu evictions, victim "
                    "active=%3llu -> %s\n",
                    partitioned ? "way-partitioned:" : "shared cache:",
                    static_cast<unsigned long long>(quiet),
                    static_cast<unsigned long long>(active),
                    active > quiet ? "LEAKS victim activity"
                                   : "defended");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
    fleetAudit(seed);
    portChannelDemo();
    conflictChannelDemo();
    std::printf("\nConclusion: only strict bank isolation (Jumanji) "
                "closes the port and replacement-state channels; "
                "way-partitioning alone cannot (paper Sec. VI).\n");
    return 0;
}
