/**
 * @file
 * Reproduces Fig. 11: the LLC port attack demonstration.
 *
 * An attacker thread floods one target LLC bank with accesses and
 * records the time per batch of 100 accesses. A 3-thread victim
 * process rotates through flooding each of the 12 banks (the paper's
 * Xeon E5-2650 v4 has twelve LLC banks), pausing between banks. When
 * the victim floods the attacker's bank, port queueing raises the
 * attacker's observed access time — one latency peak per rotation.
 *
 * Paper shape: 12 latency peaks, higher when the victim shares the
 * attacker's bank; baseline (victim absent) is flat.
 */

#include <algorithm>

#include "bench/bench_common.hh"
#include "src/cpu/core_model.hh"
#include "src/security/attacks.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {

constexpr std::uint32_t kBanks = 12;
constexpr BankId kTargetBank = 5;

struct AttackRun
{
    std::vector<AttackSample> trace;
};

AttackRun
runAttack(bool withVictim, std::uint64_t seed)
{
    // Xeon-like 12-bank LLC on a 4x3 mesh.
    LlcParams llc;
    llc.banks = kBanks;
    llc.setsPerBank = 64;
    llc.ways = 16;
    llc.repl = ReplKind::DRRIP;
    llc.timing.accessLatency = 13;
    llc.timing.ports = 1;
    // Xeon L3 banks sustain roughly one access per ~3 cycles.
    llc.timing.portOccupancy = 3;

    MeshParams mesh;
    mesh.cols = 4;
    mesh.rows = 3;
    // Link contention on: the paper's trace also shows smaller
    // elevations whenever the victim is active anywhere, from NoC
    // congestion on links the attacker's route shares.
    mesh.modelLinkContention = true;

    UmonParams umon;
    umon.sets = 64;
    umon.ways = 32;

    MemPath path(llc, mesh, MemoryParams{}, umon, seed);

    // All parties use striped descriptors (the S-NUCA baseline that
    // prior conflict-attack defenses build on).
    std::vector<BankId> all;
    for (std::uint32_t b = 0; b < kBanks; b++)
        all.push_back(static_cast<BankId>(b));

    // Attacker: VC 0, floods the target bank, timing every 100.
    path.registerVc(0);
    PlacementDescriptor striped;
    striped.fillStriped(all);
    path.installPlacement(0, striped);

    auto attackLines = linesTargetingBank(appAddressBase(0), kTargetBank,
                                          kBanks, 64);
    PortAttackerApp attacker(attackLines, 100);
    AccessOwner attackerOwner;
    attackerOwner.app = 0;
    attackerOwner.vc = 0;
    attackerOwner.vm = 0;
    CoreModel attackerCore(0, attackerOwner, &attacker, &path, Rng(1));

    // Victim: 3 threads (VCs 1-3) rotating through all banks; uses a
    // different address slice, so no cache-content conflicts.
    std::vector<std::unique_ptr<RotatingVictimApp>> victims;
    std::vector<std::unique_ptr<CoreModel>> victimCores;
    if (withVictim) {
        for (int t = 0; t < 3; t++) {
            VcId vc = 1 + t;
            path.registerVc(vc);
            path.installPlacement(vc, striped);
            std::vector<std::vector<LineAddr>> perBank;
            for (std::uint32_t b = 0; b < kBanks; b++) {
                perBank.push_back(linesTargetingBank(
                    appAddressBase(vc) + (1u << 22) * t,
                    static_cast<BankId>(b), kBanks, 48));
            }
            victims.push_back(std::make_unique<RotatingVictimApp>(
                std::move(perBank), /*dwell=*/60000, /*pause=*/20000));
            AccessOwner owner;
            owner.app = vc;
            owner.vc = vc;
            owner.vm = 1;
            victimCores.push_back(std::make_unique<CoreModel>(
                static_cast<CoreId>(4 + t), owner, victims.back().get(),
                &path, Rng(100 + t)));
        }
    }

    EventQueue queue;
    queue.schedule(&attackerCore, 0);
    for (auto &core : victimCores) queue.schedule(core.get(), 0);
    // Two full victim rotations: 12 banks x (60k + 20k) cycles each.
    queue.runUntil(2 * 12 * 80000 + 100000);

    AttackRun result;
    result.trace = attacker.trace();
    for (std::size_t t = 0; t < victimCores.size(); t++)
        std::fprintf(stderr, "victim %zu instrs=%llu\n", t,
                     static_cast<unsigned long long>(
                         victimCores[t]->instrsRetired()));
    std::fprintf(stderr, "bank5 acc=%llu queue=%llu\n",
                 static_cast<unsigned long long>(
                     path.bank(kTargetBank).totalAccesses()),
                 static_cast<unsigned long long>(
                     path.bank(kTargetBank).totalQueueCycles()));
    return result;
}

void
printTrace(const char *label, const AttackRun &run)
{
    std::printf("\n-- %s --\n", label);
    std::printf("%-14s %18s\n", "time(cycles)", "cycles/access");
    // Bin the trace for readable output: ~60 rows.
    std::size_t stride = std::max<std::size_t>(1, run.trace.size() / 60);
    for (std::size_t i = 0; i < run.trace.size(); i += stride) {
        double avg = 0.0;
        std::size_t n = std::min(stride, run.trace.size() - i);
        for (std::size_t j = i; j < i + n; j++)
            avg += run.trace[j].cyclesPerAccess;
        avg /= static_cast<double>(n);
        std::printf("%-14llu %18.2f\n",
                    static_cast<unsigned long long>(run.trace[i].when),
                    avg);
    }
    double peak = 0.0, floor = 1e30;
    for (const auto &s : run.trace) {
        peak = std::max(peak, s.cyclesPerAccess);
        floor = std::min(floor, s.cyclesPerAccess);
    }
    std::printf("floor=%.2f peak=%.2f cycles/access\n", floor, peak);
    // Top samples, to locate contention windows precisely.
    auto sorted = run.trace;
    std::sort(sorted.begin(), sorted.end(),
              [](const AttackSample &a, const AttackSample &b) {
                  return a.cyclesPerAccess > b.cyclesPerAccess;
              });
    std::printf("top samples:");
    for (std::size_t i = 0; i < std::min<std::size_t>(8, sorted.size());
         i++)
        std::printf(" (%llu, %.1f)",
                    static_cast<unsigned long long>(sorted[i].when),
                    sorted[i].cyclesPerAccess);
    std::printf("\n");
}

} // namespace

int
main()
{
    setQuiet(true);
    header("Figure 11", "LLC port attack: attacker access times with "
                        "and without a rotating victim");

    AttackRun without = runAttack(false, driver::seedFromEnv());
    AttackRun with = runAttack(true, driver::seedFromEnv());

    printTrace("victim absent (baseline)", without);
    printTrace("victim present (12-bank rotation)", with);

    note("Paper: latency rises whenever the victim is active (NoC "
         "link contention) and is noticeably higher when it floods "
         "the attacker's bank (port contention) — the peaks above. "
         "The victim touches different cache sets, so no part of the "
         "signal comes from cache contents.");
    return 0;
}
