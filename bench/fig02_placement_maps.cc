/**
 * @file
 * Reproduces Fig. 2: representative data placements for the 4-VM
 * case-study workload under each LLC design, drawn as an ASCII
 * floorplan of the 5x4 bank mesh.
 *
 * Each bank cell shows which VMs own capacity there: a single VM id
 * (0-3) for an exclusively-owned bank, '*' when several VMs share
 * the bank, and '+' marks banks holding latency-critical data.
 *
 * Paper shape: the S-NUCA designs (Adaptive, VM-Part) smear every
 * VM across every bank; Jigsaw clusters data near threads but still
 * shares some banks across VMs; Jumanji partitions the floorplan
 * into four single-VM regions anchored at the VMs' corners.
 */

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {

void
drawPlacement(System &system, const SystemConfig &cfg)
{
    if (system.recorder().series().empty()) return;

    // Reconstruct per-bank VM occupancy from the live arrays (the
    // recorder's allocation columns only hold per-VC totals).
    MemPath &path = system.memPath();
    std::uint32_t cols = cfg.mesh.cols;
    std::uint32_t rows = cfg.mesh.rows;

    for (std::uint32_t y = 0; y < rows; y++) {
        for (std::uint32_t x = 0; x < cols; x++) {
            auto bank = static_cast<BankId>(y * cols + x);
            const CacheArray &array = path.bank(bank).constArray();

            // Which VMs hold lines here, and does any LC app?
            int owner = -1;
            bool shared = false;
            bool lc = false;
            for (const auto &core : system.cores()) {
                const AccessOwner &o = core->owner();
                if (array.occupancyOfVc(o.vc) == 0) continue;
                if (owner == -1) owner = o.vm;
                else if (owner != o.vm) shared = true;
                if (o.latencyCritical) lc = true;
            }

            char cell[8];
            if (owner == -1) {
                std::snprintf(cell, sizeof cell, "  .  ");
            } else if (shared) {
                std::snprintf(cell, sizeof cell, " *%c  ", lc ? '+' : ' ');
            } else {
                std::snprintf(cell, sizeof cell, " %d%c  ", owner,
                              lc ? '+' : ' ');
            }
            std::printf("[%s]", cell);
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    setQuiet(true);
    header("Figure 2", "data placements by design (5x4 bank "
                       "floorplan; cell = owning VM, '*' = shared "
                       "across VMs, '+' = holds latency-critical "
                       "data)");

    SystemConfig cfg = benchConfig();
    Rng rng(cfg.seed);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);
    ExperimentHarness harness(cfg);
    auto calib = harness.calibrationsFor(mix);

    for (LlcDesign d : {LlcDesign::Adaptive, LlcDesign::VMPart,
                        LlcDesign::Jigsaw, LlcDesign::Jumanji}) {
        SystemConfig c = cfg;
        c.design = d;
        c.load = LoadLevel::High;
        System system(c, mix, calib);
        system.run();
        std::printf("\n-- %s --\n", llcDesignName(d));
        drawPlacement(system, c);
    }

    note("Paper Fig. 2: Adaptive/VM-Part spread all four VMs across "
         "every bank ('*' everywhere); Jigsaw clusters data near "
         "threads but shares banks opportunistically; Jumanji's "
         "floorplan has exactly one VM per bank, with the '+' "
         "(latency-critical) banks adjacent to each VM's corner.");
    return 0;
}
