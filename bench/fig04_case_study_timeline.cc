/**
 * @file
 * Reproduces Fig. 4: the case-study timelines. Four VMs each run one
 * xapian plus four batch apps; for each design we print per-epoch
 * series of (a) average xapian request latency, (b) average LLC
 * space allocated to xapian, and (c) the vulnerability metric.
 *
 * Paper shape: all designs but Jigsaw keep latency at/below the
 * deadline; Jigsaw's latency grows over time because it allocates
 * xapian almost nothing; Jumanji needs less space than Adaptive /
 * VM-Part; only the D-NUCAs have (near-)zero potential attackers,
 * and only Jumanji is exactly zero.
 */

#include <set>

#include "bench/bench_common.hh"

using namespace jumanji;
using namespace jumanji::bench;

namespace {
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);
} // namespace

int
main()
{
    setQuiet(true);
    header("Figure 4", "case-study timelines: latency, allocation, "
                       "vulnerability");

    SystemConfig cfg = benchConfig();
    // A longer run shows the divergence over time clearly.
    cfg.measureTicks = 20 * cfg.epochTicks;

    Rng rng(cfg.seed);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);
    const LcCalibrationMap calib = calibrateMix(cfg, mix);
    double deadline = calib.at("xapian").deadline;

    std::vector<LlcDesign> designs = {
        LlcDesign::Adaptive, LlcDesign::VMPart, LlcDesign::Jigsaw,
        LlcDesign::Jumanji};

    for (LlcDesign d : designs) {
        SystemConfig c = cfg;
        c.design = d;
        c.load = LoadLevel::High;
        System system(c, mix, calib);
        RunResult run = system.run();

        std::printf("\n-- %s --\n", llcDesignName(d));
        std::printf("deadline (cycles): %.0f\n", deadline);
        std::printf("%-6s %16s %16s %14s\n", "epoch", "avgLat(xapian)",
                    "xapianAlloc(ln)", "attackers");

        // All three series come from the epoch recorder: per-LC-app
        // latency ("apps.aNN.epochLatency"), per-VC allocation
        // ("runtime.vcNN.allocLines"), and the vulnerability metric
        // ("epoch.vuln"). LC apps and their VCs are identified from
        // the cores' owner records rather than assuming slot layout.
        const TimelineSeries &ts = run.timeline;
        std::vector<std::size_t> latCols;
        std::set<std::size_t> allocCols;
        const auto &cores = system.cores();
        for (std::size_t i = 0; i < cores.size(); i++) {
            if (!cores[i]->owner().latencyCritical) continue;
            std::size_t lat = ts.columnIndex(
                "apps.a" + statIndexName(i) + ".epochLatency");
            std::size_t alloc = ts.columnIndex(
                "runtime.vc" + statIndexName(cores[i]->owner().vc) +
                ".allocLines");
            if (lat != kNoColumn) latCols.push_back(lat);
            if (alloc != kNoColumn) allocCols.insert(alloc);
        }
        std::size_t vulnCol = ts.columnIndex("epoch.vuln");

        for (auto row = ts.cursor(); row.next();) {
            double lat = 0.0;
            for (std::size_t col : latCols) lat += row[col];
            if (!latCols.empty())
                lat /= static_cast<double>(latCols.size());
            double alloc = 0.0;
            for (std::size_t col : allocCols) alloc += row[col];
            if (!allocCols.empty())
                alloc /= static_cast<double>(allocCols.size());
            double vuln = vulnCol != kNoColumn ? row[vulnCol] : 0.0;
            std::printf("%-6zu %16.0f %16.0f %14.3f\n", row.index(), lat,
                        alloc, vuln);
        }
    }

    note("Fig. 4a = avgLat column (vs. the printed deadline), "
         "Fig. 4b = xapianAlloc column, Fig. 4c = attackers column.");
    return 0;
}
