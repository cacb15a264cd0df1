/**
 * @file
 * Unit tests for the workload generators: address streams, the SPEC
 * catalog, TailBench-like LC apps, and mix construction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/sim/logging.hh"
#include "src/workloads/address_stream.hh"
#include "src/workloads/mixes.hh"
#include "src/workloads/spec_like.hh"
#include "src/workloads/tail_latency.hh"

namespace jumanji {
namespace {

// ------------------------------------------------------ AddressStream

TEST(AddressStream, DrawsWithinFootprint)
{
    AddressStream stream(1000, {{64, 1.0, false}, {128, 1.0, false}});
    Rng rng(1);
    for (int i = 0; i < 1000; i++) {
        LineAddr line = stream.draw(rng);
        EXPECT_GE(line, 1000u);
        EXPECT_LT(line, 1000u + 192u);
    }
    EXPECT_EQ(stream.footprintLines(), 192u);
}

TEST(AddressStream, WorkingSetsDisjoint)
{
    AddressStream streamA(0, {{64, 1.0, false}});
    AddressStream streamB(appAddressBase(1), {{64, 1.0, false}});
    Rng rng(1);
    for (int i = 0; i < 100; i++)
        EXPECT_NE(streamA.draw(rng) >> 40, streamB.draw(rng) >> 40);
}

TEST(AddressStream, WeightsBiasDraws)
{
    AddressStream stream(0, {{64, 9.0, false}, {64, 1.0, false}});
    Rng rng(2);
    int firstSet = 0;
    const int n = 10000;
    for (int i = 0; i < n; i++)
        if (stream.draw(rng) < 64) firstSet++;
    EXPECT_NEAR(static_cast<double>(firstSet) / n, 0.9, 0.03);
}

TEST(AddressStream, StreamingNeverReuses)
{
    AddressStream stream(0, {{0, 1.0, true}});
    Rng rng(3);
    std::set<LineAddr> seen;
    for (int i = 0; i < 1000; i++)
        EXPECT_TRUE(seen.insert(stream.draw(rng)).second);
}

TEST(AddressStream, RejectsEmpty)
{
    EXPECT_THROW(AddressStream(0, {}), FatalError);
    EXPECT_THROW(AddressStream(0, {{64, 0.0, false}}), FatalError);
}

// ------------------------------------------------------- SPEC catalog

TEST(SpecCatalog, HasSixteenApps)
{
    EXPECT_EQ(specAppCatalog().size(), 16u);
}

TEST(SpecCatalog, NamesMatchFootnote)
{
    // Footnote 1 of the paper.
    for (const char *name :
         {"401.bzip2", "403.gcc", "410.bwaves", "429.mcf", "433.milc",
          "434.zeusmp", "436.cactusADM", "437.leslie3d", "454.calculix",
          "459.GemsFDTD", "462.libquantum", "470.lbm", "471.omnetpp",
          "473.astar", "482.sphinx3", "483.xalancbmk"}) {
        EXPECT_NO_THROW(specAppParams(name)) << name;
    }
    EXPECT_THROW(specAppParams("999.nope"), FatalError);
}

TEST(SpecCatalog, ParametersSane)
{
    for (const auto &app : specAppCatalog()) {
        EXPECT_GT(app.apki, 0.0) << app.name;
        EXPECT_GT(app.traits.baseIpc, 0.0) << app.name;
        EXPECT_FALSE(app.workingSets.empty()) << app.name;
        EXPECT_GT(app.traits.stallFactor, 0.0) << app.name;
        EXPECT_LE(app.traits.stallFactor, 1.0) << app.name;
    }
}

TEST(SpecLikeApp, GeneratesStepsWithAccesses)
{
    SpecLikeApp app(specAppParams("429.mcf"), 0);
    Rng rng(1);
    double totalInstrs = 0;
    int accesses = 0;
    for (int i = 0; i < 1000; i++) {
        AppStep step = app.next(0, rng);
        EXPECT_EQ(step.kind, AppStep::Kind::Execute);
        totalInstrs += static_cast<double>(step.instrs);
        if (step.access) accesses++;
    }
    EXPECT_EQ(accesses, 1000);
    // APKI check: accesses per kiloinstruction near the parameter.
    double apki = 1000.0 * accesses / totalInstrs;
    EXPECT_NEAR(apki, specAppParams("429.mcf").apki,
                0.2 * specAppParams("429.mcf").apki);
}

TEST(SpecLikeApp, DistinctMissCurveShapes)
{
    // libquantum streams (no reuse): its draws never repeat.
    SpecLikeApp stream(specAppParams("462.libquantum"), 0);
    Rng rng(1);
    std::set<LineAddr> seen;
    for (int i = 0; i < 500; i++) {
        AppStep step = stream.next(0, rng);
        ASSERT_TRUE(step.access.has_value());
        EXPECT_TRUE(seen.insert(*step.access).second);
    }
}

// ----------------------------------------------------- TailLatencyApp

TEST(TailCatalog, HasFiveApps)
{
    EXPECT_EQ(tailAppCatalog().size(), 5u);
    for (const char *name :
         {"masstree", "xapian", "img-dnn", "silo", "moses"})
        EXPECT_NO_THROW(tailAppParams(name)) << name;
}

TEST(TailCatalog, RequestSizeOrderingMatchesTableIII)
{
    // Table III: QPS ordering silo > masstree > xapian > img-dnn ~
    // moses; request cost is the inverse ordering.
    EXPECT_LT(tailAppParams("silo").instrsPerRequest,
              tailAppParams("masstree").instrsPerRequest);
    EXPECT_LT(tailAppParams("masstree").instrsPerRequest,
              tailAppParams("xapian").instrsPerRequest);
    EXPECT_LT(tailAppParams("xapian").instrsPerRequest,
              tailAppParams("img-dnn").instrsPerRequest);
}

TEST(TailLatencyApp, IdlesUntilFirstArrival)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 1e7, Rng(1));
    Rng rng(2);
    AppStep step = app.next(0, rng);
    EXPECT_EQ(step.kind, AppStep::Kind::Idle);
    EXPECT_GT(step.wakeTick, 0u);
}

TEST(TailLatencyApp, ServesRequestAfterArrival)
{
    TailLatencyApp app(tailAppParams("silo"), 0, 1000.0, Rng(1));
    Rng rng(2);
    AppStep first = app.next(0, rng);
    ASSERT_EQ(first.kind, AppStep::Kind::Idle);
    // Jump past the arrival: now there is work.
    AppStep step = app.next(first.wakeTick + 1, rng);
    EXPECT_EQ(step.kind, AppStep::Kind::Execute);
    EXPECT_TRUE(step.access.has_value());
}

TEST(TailLatencyApp, CompletionRecordsLatency)
{
    TailAppParams params = tailAppParams("silo");
    TailLatencyApp app(params, 0, 1000.0, Rng(1));
    Rng rng(2);

    Tick completionSeen = 0;
    double latencySeen = 0;
    app.setCompletionListener([&](Tick when, double latency) {
        completionSeen = when;
        latencySeen = latency;
    });

    // Drive the app manually: each Execute step's access "completes"
    // 50 cycles later.
    Tick now = 0;
    for (int i = 0; i < 100000 && app.requestsCompleted() == 0; i++) {
        AppStep step = app.next(now, rng);
        if (step.kind == AppStep::Kind::Idle) {
            now = step.wakeTick;
            continue;
        }
        now += step.instrs;
        if (step.access) app.onAccessComplete(now + 50);
    }
    ASSERT_EQ(app.requestsCompleted(), 1u);
    EXPECT_GT(completionSeen, 0u);
    EXPECT_GT(latencySeen, 0.0);
    EXPECT_EQ(app.latencies().count(), 1u);
}

TEST(TailLatencyApp, OpenLoopArrivalsKeepComing)
{
    // Open loop: arrivals accumulate even while the server is busy.
    TailLatencyApp app(tailAppParams("silo"), 0, 100.0, Rng(1));
    Rng rng(2);
    app.next(100000, rng); // drain arrivals up to t=100k
    EXPECT_GT(app.requestsArrived(), 500u);
    EXPECT_GT(app.queueDepth(), 0u);
}

TEST(TailLatencyApp, ArrivalRateMatchesInterarrival)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 5000.0, Rng(9));
    Rng rng(2);
    app.next(10000000, rng);
    double rate = static_cast<double>(app.requestsArrived()) / 1e7;
    EXPECT_NEAR(rate, 1.0 / 5000.0, 0.1 / 5000.0);
}

TEST(TailLatencyApp, LoadChangeTakesEffect)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 1e9, Rng(1));
    app.setMeanInterarrival(10.0);
    Rng rng(2);
    app.next(100000, rng);
    EXPECT_GT(app.requestsArrived(), 100u);
}

TEST(TailLatencyApp, DeterministicAcrossInstances)
{
    // Same seed -> same arrival process (the property that makes
    // cross-design comparisons fair).
    TailLatencyApp a(tailAppParams("moses"), 0, 1000.0, Rng(42));
    TailLatencyApp b(tailAppParams("moses"), 0, 1000.0, Rng(42));
    Rng rngA(7), rngB(7);
    for (int i = 0; i < 50; i++) {
        AppStep sa = a.next(i * 2000, rngA);
        AppStep sb = b.next(i * 2000, rngB);
        EXPECT_EQ(sa.kind, sb.kind);
        EXPECT_EQ(sa.instrs, sb.instrs);
    }
}

TEST(TailLatencyApp, RejectsBadConfig)
{
    EXPECT_THROW(TailLatencyApp(tailAppParams("silo"), 0, 0.0, Rng(1)),
                 FatalError);
}

// --------------------------------------- Certified draws against libm

std::uint64_t
libmExponential(double u, double mean)
{
    return static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

/**
 * The reference AddressStream::draw: libm's pow for every skewed
 * working set, with no certified draw.
 */
class LibmStream
{
  public:
    LibmStream(LineAddr base, const std::vector<WorkingSet> &sets)
        : base_(base), sets_(sets)
    {
        LineAddr offset = 0;
        for (const WorkingSet &ws : sets_) {
            offsets_.push_back(offset);
            if (!ws.streaming) offset += ws.lines;
            total_ += ws.weight;
            cum_.push_back(total_);
        }
        cursor_ = offset;
    }

    LineAddr
    draw(Rng &rng)
    {
        double pick = rng.uniform() * total_;
        std::size_t idx = 0;
        while (idx + 1 < cum_.size() && pick >= cum_[idx]) idx++;
        const WorkingSet &ws = sets_[idx];
        if (ws.streaming) return base_ + cursor_++;
        if (ws.lines == 0) return base_ + offsets_[idx];
        if (ws.skew <= 0.0) return base_ + offsets_[idx] + rng.below(ws.lines);
        double u = rng.uniform();
        auto pos = static_cast<std::uint64_t>(
            static_cast<double>(ws.lines) * std::pow(u, 1.0 + ws.skew));
        if (pos >= ws.lines) pos = ws.lines - 1;
        return base_ + offsets_[idx] + pos;
    }

  private:
    LineAddr base_;
    std::vector<WorkingSet> sets_;
    std::vector<double> cum_;
    std::vector<LineAddr> offsets_;
    double total_ = 0.0;
    LineAddr cursor_ = 0;
};

constexpr int kDifferentialDraws = 1'000'000;

TEST(CertifiedDraws, SpecLikeAppsMatchLibm)
{
    for (std::size_t i = 0; i < specAppCatalog().size(); i++) {
        const SpecAppParams &params = specAppCatalog()[i];
        const auto id = static_cast<AppId>(i);
        SpecLikeApp app(params, id);
        LibmStream ref(appAddressBase(id), params.workingSets);
        Rng rng(100 + i), refRng(100 + i);
        int gapMismatches = 0, lineMismatches = 0;
        for (int d = 0; d < kDifferentialDraws; d++) {
            AppStep step = app.next(0, rng);
            if (step.instrs !=
                libmExponential(refRng.uniform(), 1000.0 / params.apki) + 1)
                gapMismatches++;
            if (step.access != ref.draw(refRng)) lineMismatches++;
        }
        EXPECT_EQ(gapMismatches, 0) << params.name;
        EXPECT_EQ(lineMismatches, 0) << params.name;
    }
}

TEST(CertifiedDraws, TailBenchAppsMatchLibm)
{
    // Drives each app through requests at one instruction per tick,
    // half-way changing the load, and replays its three streams with
    // libm: the per-access gaps and lines, and the arrival ticks its
    // idle steps wake at.
    for (std::size_t i = 0; i < tailAppCatalog().size(); i++) {
        const TailAppParams &params = tailAppCatalog()[i];
        const auto id = static_cast<AppId>(i);
        double arrivalMean = 2.0 * params.instrsPerRequest;
        TailLatencyApp app(params, id, arrivalMean, Rng(200 + i));
        LibmStream ref(appAddressBase(id), params.workingSets);
        Rng rng(300 + i), refRng(300 + i), refArrivals(200 + i);

        Tick refNext = libmExponential(refArrivals.uniform(), arrivalMean);
        std::uint64_t refDraws = 1;
        auto advance = [&]() {
            refNext += libmExponential(refArrivals.uniform(), arrivalMean) + 1;
            refDraws++;
        };

        Tick now = 0;
        int gapMismatches = 0, lineMismatches = 0, wakeMismatches = 0;
        int executes = 0, idles = 0;
        bool loadChanged = false;
        while (executes < kDifferentialDraws) {
            if (!loadChanged && executes == kDifferentialDraws / 2) {
                // Resample the pending arrival at a new mean, as a
                // load trace does; the reference first catches up
                // with the app's draws (one plus one per arrival).
                while (refDraws < 1 + app.requestsArrived()) advance();
                arrivalMean *= 0.75;
                app.setMeanInterarrival(arrivalMean, now);
                refNext = now +
                          libmExponential(refArrivals.uniform(), arrivalMean) +
                          1;
                loadChanged = true;
            }
            AppStep step = app.next(now, rng);
            if (step.kind == AppStep::Kind::Idle) {
                while (refNext < step.wakeTick) advance();
                if (refNext != step.wakeTick) wakeMismatches++;
                now = step.wakeTick;
                idles++;
                continue;
            }
            executes++;
            if (step.instrs !=
                libmExponential(refRng.uniform(), 1000.0 / params.apki) + 1)
                gapMismatches++;
            if (step.access != ref.draw(refRng)) lineMismatches++;
            now += step.instrs;
            app.onAccessComplete(now);
        }
        EXPECT_EQ(gapMismatches, 0) << params.name;
        EXPECT_EQ(lineMismatches, 0) << params.name;
        EXPECT_EQ(wakeMismatches, 0) << params.name;
        EXPECT_GT(idles, 100) << params.name;
        EXPECT_GT(app.requestsArrived(), 1000u) << params.name;
    }
}

// -------------------------------------------------------------- Mixes

TEST(Mixes, MakeMixShape)
{
    Rng rng(1);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);
    EXPECT_EQ(mix.vms.size(), 4u);
    for (const auto &vm : mix.vms) {
        EXPECT_EQ(vm.lcApps.size(), 1u);
        EXPECT_EQ(vm.lcApps[0], "xapian");
        EXPECT_EQ(vm.batchApps.size(), 4u);
    }
    EXPECT_EQ(mix.totalApps(), 20u);
}

TEST(Mixes, MixedLcCycles)
{
    Rng rng(1);
    auto names = allTailAppNames();
    WorkloadMix mix = makeMix(names, 4, 4, rng);
    EXPECT_EQ(mix.vms[0].lcApps[0], names[0]);
    EXPECT_EQ(mix.vms[3].lcApps[0], names[3]);
}

TEST(Mixes, DeterministicGivenSeed)
{
    Rng a(99), b(99);
    WorkloadMix ma = makeMix({"silo"}, 4, 4, a);
    WorkloadMix mb = makeMix({"silo"}, 4, 4, b);
    for (std::size_t v = 0; v < 4; v++)
        EXPECT_EQ(ma.vms[v].batchApps, mb.vms[v].batchApps);
}

TEST(Mixes, RegroupPreservesPopulation)
{
    Rng rng(5);
    WorkloadMix base = makeMix(allTailAppNames(), 4, 4, rng);
    for (std::uint32_t vms : {1u, 2u, 6u, 12u}) {
        WorkloadMix regrouped = regroupMix(base, vms);
        EXPECT_EQ(regrouped.vms.size(), vms);
        EXPECT_EQ(regrouped.totalApps(), base.totalApps());
        std::uint32_t lc = 0;
        for (const auto &vm : regrouped.vms)
            lc += static_cast<std::uint32_t>(vm.lcApps.size());
        EXPECT_EQ(lc, 4u);
    }
}

TEST(Mixes, AllTailAppNamesMatchesCatalog)
{
    EXPECT_EQ(allTailAppNames().size(), tailAppCatalog().size());
}

} // namespace
} // namespace jumanji
