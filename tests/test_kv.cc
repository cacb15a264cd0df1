/**
 * @file
 * KV-serving workload tests: the YCSB Zipfian sampler's pinned
 * head probabilities and process-wide zeta memoization, load-trace
 * boundary/interpolation semantics, the JUMANJI_KV_LOAD_SCALE env
 * knob, a KV System smoke run with per-phase stats, and byte-
 * identity of a KV scenario sweep across worker counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/driver/env.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/system/harness.hh"
#include "src/system/system.hh"
#include "src/workloads/mixes.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/kv/load_trace.hh"
#include "src/workloads/kv/zipfian.hh"

namespace jumanji {
namespace {

TEST(Zipfian, PinnedZetaAndHeadProbabilities)
{
    // zeta(1000, 0.99) = 7.728953... — an analytic pin, not a
    // regression capture, so a formula typo cannot re-pin itself.
    EXPECT_NEAR(zetaCached(1000, 0.99), 7.7289532, 1e-6);

    ZipfianSampler zipf(1000, 0.99);
    EXPECT_EQ(zipf.items(), 1000u);
    EXPECT_NEAR(zipf.zetan(), 7.7289532, 1e-6);

    // Head probabilities: p(0) = 1/zeta, p(1) = 0.5^theta/zeta.
    Rng rng(42);
    const int kDraws = 200000;
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < kDraws; i++) counts[zipf.draw(rng)]++;

    double p0 = counts[0] / static_cast<double>(kDraws);
    double p1 = counts[1] / static_cast<double>(kDraws);
    EXPECT_NEAR(p0, 0.12938, 0.005);
    EXPECT_NEAR(p1, 0.06514, 0.005);
    // Monotone head, and a real tail beyond the special-cased ranks.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_GT(counts.size(), 100u);
}

TEST(Zipfian, SameSeedSameSequenceAcrossInstances)
{
    ZipfianSampler a(4096, 0.99), b(4096, 0.99);
    Rng ra(7), rb(7), rc(8);
    bool anyDiff = false;
    for (int i = 0; i < 1000; i++) {
        std::uint64_t va = a.draw(ra);
        EXPECT_EQ(va, b.draw(rb));
        anyDiff = anyDiff || va != a.draw(rc);
    }
    EXPECT_TRUE(anyDiff) << "seed 8 replayed seed 7's sequence";
}

TEST(Zipfian, ScramblingSpreadsAndRotationMigratesTheHotKey)
{
    auto hottest = [](auto &sampler, std::uint64_t seed) {
        Rng rng(seed);
        std::map<std::uint64_t, int> counts;
        for (int i = 0; i < 20000; i++) counts[sampler.draw(rng)]++;
        std::uint64_t best = 0;
        int bestCount = -1;
        for (const auto &[key, count] : counts)
            if (count > bestCount) best = key, bestCount = count;
        return best;
    };

    ZipfianSampler plain(1000, 0.99);
    EXPECT_EQ(hottest(plain, 3), 0u) << "rank 0 must dominate";

    // Scrambling moves the popular mass to fnv1a64(rank)%items —
    // away from the low ids — without changing the shape.
    ScrambledZipfianSampler scrambled(1000, 0.99);
    EXPECT_EQ(hottest(scrambled, 3), fnv1a64(0) % 1000);
    EXPECT_NE(fnv1a64(0) % 1000, 0u);

    // Rotation re-hashes under an offset: same shape, new hot key —
    // the hot-key migration the "hotkeys" trace applies mid-run.
    scrambled.setRotation(12345);
    EXPECT_EQ(hottest(scrambled, 3), fnv1a64(12345) % 1000);
    EXPECT_NE(fnv1a64(12345) % 1000, fnv1a64(0) % 1000);
}

TEST(Zipfian, ZetaComputationsAreMemoizedProcessWide)
{
    // A (n, theta) pair no other test uses, so the first sampler
    // pays exactly two cold sums (zeta(n) and zeta(2)) and every
    // later instance pays zero.
    const double theta = 0.77725;
    std::uint64_t before = zetaComputations();
    ZipfianSampler first(5000, theta);
    std::uint64_t afterFirst = zetaComputations();
    EXPECT_EQ(afterFirst - before, 2u);
    ZipfianSampler second(5000, theta);
    ScrambledZipfianSampler third(5000, theta);
    EXPECT_EQ(zetaComputations(), afterFirst);
}

TEST(LoadTrace, BoundaryTicksBelongToTheStartingPhase)
{
    LoadTrace trace;
    trace.addPhase("a", 100, 1.0, 1.0);
    trace.addPhase("b", 50, 2.0, 2.0);
    EXPECT_EQ(trace.phaseLabelAt(0), "a");
    EXPECT_EQ(trace.phaseLabelAt(99), "a");
    // The half-open rule: tick 100 starts "b", not ends "a".
    EXPECT_EQ(trace.phaseLabelAt(100), "b");
    EXPECT_EQ(trace.phaseLabelAt(149), "b");
    // Past the horizon clamps to the last phase.
    EXPECT_EQ(trace.phaseLabelAt(100000), "b");
    EXPECT_EQ(trace.horizon(), 150u);
    EXPECT_EQ(trace.phaseLabels(),
              (std::vector<std::string>{"a", "b"}));
}

TEST(LoadTrace, MultiplierInterpolatesLinearlyWithinAPhase)
{
    LoadTrace trace;
    trace.addPhase("ramp", 100, 1.0, 3.0);
    EXPECT_NEAR(trace.multiplierAt(0), 1.0, 1e-12);
    EXPECT_NEAR(trace.multiplierAt(50), 2.0, 1e-12);
    EXPECT_NEAR(trace.multiplierAt(75), 2.5, 1e-12);
    // Clamped to the final value past the horizon.
    EXPECT_NEAR(trace.multiplierAt(500), 3.0, 1e-12);
}

TEST(LoadTrace, PresetsCoverTheRunAndTheSpikeHitsItsPeak)
{
    const Tick warmup = 1000, measure = 2000;
    for (const std::string &name : allLoadTraceNames()) {
        LoadTrace trace =
            loadTraceFromName(name, warmup, measure, 4.0);
        EXPECT_FALSE(trace.empty()) << name;
        EXPECT_GE(trace.horizon(), warmup + measure) << name;
    }

    // flashcrowd: before | spike (middle 30% of measure, at peak) |
    // after — the labels the apps.kv.* stats and the
    // kv_flash_crowd.json columns are built from.
    LoadTrace flash = loadTraceFromName("flashcrowd", warmup, measure, 4.0);
    EXPECT_EQ(flash.phaseLabels(),
              (std::vector<std::string>{"before", "spike", "after"}));
    Tick spikeStart = warmup + (3 * measure) / 10;
    EXPECT_EQ(flash.phaseLabelAt(spikeStart), "spike");
    EXPECT_NEAR(flash.multiplierAt(spikeStart + 100), 4.0, 1e-12);
    EXPECT_EQ(flash.phaseLabelAt(spikeStart - 1), "before");

    EXPECT_THROW(loadTraceFromName("nope", warmup, measure, 4.0),
                 FatalError);
}

TEST(KvEnv, LoadScaleFromEnvValidatesAndFallsBack)
{
    // In-process env edits: this is the only test touching the
    // variable, and it restores "unset" on every path.
    struct EnvGuard
    {
        ~EnvGuard() { unsetenv("JUMANJI_KV_LOAD_SCALE"); }
    } guard;

    unsetenv("JUMANJI_KV_LOAD_SCALE");
    EXPECT_EQ(driver::kvLoadScaleFromEnv(1.0), 1.0);

    setenv("JUMANJI_KV_LOAD_SCALE", "2.5", 1);
    EXPECT_EQ(driver::kvLoadScaleFromEnv(1.0), 2.5);
    setenv("JUMANJI_KV_LOAD_SCALE", "0.25", 1);
    EXPECT_EQ(driver::kvLoadScaleFromEnv(1.0), 0.25);

    // Out-of-range and garbage fall back (warn-once is logging).
    for (const char *bad : {"0", "-1", "2000", "junk", "1.5x", ""}) {
        setenv("JUMANJI_KV_LOAD_SCALE", bad, 1);
        EXPECT_EQ(driver::kvLoadScaleFromEnv(1.0), 1.0)
            << "value: " << bad;
    }
}

/** testTiny-scale benchScaled config (see test_system.cc). */
SystemConfig
kvConfig()
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 200000;
    cfg.measureTicks = 300000;
    cfg.seed = 7;
    cfg.kv.trace = "flashcrowd";
    cfg.kv.peakMultiplier = 1.8;
    return cfg;
}

TEST(KvSystem, ServesRequestsAndRegistersPhaseStats)
{
    Rng rng(7);
    System system(kvConfig(), makeMix({"kv_small"}, 4, 4, rng));
    RunResult run = system.run();

    ASSERT_EQ(system.kvApps().size(), 4u);
    for (const KvServerApp *app : system.kvApps()) {
        EXPECT_GT(app->requestsCompleted(), 0u);
        EXPECT_EQ(app->kvParams().name, "kv_small");
    }

    // The per-phase formulas exist exactly for the trace's labels
    // and saw traffic in every phase.
    for (const char *phase : {"before", "spike", "after"}) {
        std::string prefix = std::string("apps.kv.") + phase;
        EXPECT_GT(run.stat(prefix + ".count"), 0.0) << phase;
        EXPECT_GT(run.stat(prefix + ".p95"), 0.0) << phase;
        EXPECT_GE(run.stat(prefix + ".p99"),
                  run.stat(prefix + ".p95"))
            << phase;
    }
    // The spike raises the tail against the same deadline.
    EXPECT_GT(run.stat("apps.kv.spike.p95"),
              run.stat("apps.kv.before.p95"));
}

TEST(KvSystem, NonKvMixRegistersNoKvStats)
{
    // apps.kv.* leaves are folded into the determinism fingerprint,
    // so they must not exist for non-KV mixes (the selfcheck pin of
    // every pre-KV scenario depends on it).
    SystemConfig cfg = kvConfig();
    Rng rng(7);
    System system(cfg, makeMix({"xapian"}, 4, 4, rng));
    RunResult run = system.run();
    for (const StatValue &sv : run.statDump)
        EXPECT_EQ(sv.name.rfind("apps.kv.", 0), std::string::npos)
            << sv.name;
}

TEST(KvSweep, ByteIdenticalAcrossWorkerCounts)
{
    // The shipped flash-crowd scenario, shrunk to test scale and
    // pinned (no env coupling), run with 1 and with 4 workers: the
    // rendered table and the full stats fingerprint must match.
    driver::ExperimentSpec spec = driver::ExperimentSpec::fromFile(
        std::string(JUMANJI_SOURCE_DIR) +
        "/examples/scenarios/kv_flash_crowd.json");
    spec.seed.fromEnv = false;
    spec.mixes.fromEnv = false;
    spec.mixes.count = 2;
    spec.overrides = JsonValue::parse(
        "{\"kv\": {\"trace\": \"flashcrowd\", \"peakMultiplier\": "
        "1.8},\n"
        " \"llc\": {\"setsPerBank\": 32}, \"capacityScale\": 0.0625,\n"
        " \"epochTicks\": 50000, \"warmupTicks\": 200000,\n"
        " \"measureTicks\": 300000}",
        "test-overrides");

    auto runWith = [&](std::uint32_t jobs) {
        driver::Orchestrator::Options opts;
        opts.jobs = jobs;
        driver::Orchestrator orch(opts);
        driver::SpecRun run = driver::runSpec(spec, orch);
        return std::make_pair(driver::renderSpec(spec, run),
                              fingerprintResults(run.results));
    };
    auto [table1, fp1] = runWith(1);
    auto [table4, fp4] = runWith(4);
    EXPECT_EQ(table1, table4);
    EXPECT_EQ(fp1, fp4);
    EXPECT_NE(table1.find("before p95"), std::string::npos);
}

} // namespace
} // namespace jumanji
