/**
 * @file
 * Driver subsystem tests: the queue/pool plumbing, the cache blob
 * codecs, and the three orchestration guarantees — (1) parallel
 * output is byte-identical to serial whatever the worker count,
 * (2) the result cache hits on unchanged inputs and misses on any
 * config edit, (3) a job that throws fatal() fails alone.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/env.hh"
#include "src/driver/job.hh"
#include "src/driver/mpmc_queue.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/pool.hh"
#include "src/driver/result_cache.hh"
#include "src/driver/telemetry.hh"
#include "src/sim/json.hh"
#include "src/system/harness.hh"

namespace jumanji {
namespace {

using driver::CalibrationJob;
using driver::JobGraph;
using driver::JobOutcome;
using driver::Orchestrator;
using driver::ResultCache;
using driver::SweepJob;

SystemConfig
tinyConfig(std::uint64_t seed)
{
    // Paper topology, small banks + short windows (the test_system /
    // test_determinism idiom): fast, but still the real machine.
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.llc.setsPerBank = 32;
    cfg.capacityScale = 0.0625;
    cfg.epochTicks = 50000;
    cfg.warmupTicks = 100000;
    cfg.measureTicks = 200000;
    cfg.seed = seed;
    return cfg;
}

/** Fixed dummy calibration: jobs become one run per design, fast. */
LcCalibrationMap
dummyCalibrations(const WorkloadMix &mix)
{
    LcCalibrationMap calibrations;
    for (const auto &vm : mix.vms)
        for (const auto &name : vm.lcApps)
            calibrations[name] = LcCalibration{120.0, 900.0};
    return calibrations;
}

/** An 8-job graph over distinct seeds/mixes; pre-calibrated. */
JobGraph
eightJobGraph()
{
    JobGraph graph;
    for (std::uint32_t m = 0; m < 8; m++) {
        SweepJob job;
        job.label = "job" + std::to_string(m);
        job.config = tinyConfig(100 + m * 1000003ull);
        Rng rng(job.config.seed ^ 0x5eedull);
        job.mix = makeMix({"xapian", "silo"}, 2, 2, rng);
        job.designs = {LlcDesign::Adaptive};
        job.load = LoadLevel::High;
        job.selfCalibrate = false;
        job.calibrations = dummyCalibrations(job.mix);
        graph.add(std::move(job));
    }
    return graph;
}

std::vector<MixResult>
resultsOf(const std::vector<JobOutcome> &outcomes)
{
    std::vector<MixResult> results;
    for (const JobOutcome &out : outcomes) {
        EXPECT_TRUE(out.ok) << out.error;
        results.push_back(out.result);
    }
    return results;
}

TEST(MpmcQueue, DeliversInFifoOrderAndDrainsAfterClose)
{
    driver::MpmcQueue<int> q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.peakDepth(), 3u);
    q.close();
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(Pool, RunsEveryTaskExactlyOnceAcrossWorkers)
{
    driver::Pool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<int> ran{0};
    std::vector<std::uint32_t> seenWorker(64, 99);
    for (int i = 0; i < 64; i++)
        pool.submit([&ran, &seenWorker, i](driver::WorkerId w) {
            seenWorker[i] = w;
            ran.fetch_add(1);
        });
    pool.drain();
    EXPECT_EQ(ran.load(), 64);
    for (std::uint32_t w : seenWorker) EXPECT_LT(w, 4u);
}

TEST(Pool, WorkersActuallyRunConcurrently)
{
    // Rendezvous proof: four tasks each block until all four are
    // inside a task simultaneously. A pool that secretly serialized
    // tasks (the bug this guards against) could never reach four and
    // would hang — which the 10 s escape hatch turns into a failure.
    // This holds on any machine, including single-CPU CI runners:
    // concurrency is about overlapping lifetimes, not parallel
    // speedup.
    driver::Pool pool(4);
    std::mutex m;
    std::condition_variable all;
    int inside = 0;
    bool reached = true;
    for (int i = 0; i < 4; i++)
        pool.submit([&](driver::WorkerId) {
            std::unique_lock<std::mutex> lock(m);
            inside++;
            all.notify_all();
            if (!all.wait_for(lock, std::chrono::seconds(10),
                              [&] { return inside == 4; }))
                reached = false;
        });
    pool.drain();
    EXPECT_TRUE(reached);
    EXPECT_EQ(inside, 4);
}

TEST(ResultCacheBlob, MixResultSurvivesARoundTrip)
{
    SweepJob job;
    job.config = tinyConfig(7);
    Rng rng(7);
    job.mix = makeMix({"xapian"}, 2, 2, rng);
    MixResult original = ExperimentHarness::runCalibrated(
        job.config, job.mix, {LlcDesign::Adaptive}, LoadLevel::High,
        dummyCalibrations(job.mix));

    std::string blob = driver::serializeMixResult(original);
    auto restored = driver::deserializeMixResult(blob);
    ASSERT_TRUE(restored.has_value());

    Fingerprint a;
    Fingerprint b;
    fingerprintMix(a, original);
    fingerprintMix(b, *restored);
    EXPECT_EQ(a.value(), b.value());
}

TEST(ResultCacheBlob, CorruptionReadsAsMissNeverAsError)
{
    SweepJob job;
    job.config = tinyConfig(7);
    Rng rng(7);
    job.mix = makeMix({"xapian"}, 1, 1, rng);
    MixResult original = ExperimentHarness::runCalibrated(
        job.config, job.mix, {}, LoadLevel::High,
        dummyCalibrations(job.mix));
    std::string blob = driver::serializeMixResult(original);

    EXPECT_FALSE(driver::deserializeMixResult("").has_value());
    EXPECT_FALSE(driver::deserializeMixResult("garbage").has_value());
    // Truncation at any point must fail cleanly, not crash.
    for (std::size_t cut : {std::size_t(3), blob.size() / 2,
                            blob.size() - 1})
        EXPECT_FALSE(driver::deserializeMixResult(blob.substr(0, cut))
                         .has_value());
    // Trailing junk is also rejected: the blob must parse exactly.
    EXPECT_FALSE(driver::deserializeMixResult(blob + "x").has_value());
}

TEST(ResultCacheKey, ConfigEditsChangeTheKey)
{
    JobGraph graph = eightJobGraph();
    const SweepJob &base = graph.job(0);
    std::string key = driver::jobKey(base);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key, driver::jobKey(base)) << "key must be stable";

    SweepJob edited = base;
    edited.config.seed += 1;
    EXPECT_NE(driver::jobKey(edited), key);

    edited = base;
    edited.config.llc.ways += 1;
    EXPECT_NE(driver::jobKey(edited), key);

    edited = base;
    edited.config.controller.panicFrac += 0.01;
    EXPECT_NE(driver::jobKey(edited), key);

    edited = base;
    edited.designs.push_back(LlcDesign::Jumanji);
    EXPECT_NE(driver::jobKey(edited), key);

    edited = base;
    edited.calibrations.begin()->second.deadline += 1.0;
    EXPECT_NE(driver::jobKey(edited), key)
        << "pre-calibrated jobs must key on calibration values";

    // The label is presentation, not an input.
    edited = base;
    edited.label = "renamed";
    EXPECT_EQ(driver::jobKey(edited), key);
}

TEST(Orchestrator, EightJobsAreByteIdenticalAcrossWorkerCounts)
{
    Orchestrator::Options serialOpts;
    serialOpts.jobs = 1;
    Orchestrator serial(serialOpts);
    std::vector<MixResult> serialResults =
        resultsOf(serial.run(eightJobGraph()));

    Orchestrator::Options parallelOpts;
    parallelOpts.jobs = 4;
    Orchestrator parallel(parallelOpts);
    std::vector<MixResult> parallelResults =
        resultsOf(parallel.run(eightJobGraph()));

    // The full fingerprint folds every app counter, every registry
    // leaf, and the epoch timeline of every run: equality here is
    // byte-identity of the whole observable surface.
    EXPECT_EQ(fingerprintResults(serialResults),
              fingerprintResults(parallelResults));

    // And the merged stat dumps match leaf for leaf, in order.
    ASSERT_EQ(serialResults.size(), parallelResults.size());
    for (std::size_t m = 0; m < serialResults.size(); m++) {
        const auto &a = serialResults[m].designs;
        const auto &b = parallelResults[m].designs;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t d = 0; d < a.size(); d++) {
            ASSERT_EQ(a[d].run.statDump.size(),
                      b[d].run.statDump.size());
            for (std::size_t s = 0; s < a[d].run.statDump.size(); s++) {
                EXPECT_EQ(a[d].run.statDump[s].name,
                          b[d].run.statDump[s].name);
                EXPECT_EQ(a[d].run.statDump[s].value,
                          b[d].run.statDump[s].value);
            }
        }
    }

    EXPECT_EQ(serial.stats().value("driver.jobs.simulated"), 8.0);
    EXPECT_EQ(parallel.stats().value("driver.jobs.simulated"), 8.0);
    EXPECT_EQ(parallel.stats().value("driver.workers"), 4.0);
    double perWorker = 0.0;
    for (int w = 0; w < 4; w++)
        perWorker += parallel.stats().value(
            "driver.worker" + statIndexName(w) + ".jobs");
    EXPECT_EQ(perWorker, 8.0);
}

TEST(Orchestrator, CacheHitsOnSecondRunAndMissesAfterConfigEdit)
{
    std::string dir = testing::TempDir() + "jumanji_cache_test";
    std::filesystem::remove_all(dir);

    Orchestrator::Options opts;
    opts.jobs = 2;
    opts.cacheDir = dir;
    opts.summaryPath = dir + "/summary.txt";

    std::uint64_t coldFp = 0;
    {
        Orchestrator cold(opts);
        std::vector<JobOutcome> outcomes = cold.run(eightJobGraph());
        for (const JobOutcome &out : outcomes)
            EXPECT_FALSE(out.fromCache);
        coldFp = fingerprintResults(resultsOf(outcomes));
        EXPECT_EQ(cold.stats().value("driver.jobs.simulated"), 8.0);
        EXPECT_EQ(cold.stats().value("driver.jobs.cached"), 0.0);
    }
    {
        Orchestrator warm(opts);
        std::vector<JobOutcome> outcomes = warm.run(eightJobGraph());
        for (const JobOutcome &out : outcomes)
            EXPECT_TRUE(out.fromCache);
        EXPECT_EQ(fingerprintResults(resultsOf(outcomes)), coldFp)
            << "cached results must be byte-identical to simulated";
        EXPECT_EQ(warm.stats().value("driver.jobs.simulated"), 0.0);
        EXPECT_EQ(warm.stats().value("driver.jobs.cached"), 8.0);
    }
    {
        // Any config edit changes the key: everything re-simulates.
        JobGraph edited;
        JobGraph source = eightJobGraph();
        for (const SweepJob &job : source.jobs()) {
            SweepJob copy = job;
            copy.config.epochTicks += 1000;
            edited.add(std::move(copy));
        }
        Orchestrator invalidated(opts);
        std::vector<JobOutcome> outcomes = invalidated.run(edited);
        for (const JobOutcome &out : outcomes) {
            EXPECT_TRUE(out.ok) << out.error;
            EXPECT_FALSE(out.fromCache);
        }
        EXPECT_EQ(
            invalidated.stats().value("driver.jobs.simulated"), 8.0);
    }

    // The summary file recorded all three phases, in order. The
    // counters are exact; the trailing wall= field is host time, so
    // only its presence is checked.
    const auto expectSummary = [](const std::string &line,
                                  const std::string &prefix) {
        EXPECT_EQ(line.substr(0, prefix.size()), prefix) << line;
        EXPECT_NE(line.find(" wall="), std::string::npos) << line;
    };
    std::ifstream summary(opts.summaryPath);
    ASSERT_TRUE(summary.good());
    std::string line;
    std::getline(summary, line);
    expectSummary(line, "jobs=8 simulated=8 cached=0 failed=0 "
                        "workers=2 hitrate=0.00 wall=");
    std::getline(summary, line);
    expectSummary(line, "jobs=8 simulated=0 cached=8 failed=0 "
                        "workers=2 hitrate=1.00 wall=");
    std::getline(summary, line);
    expectSummary(line, "jobs=8 simulated=8 cached=0 failed=0 "
                        "workers=2 hitrate=0.00 wall=");

    std::filesystem::remove_all(dir);
}

TEST(Orchestrator, CalibrationsAreCachedAcrossInstances)
{
    std::string dir = testing::TempDir() + "jumanji_calib_cache_test";
    std::filesystem::remove_all(dir);

    Orchestrator::Options opts;
    opts.jobs = 2;
    opts.cacheDir = dir;

    std::vector<CalibrationJob> requests = {
        {"xapian", tinyConfig(42)}, {"silo", tinyConfig(42)}};

    Orchestrator cold(opts);
    std::vector<LcCalibration> first = cold.runCalibrations(requests);
    EXPECT_EQ(cold.stats().value("driver.calibrations.computed"), 2.0);

    Orchestrator warm(opts);
    std::vector<LcCalibration> second = warm.runCalibrations(requests);
    EXPECT_EQ(warm.stats().value("driver.calibrations.computed"), 0.0);
    EXPECT_EQ(warm.stats().value("driver.calibrations.cached"), 2.0);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(first[i].serviceCycles, second[i].serviceCycles);
        EXPECT_EQ(first[i].deadline, second[i].deadline);
    }

    std::filesystem::remove_all(dir);
}

TEST(Orchestrator, FatalInOneJobFailsOnlyThatJob)
{
    JobGraph graph = eightJobGraph();
    // Job 3's mix names an app that does not exist: its System
    // construction throws FatalError on a worker thread.
    {
        SweepJob poison = graph.job(3);
        poison.mix.vms[0].lcApps[0] = "no-such-app";
        poison.calibrations = dummyCalibrations(poison.mix);
        JobGraph rebuilt;
        for (driver::JobId id = 0; id < graph.size(); id++)
            rebuilt.add(id == 3 ? poison : graph.job(id));
        graph = std::move(rebuilt);
    }

    Orchestrator::Options opts;
    opts.jobs = 4;
    Orchestrator orch(opts);
    std::vector<JobOutcome> outcomes = orch.run(graph);
    ASSERT_EQ(outcomes.size(), 8u);
    for (driver::JobId id = 0; id < outcomes.size(); id++) {
        if (id == 3) {
            EXPECT_FALSE(outcomes[id].ok);
            EXPECT_NE(outcomes[id].error.find("no-such-app"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(outcomes[id].ok) << outcomes[id].error;
        }
    }
    EXPECT_EQ(orch.stats().value("driver.jobs.failed"), 1.0);
    EXPECT_EQ(orch.stats().value("driver.jobs.simulated"), 7.0);
}

TEST(Telemetry, OptionsComeFromEnvAndGarbageFallsBackOff)
{
    ::setenv("JUMANJI_EVENTS", "/tmp/jumanji_ev.jsonl", 1);
    ::setenv("JUMANJI_HEARTBEAT_MS", "250", 1);
    driver::TelemetryOptions on = driver::telemetryOptionsFromEnv();
    EXPECT_EQ(on.eventsPath, "/tmp/jumanji_ev.jsonl");
    EXPECT_EQ(on.heartbeatMs, 250u);

    // Garbage and negative periods warn (once) and keep the
    // heartbeat off rather than beating at a nonsense rate.
    ::setenv("JUMANJI_HEARTBEAT_MS", "soon", 1);
    EXPECT_EQ(driver::telemetryOptionsFromEnv().heartbeatMs, 0u);
    ::setenv("JUMANJI_HEARTBEAT_MS", "-5", 1);
    EXPECT_EQ(driver::telemetryOptionsFromEnv().heartbeatMs, 0u);

    ::unsetenv("JUMANJI_EVENTS");
    ::unsetenv("JUMANJI_HEARTBEAT_MS");
    driver::TelemetryOptions off = driver::telemetryOptionsFromEnv();
    EXPECT_TRUE(off.eventsPath.empty());
    EXPECT_EQ(off.heartbeatMs, 0u);

    // The worker-count knob follows the same policy: a malformed
    // value warns once and runs the fallback, never a prefix of it.
    ::setenv("JUMANJI_JOBS", "4", 1);
    EXPECT_EQ(driver::jobCountFromEnv(1), 4u);
    for (const char *bad : {"4x", "abc", "0", "-3", "", "1e3"}) {
        ::setenv("JUMANJI_JOBS", bad, 1);
        EXPECT_EQ(driver::jobCountFromEnv(1), 1u) << "value: " << bad;
    }
    ::unsetenv("JUMANJI_JOBS");
    EXPECT_EQ(driver::jobCountFromEnv(2), 2u);
}

/** Parses a JSONL event log into one JsonValue per line. */
std::vector<JsonValue>
readEvents(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::vector<JsonValue> events;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            events.push_back(JsonValue::parse(line, path));
    return events;
}

TEST(Telemetry, EventLogSchemaIsStableAcrossWorkerCounts)
{
    std::string dir = testing::TempDir() + "jumanji_events_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const auto runWith = [](std::uint32_t workers,
                            const std::string &path) {
        Orchestrator::Options opts;
        opts.jobs = workers;
        opts.telemetry.eventsPath = path;
        Orchestrator orch(opts);
        resultsOf(orch.run(eightJobGraph()));
    };
    runWith(1, dir + "/serial.jsonl");
    runWith(4, dir + "/parallel.jsonl");

    for (std::uint32_t workers : {1u, 4u}) {
        const std::string path =
            dir + (workers == 1 ? "/serial.jsonl" : "/parallel.jsonl");
        const std::vector<JsonValue> events = readEvents(path);
        // 8 job events plus the closing run event, and — because job
        // events are written after the pool drains, in JobId order —
        // the log order is deterministic for any worker count.
        ASSERT_EQ(events.size(), 9u) << path;
        for (driver::JobId id = 0; id < 8; id++) {
            const JsonValue &e = events[id];
            EXPECT_EQ(e.find("type")->asString("type"), "job");
            EXPECT_EQ(e.find("id")->asU64("id"), id);
            EXPECT_EQ(e.find("label")->asString("label"),
                      "job" + std::to_string(id));
            EXPECT_LT(e.find("worker")->asU64("worker"), workers);
            EXPECT_FALSE(e.find("cached")->asBool("cached"));
            EXPECT_TRUE(e.find("ok")->asBool("ok"));
            EXPECT_GE(e.find("queue_wait_s")->asDouble("queue_wait_s"),
                      0.0);
            EXPECT_GE(e.find("probe_s")->asDouble("probe_s"), 0.0);
            EXPECT_GT(e.find("simulate_s")->asDouble("simulate_s"),
                      0.0);
            EXPECT_GT(e.find("accesses")->asU64("accesses"), 0u);
        }
        const JsonValue &run = events[8];
        EXPECT_EQ(run.find("type")->asString("type"), "run");
        EXPECT_EQ(run.find("kind")->asString("kind"), "jobs");
        EXPECT_EQ(run.find("jobs")->asU64("jobs"), 8u);
        EXPECT_EQ(run.find("simulated")->asU64("simulated"), 8u);
        EXPECT_EQ(run.find("cached")->asU64("cached"), 0u);
        EXPECT_EQ(run.find("failed")->asU64("failed"), 0u);
        EXPECT_EQ(run.find("workers")->asU64("workers"), workers);
        EXPECT_GT(run.find("wall_s")->asDouble("wall_s"), 0.0);
        EXPECT_GE(run.find("merge_s")->asDouble("merge_s"), 0.0);
    }

    std::filesystem::remove_all(dir);
}

TEST(Orchestrator, TracedRunMergesJobTracesInSubmissionOrder)
{
    // Two traced parallel runs of the same graph must serialize
    // identical *simulation* lanes; only the driver schedule lane may
    // differ. With jobs=1 the schedule is deterministic too, so the
    // whole byte stream must match.
    auto traceBytes = [](std::uint32_t jobs) {
        Tracer tracer;
        Orchestrator::Options opts;
        opts.jobs = jobs;
        opts.tracer = &tracer;
        Orchestrator orch(opts);
        JobGraph graph;
        for (std::uint32_t m = 0; m < 3; m++) {
            SweepJob job;
            job.label = "job" + std::to_string(m);
            job.config = tinyConfig(500 + m);
            job.config.traceLabel = job.label;
            Rng rng(job.config.seed);
            job.mix = makeMix({"xapian"}, 1, 1, rng);
            job.selfCalibrate = false;
            job.calibrations = dummyCalibrations(job.mix);
            graph.add(std::move(job));
        }
        std::vector<JobOutcome> outcomes = orch.run(graph);
        for (const JobOutcome &out : outcomes)
            EXPECT_TRUE(out.ok) << out.error;
        std::ostringstream os;
        tracer.writeTo(os);
        return os.str();
    };

    std::string serialTrace = traceBytes(1);
    EXPECT_EQ(serialTrace, traceBytes(1));
    EXPECT_GT(serialTrace.size(), 100u);
    EXPECT_NE(serialTrace.find("driver workers"), std::string::npos);
}

} // namespace
} // namespace jumanji
