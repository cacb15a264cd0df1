/**
 * @file
 * jumanji_perf: the repository benchmark. Run it through
 * bench/perf/run.sh, which builds it and runs it from the repository
 * root (workload specs and goldens are read from bench/perf/).
 *
 *   jumanji_perf --workload W [--seed N] [--seconds S] [--trace 0|1]
 *                [--trace-out FILE]
 *       One run of one workload. Prints every metric as
 *       "metric workload value unit", then, as the last line, one
 *       JSON object {"correct", "attempted", "failed", "metrics"}.
 *       --trace 0 reports the end-to-end metrics, --trace 1 the
 *       per-layer ones (README.md has both catalogs).
 *   jumanji_perf --summarize DIR
 *       Reads DIR/<workload>.jsonl (the result lines of several runs)
 *       and prints each metric's median, min and max per workload.
 *   jumanji_perf --self-test
 *       Checks the statistics helpers on fixed inputs, and that the
 *       hand-driven traced run reproduces the orchestrator's digests
 *       on a tiny job.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/perf/perf.hh"
#include "src/sim/logging.hh"

using namespace jumanji;
using namespace jumanji::perf;

namespace {

/**
 * A run sets up at least this many times and for at least this many
 * host seconds; setup_s is the median. Set-up takes 0.06-0.4 s, so the
 * cheap workloads get more samples.
 */
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSec = 1.0;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    std::string traceOut;
};

/** Orchestrator event log of a traced run, inside the build tree. */
std::string
eventsPath(const Workload &workload)
{
    return "build-perf/perf-out/events-" + workload.name + ".jsonl";
}

/** Prints the metric lines and the final JSON result line. */
void
report(const std::string &workload, const std::vector<Metric> &metrics,
       const CheckTally &tally)
{
    JsonValue values = JsonValue::makeObject();
    for (const Metric &m : metrics) {
        std::printf("%s %s %.9g %s\n", m.name.c_str(), workload.c_str(),
                    m.value, m.unit.c_str());
        JsonValue v = JsonValue::makeObject();
        v.set("value", JsonValue::makeNumber(m.value));
        v.set("unit", JsonValue::makeString(m.unit));
        values.set(m.name, std::move(v));
    }
    JsonValue result = JsonValue::makeObject();
    result.set("correct", JsonValue::makeBool(tally.failed() == 0));
    result.set("attempted", JsonValue::makeU64(tally.attempted()));
    result.set("failed", JsonValue::makeU64(tally.failed()));
    result.set("metrics", std::move(values));
    std::printf("%s\n", result.dump(-1).c_str());
}

/** Queue wait and busy time of the jobs in an orchestrator event log. */
struct JobEvents
{
    double queueWaitSec = 0.0;
    double busySec = 0.0;
    std::size_t jobs = 0;
};

JobEvents
readJobEvents(const std::string &path)
{
    std::ifstream in(path);
    if (!in) fatal("cannot read " + path);
    JobEvents events;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        JsonValue e = JsonValue::parse(line, path);
        const JsonValue *type = e.find("type");
        if (type == nullptr || type->asString("type") != "job") continue;
        events.queueWaitSec +=
            e.find("queue_wait_s")->asDouble("queue_wait_s");
        events.busySec += e.find("simulate_s")->asDouble("simulate_s");
        events.jobs++;
    }
    if (events.jobs == 0) fatal(path + ": no job events");
    return events;
}

/**
 * The per-layer metrics of --trace 1 (catalog in README.md), from the
 * set-up phases, the untraced reference pass (its results, wall time
 * and orchestrator event log), a traced pass and the probes.
 */
std::vector<Metric>
layerMetrics(const Options &opts, const Workload &workload,
             const Prepared &prep, const std::vector<MixResult> &reference,
             double referenceWall, const std::vector<double> &expand,
             const std::vector<double> &calibrate, CheckTally &tally)
{
    const driver::SpecPlan &plan = prep.plan;
    const JobEvents events =
        readJobEvents(eventsPath(workload));

    LayerCounts counts;
    for (driver::JobId id = 0; id < reference.size(); id++)
        for (const DesignResult &d : reference[id].designs)
            counts.add(d.run, plan.graph.job(id).config.llc.banks);

    const TracedPass traced = runTracedPass(plan);
    for (driver::JobId id = 0; id < reference.size(); id++) {
        const auto &designs = reference[id].designs;
        bool same = traced.digests[id].size() == designs.size();
        for (std::size_t k = 0; same && k < designs.size(); k++)
            same = traced.digests[id][k] == runDigest(designs[k].run);
        tally.check(same, plan.graph.job(id).label +
                              ": traced digest differs from the "
                              "untraced run");
    }
    if (!opts.traceOut.empty()) writeSpans(traced.spans, opts.traceOut);

    // Self time of each span name: its duration minus the time the
    // profiler charged to sim.epoch.repartition inside it.
    const Span &root = traced.spans.front();
    const double tracedWall = root.end - root.start;
    std::map<std::string, double> self;
    std::vector<double> runs;
    double runSec = 0.0;
    double covered = 0.0;
    for (const Span &s : traced.spans) {
        const double dur = s.end - s.start;
        self[s.name] += dur - s.repartitionSec;
        if (s.name == "run") {
            runs.push_back(dur);
            runSec += dur;
        }
        if (s.parent >= 0 &&
            traced.spans[static_cast<std::size_t>(s.parent)].name == "run")
            covered += dur;
    }

    const Probes probes = runProbes(plan.graph.job(0), opts.seed);
    const double accesses = counts.hits + counts.misses;
    // Two events and two core resumes per LLC access (issue, then
    // arrival at the bank; the resumes include app.next, planAccess
    // and accessArrived), plus the runtime, System build and collect.
    const double explained =
        accesses * 2.0 * (probes.eventNs + probes.resumeNs) * 1e-9 +
        root.repartitionSec + self["system.build"] + self["system.collect"];

    std::vector<Metric> m = {
        {"driver.expand_s", median(expand), "s"},
        {"driver.calibrate_s", median(calibrate), "s"},
        {"driver.queue_wait_s",
         events.queueWaitSec / static_cast<double>(events.jobs), "s"},
        {"driver.worker_busy_frac",
         events.busySec / (referenceWall * static_cast<double>(workload.jobs)),
         "ratio"},
        {"driver.jobs", static_cast<double>(plan.graph.size()), "count"},
        {"system.build_s", self["system.build"], "s"},
        {"system.collect_s", self["system.collect"], "s"},
        {"system.run_p50_s", median(runs), "s"},
        {"system.runs", static_cast<double>(runs.size()), "count"},
        {"sim.warmup_s", self["sim.warmup"], "s"},
        {"sim.measure_s", self["sim.measure"], "s"},
        {"sim.event_queue.ns_per_event", probes.eventNs, "ns"},
        {"sim.statreg.snapshot_us", probes.snapshotUs, "us"},
        {"cpu.llc_accesses", counts.coreLlcAccesses, "count"},
        {"cpu.instrs", counts.instrs, "count"},
        {"cpu.stall_cycles", counts.stallCycles, "cycles"},
        {"cpu.core.resume_ns", probes.resumeNs, "ns"},
        {"cpu.mem_path.plan_ns", probes.planNs, "ns"},
        {"cpu.mem_path.access_ns", probes.accessNs, "ns"},
        {"cache.hits", counts.hits, "count"},
        {"cache.misses", counts.misses, "count"},
        {"cache.hit_ratio", counts.hits / accesses, "ratio"},
        {"cache.queue_cycles", counts.bankQueueCycles, "cycles"},
        {"cache.bank.access_ns", probes.bankNs, "ns"},
        {"dnuca.vtb.lookup_ns", probes.vtbNs, "ns"},
        {"dnuca.vtb.installs", counts.vtbInstalls, "count"},
        {"dnuca.coherence_lines", counts.coherenceLines, "count"},
        {"dnuca.umon.access_ns", probes.umonNs, "ns"},
        {"dnuca.umon.miss_curve_us", probes.missCurveUs, "us"},
        {"noc.hops", counts.nocHops, "count"},
        {"noc.hops_per_access", counts.nocHops / accesses, "ratio"},
        {"noc.hops_ns", probes.hopsNs, "ns"},
        {"mem.accesses", counts.memAccesses, "count"},
        {"mem.queue_cycles", counts.memQueueCycles, "cycles"},
        {"mem.access_ns", probes.memNs, "ns"},
        {"core.reconfigurations", counts.reconfigurations, "count"},
        {"core.repartition_s", root.repartitionSec, "s"},
    };
    for (const auto &[design, us] : probes.reconfigureUs)
        m.push_back({"core.reconfigure_us." + design, us, "us"});
    m.push_back({"workloads.lc_requests", counts.lcRequests, "count"});
    m.push_back({"workloads.next_ns.batch", probes.nextBatchNs, "ns"});
    m.push_back({"workloads.next_ns.lc", probes.nextLcNs, "ns"});
    m.push_back({"ledger.explained_frac", explained / runSec, "ratio"});
    m.push_back({"trace.overhead_frac", tracedWall / events.busySec - 1.0,
                 "ratio"});
    m.push_back({"trace.span_coverage_frac", covered / tracedWall, "ratio"});
    return m;
}

/** One run of one workload (the benchmark's contract). */
int
runWorkload(const Options &opts)
{
    const Workload &workload = findWorkload(opts.workload);
    CheckTally tally;

    driver::Orchestrator::Options orchOpts;
    orchOpts.jobs = workload.jobs;
    if (opts.trace) {
        // The per-layer driver metrics come from the event log.
        const std::filesystem::path events = eventsPath(workload);
        std::filesystem::create_directories(events.parent_path());
        std::filesystem::remove(events);
        orchOpts.telemetry.eventsPath = events.string();
    }
    driver::Orchestrator orchestrator(orchOpts);

    // Set-up: spec load and validation, expansion, shared
    // calibrations. Repeated so that its median is steady.
    std::vector<double> setup, expand, calibrate;
    Prepared prep;
    const double setupStart = nowSec();
    while (setup.size() < kMinSetups ||
           nowSec() - setupStart < kMinSetupSec) {
        const double start = nowSec();
        prep = prepare(loadSpec(workload), opts.seed, orchestrator);
        setup.push_back(nowSec() - start);
        calibrate.push_back(prep.calibrateSec);
        expand.push_back(setup.back() - calibrate.back());
    }

    // Whole passes over the job graph until the next one would end
    // past --seconds (at least one; exactly one when tracing). Every
    // pass is checked, and later passes must reproduce the first
    // one's digest, so all passes simulate the same accesses.
    std::vector<double> walls;
    std::vector<MixResult> first;
    std::uint64_t firstDigest = 0;
    double passAccesses = 0.0;
    const double measureStart = nowSec();
    do {
        const double start = nowSec();
        std::vector<MixResult> results = checkedResults(
            prep.plan, orchestrator.run(prep.plan.graph), tally);
        const std::uint64_t digest = fingerprintResults(results);
        if (walls.empty()) {
            firstDigest = digest;
            if (opts.seed == 1 && tally.failed() == 0)
                checkGolden(workload, prep, results, tally);
            for (const MixResult &mix : results)
                for (const DesignResult &d : mix.designs)
                    passAccesses += simulatedAccesses(d.run);
            if (opts.trace) first = std::move(results);
        } else {
            tally.check(digest == firstDigest,
                        "pass digest differs from the first pass");
        }
        walls.push_back(nowSec() - start);
        std::fprintf(stderr, "%s: pass %zu took %.3f s\n",
                     workload.name.c_str(), walls.size(), walls.back());
    } while (!opts.trace &&
             nowSec() - measureStart + median(walls) <= opts.seconds);

    if (opts.trace) {
        // A failed job leaves nothing to trace against.
        std::vector<Metric> metrics;
        if (tally.failed() == 0)
            metrics = layerMetrics(opts, workload, prep, first, walls.front(),
                                   expand, calibrate, tally);
        report(workload.name, metrics, tally);
        return 0;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report(workload.name,
           {
               {"wall_s", median(walls), "s"},
               {"setup_s", median(setup), "s"},
               {"accesses_per_s", passAccesses / median(walls), "1/s"},
               {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                "MB"},
           },
           tally);
    return 0;
}

/** Per-workload medians over the result lines in @p dir. */
int
summarize(const std::string &dir)
{
    JsonValue summary = JsonValue::makeObject();
    bool allCorrect = true;
    for (const Workload &workload : workloads()) {
        const std::string path = dir + "/" + workload.name + ".jsonl";
        std::ifstream in(path);
        if (!in) continue;
        std::map<std::string, std::vector<double>> values;
        std::map<std::string, std::string> units;
        std::size_t runs = 0;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;
            JsonValue r = JsonValue::parse(line, path);
            runs++;
            if (!r.find("correct")->asBool("correct")) allCorrect = false;
            for (const auto &[name, v] : r.find("metrics")->members()) {
                values[name].push_back(v.find("value")->asDouble(name));
                units[name] = v.find("unit")->asString(name);
            }
        }
        JsonValue metrics = JsonValue::makeObject();
        for (const auto &[name, vs] : values) {
            const auto [lo, hi] = std::minmax_element(vs.begin(), vs.end());
            std::printf("%s %s %.9g %s min=%.9g max=%.9g runs=%zu\n",
                        name.c_str(), workload.name.c_str(), median(vs),
                        units[name].c_str(), *lo, *hi, vs.size());
            JsonValue m = JsonValue::makeObject();
            m.set("median", JsonValue::makeNumber(median(vs)));
            m.set("min", JsonValue::makeNumber(*lo));
            m.set("max", JsonValue::makeNumber(*hi));
            m.set("unit", JsonValue::makeString(units[name]));
            metrics.set(name, std::move(m));
        }
        JsonValue entry = JsonValue::makeObject();
        entry.set("runs", JsonValue::makeU64(runs));
        entry.set("metrics", std::move(metrics));
        summary.set(workload.name, std::move(entry));
    }
    std::ofstream(dir + "/summary.json") << summary.dump(2) << "\n";
    if (!allCorrect) std::fprintf(stderr, "some runs were not correct\n");
    return allCorrect ? 0 : 1;
}

int
selfTest()
{
    CheckTally tally;
    const double t0 = nowSec();

    // Statistics helpers against Python's statistics module.
    tally.check(median({3.0, 1.0, 2.0}) == 2.0, "median, odd count");
    tally.check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median, even count");
    tally.check(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) ==
                    std::vector<double>{2.75, 5.5, 8.25},
                "quartiles of 1..10");
    tally.check(quartiles({2.0, 1.0}) ==
                    std::vector<double>{0.75, 1.5, 2.25},
                "quartiles of two values");
    CheckTally counted;
    counted.check(true, "passing check");
    counted.check(false, "deliberately failing check (expected)");
    tally.check(counted.attempted() == 2 && counted.failed() == 1,
                "failure count");

    // The hand-driven traced run must be the orchestrator's run.
    driver::ExperimentSpec spec;
    spec.name = "self-test";
    spec.preset = "testTiny";
    spec.seed = {false, 1};
    spec.mixes = {1, false, 2, 1, true};
    spec.designs = {LlcDesign::Jigsaw, LlcDesign::Jumanji};
    spec.groups = {{"xapian", {"xapian"}}};
    spec.output.title = "self-test";
    spec.output.columns = {{"tailMean", "tail"}};
    driver::Orchestrator orchestrator(driver::Orchestrator::Options{});
    Prepared prep = prepare(spec, 7, orchestrator);
    std::vector<MixResult> results = checkedResults(
        prep.plan, orchestrator.run(prep.plan.graph), tally);
    TracedPass traced = runTracedPass(prep.plan);
    bool same = traced.digests.size() == 1 &&
                traced.digests[0].size() == results[0].designs.size();
    for (std::size_t k = 0; same && k < results[0].designs.size(); k++)
        same = traced.digests[0][k] == runDigest(results[0].designs[k].run);
    tally.check(same, "traced digests equal the orchestrator's");

    const double elapsed = nowSec() - t0;
    tally.check(elapsed < 5.0, "self-test finishes in under 5 s");
    std::printf("self-test: %llu checks, %llu failed, %.3f s\n",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()), elapsed);
    return tally.failed() == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "jumanji_perf: %s\n"
                 "usage: jumanji_perf --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
                 "       jumanji_perf --summarize DIR\n"
                 "       jumanji_perf --self-test\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || v == 0 || text[0] == '-')
        usage(flag + " expects a positive whole number, got \"" + text +
              "\"");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string summarizeDir;
    bool self = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            opts.seed = parseCount(arg, value());
        } else if (arg == "--seconds") {
            opts.seconds = static_cast<double>(parseCount(arg, value()));
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace expects 0 or 1");
            opts.trace = v == "1";
        } else if (arg == "--trace-out") {
            opts.traceOut = value();
        } else if (arg == "--summarize") {
            summarizeDir = value();
        } else if (arg == "--self-test") {
            self = true;
        } else {
            usage("unknown argument " + arg);
        }
    }

    try {
        if (self) return selfTest();
        if (!summarizeDir.empty()) return summarize(summarizeDir);
        if (opts.workload.empty()) usage("--workload is required");
        return runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "jumanji_perf: %s\n", e.what());
        return 1;
    }
}
