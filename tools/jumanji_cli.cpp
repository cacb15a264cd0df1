/**
 * @file
 * jumanji_cli: run custom experiments from the command line.
 *
 * Usage:
 *   jumanji_cli [options]
 *     --scenario <file>    run a declarative scenario document (an
 *                          ExperimentSpec JSON, see
 *                          examples/scenarios/ and docs/INTERNALS.md
 *                          §12) through the orchestrator and print
 *                          its report; --jobs/--cache-dir and the
 *                          observability exports apply. The file sets
 *                          what --design, --lc, --load, --vms,
 *                          --batch, --mixes, --seed, --paper-scale
 *                          and --sweep would, so each of them exits
 *                          2 with --scenario or --scenario-check. The
 *                          document first passes the --scenario-check
 *                          checks; an invalid scenario exits 2 with a
 *                          "field: reason" diagnostic on stderr.
 *     --scenario-check <file>
 *                          parse, validate, and expand a scenario,
 *                          then build every job's System for every
 *                          design it runs, without simulating, and
 *                          resolve each dotted output column and
 *                          timelineStats selector against its stat
 *                          registry; prints the grid shape and exits
 *                          0 iff the document is valid
 *     --design <name>      Static|Adaptive|VM-Part|Jigsaw|Jumanji|
 *                          Jumanji-Insecure|Jumanji-IdealBatch, the
 *                          names every table prints (repeatable;
 *                          default: Static plus the four main designs)
 *     --lc <name|Mixed>    latency-critical app selection: a
 *                          TailBench-like app
 *                          (masstree|xapian|img-dnn|silo|moses), a
 *                          KV-serving app (kv_small, kv_ycsb_a..f;
 *                          see --list-apps), or Mixed = the five
 *                          TailBench apps
 *     --list-apps          print the latency-critical (TailBench +
 *                          KV) and batch (SPEC-like) app catalogs
 *                          with footprint and access intensity, then
 *                          exit
 *     --load <low|high>    offered load (default high)
 *     --vms <n>            number of VMs (default 4)
 *     --batch <n>          batch apps per VM, 0..64 (default 4)
 *     --mixes <n>          random batch mixes (default 3)
 *     --seed <n>           base seed, >= 1 (default 1)
 *     --paper-scale        use the full Table II capacity/time scale
 *     --jobs <n>           worker threads (default $JUMANJI_JOBS or 1);
 *                          output is byte-identical for any job count
 *     --cache-dir <dir>    on-disk result cache keyed by
 *                          Fingerprint(code version, config, mix)
 *                          (default $JUMANJI_CACHE_DIR; unset = off)
 *     --sweep              shared calibration: each LC app is
 *                          calibrated once, with the first mix that
 *                          contains it, and reused by every mix (the
 *                          paper's sweep methodology) instead of the
 *                          default independent per-mix calibration
 *     --selfcheck          run the experiment twice and compare stats
 *                          fingerprints (determinism self-check;
 *                          bypasses the result cache); --trace-out
 *                          writes both runs, and --stats-json or
 *                          --timeline-csv exits 2
 *     --stats-json <file>  write the full hierarchical stats registry
 *                          of every run as nested JSON
 *     --timeline-csv <file> write the per-epoch recorder series of
 *                          every run as one long-format CSV
 *     --trace-out <file>   write a Chrome trace-event JSON covering
 *                          all runs (chrome://tracing / Perfetto),
 *                          byte-identical for any job count
 *     --bench-json <file>  wall-clock perf harness: time the
 *                          experiment the other flags or --scenario
 *                          describe, with the result cache disabled,
 *                          and write a self-describing snapshot
 *                          (schema jumanji-bench-v3: codeVersion,
 *                          jobs, mixes, seed, wall_seconds,
 *                          simulated_accesses, accesses_per_sec) as
 *                          JSON. The canonical run is `--scenario
 *                          examples/scenarios/fig13_small.json` at
 *                          JUMANJI_MIXES=1 (the bench-smoke target).
 *                          --profile, --events-out and --heartbeat-ms
 *                          apply; --selfcheck, --stats-json,
 *                          --timeline-csv and --trace-out exit 2.
 *     --profile <file>     enable the host-side scope profiler
 *                          (src/sim/profiler.hh) and write its
 *                          aggregated JSON report (where the wall
 *                          time went: sim.run, sim.calibrate,
 *                          sim.epoch.repartition, driver.*) at exit
 *     --events-out <file>  append one JSONL record per calibration,
 *                          per job (queue wait, cache probe,
 *                          simulate durations, cache hit/miss,
 *                          worker id), and per orchestrator run
 *                          (default $JUMANJI_EVENTS; unset = off)
 *     --heartbeat-ms <n>   rate-limited stderr progress heartbeat
 *                          for long sweeps: jobs done/total,
 *                          accesses/s, ETA (default
 *                          $JUMANJI_HEARTBEAT_MS; 0 = off)
 *
 * None of the profiling/telemetry outputs feed back into results:
 * tables, fingerprints, and the result cache are byte-identical
 * with them on or off (docs/INTERNALS.md §13).
 *
 * The flags (or --scenario) become one driver::ExperimentSpec, run
 * through the orchestrator. Prints one row per design: tail ratio
 * (mean/worst over LC apps), gmean batch weighted speedup vs. Static,
 * and attackers/access. Numeric flags accept plain decimal digits
 * only; anything else exits 2 naming the flag.
 *
 * With --selfcheck, instead prints the two FNV-1a fingerprints of the
 * full stats stream and exits 0 iff they match: reproducibility from
 * (seed, config) alone is a hard project invariant (see
 * docs/INTERNALS.md).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/driver/env.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"
#include "src/sim/statreg.hh"
#include "src/sim/tracing.hh"
#include "src/system/harness.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/spec_like.hh"
#include "src/workloads/tail_latency.hh"

using namespace jumanji;

namespace {

[[noreturn]] void
usage(const char *argv0, int exitCode = 2)
{
    std::fprintf(exitCode == 0 ? stdout : stderr,
                 "usage: %s [--scenario FILE] [--scenario-check FILE] "
                 "[--design <name>] [--lc <name|Mixed>] [--list-apps] "
                 "[--load low|high] [--vms N] [--batch N] [--mixes N] "
                 "[--seed N] [--paper-scale] [--jobs N] "
                 "[--cache-dir DIR] [--sweep] [--selfcheck] "
                 "[--stats-json FILE] [--timeline-csv FILE] "
                 "[--trace-out FILE] [--bench-json FILE] "
                 "[--profile FILE] [--events-out FILE] "
                 "[--heartbeat-ms N]\n",
                 argv0);
    std::exit(exitCode);
}

/**
 * Loads and validates a scenario document, then resolves its stat
 * references against the live registry (driver::checkSpec). Fatal on
 * any error, before anything is simulated.
 */
driver::ExperimentSpec
loadScenario(const std::string &path)
{
    driver::ExperimentSpec spec = driver::ExperimentSpec::fromFile(path);
    driver::checkSpec(spec);
    return spec;
}

/** Resident footprint of a working-set mixture, in MB (streaming
 *  sets are unbounded compulsory-miss traffic, so they are excluded
 *  — the same accounting AddressStream::footprintLines uses). */
double
footprintMB(const std::vector<WorkingSet> &sets)
{
    std::uint64_t lines = 0;
    for (const WorkingSet &ws : sets)
        if (!ws.streaming) lines += ws.lines;
    return static_cast<double>(lines) * 64.0 / (1024.0 * 1024.0);
}

/**
 * --list-apps: the three app catalogs a mix can draw from, with the
 * two numbers that determine cache behavior — resident footprint and
 * access intensity (LLC accesses per kilo-instruction).
 */
int
listApps()
{
    std::printf("%-10s %-14s %14s %8s\n", "kind", "name",
                "footprint(MB)", "apki");
    for (const TailAppParams &p : tailAppCatalog())
        std::printf("%-10s %-14s %14.2f %8.1f\n", "lc/tail",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    for (const KvAppParams &kv : kvAppCatalog()) {
        const TailAppParams &p = kvTailAppParams(kv.name);
        std::printf("%-10s %-14s %14.2f %8.1f\n", "lc/kv",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    }
    for (const SpecAppParams &p : specAppCatalog())
        std::printf("%-10s %-14s %14.2f %8.1f\n", "batch",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    return 0;
}

/** "%.17g"-style round-trip formatting, integers without a fraction. */
std::string
csvNumber(double v)
{
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -9.0e15 && v < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

/**
 * {"mixes": [{"index": N, "designs": [{"design": ...,
 * "stats": <nested registry dump>}, ...]}, ...]}
 */
void
writeStatsJson(std::ostream &os, const std::vector<MixResult> &results)
{
    os << "{\"mixes\": [";
    for (std::size_t m = 0; m < results.size(); m++) {
        os << (m ? "," : "") << "\n  {\"index\": " << m
           << ", \"designs\": [";
        const auto &designs = results[m].designs;
        for (std::size_t d = 0; d < designs.size(); d++) {
            os << (d ? "," : "") << "\n    {\"design\": \""
               << llcDesignName(designs[d].design)
               << "\", \"stats\": ";
            writeNestedStatsJson(os, designs[d].run.statDump, 2);
            os << "}";
        }
        os << "\n  ]}";
    }
    os << "\n]}\n";
}

/**
 * Long-format CSV: mix,design,epoch,tick,<col>,... One header per
 * column set; a new header is emitted if a run's columns ever differ
 * (they should not — selectors are fixed — but a silent mismatch
 * would corrupt every later row).
 */
void
writeTimelineCsv(std::ostream &os, const std::vector<MixResult> &results)
{
    const std::vector<std::string> *header = nullptr;
    for (std::size_t m = 0; m < results.size(); m++) {
        for (const auto &d : results[m].designs) {
            const TimelineSeries &ts = d.run.timeline;
            if (ts.empty()) continue;
            if (header == nullptr || ts.columns() != *header) {
                os << "mix,design,epoch,tick";
                for (const auto &c : ts.columns()) os << ',' << c;
                os << '\n';
                header = &ts.columns();
            }
            for (auto row = ts.cursor(); row.next();) {
                os << m << ',' << llcDesignName(d.design) << ','
                   << row.index() << ',' << row.tick();
                for (double v : row.values()) os << ',' << csvNumber(v);
                os << '\n';
            }
        }
    }
}

/**
 * --bench-json: end-to-end wall-clock measurement of the experiment
 * the other flags (or --scenario) describe. The result cache is
 * always disabled — a warm cache would time deserialization, not
 * simulation. simulated_accesses is summed from each run's stats dump
 * (llc.hits + llc.misses), so the throughput figure is comparable
 * across code versions exactly when semantics are unchanged; a
 * semantic change shifts the access count and shows up as more than
 * a throughput delta.
 *
 * The wall-clock read lives here and not in src/ deliberately: the
 * simulator itself must stay free of wall-clock dependence, while the
 * harness around it is the one place where real time is the measurand.
 */
int
runScenarioBenchJson(const std::string &path,
                     const driver::ExperimentSpec &spec,
                     driver::Orchestrator::Options opts)
{
    opts.cacheDir.clear();
    driver::Orchestrator orch(opts);

    auto start = std::chrono::steady_clock::now();
    driver::SpecRun run = driver::runSpec(spec, orch);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    double accesses = 0.0;
    for (const MixResult &mix : run.results)
        for (const DesignResult &d : mix.designs)
            accesses += d.run.stat("llc.hits") + d.run.stat("llc.misses");

    double rate = wall > 0.0 ? accesses / wall : 0.0;

    std::ofstream os(path);
    if (!os) fatal("cannot open " + path);
    // Self-describing snapshot (schema jumanji-bench-v3): jobs,
    // mixes, seed, and codeVersion pin what was measured, so two
    // snapshots of unlike work are told apart instead of read as a
    // throughput delta.
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"schema\": \"jumanji-bench-v3\",\n"
                  " \"codeVersion\": \"%s\",\n"
                  " \"jobs\": %u,\n"
                  " \"mixes\": %u,\n"
                  " \"seed\": %llu,\n"
                  " \"wall_seconds\": %.3f,\n"
                  " \"simulated_accesses\": %.0f,\n"
                  " \"accesses_per_sec\": %.0f}\n",
                  driver::kCodeVersion, opts.jobs, run.plan.mixCount,
                  static_cast<unsigned long long>(run.plan.base.seed),
                  wall, accesses, rate);
    os << buf;

    std::printf("bench: scenario %s: %.0f accesses in %.3f s = "
                "%.0f accesses/s (%u jobs) -> %s\n",
                spec.name.c_str(), accesses, wall, rate, opts.jobs,
                path.c_str());
    return 0;
}

/**
 * Flushes the main thread's scopes into the process aggregate (each
 * parallelFor worker flushed its own on exit) and writes the profile
 * report. No-op without --profile.
 */
void
writeProfileJson(const std::string &path)
{
    if (path.empty()) return;
    prof::flushThreadProfile();
    std::ofstream os(path);
    if (!os) fatal("cannot open " + path);
    prof::aggregateProfile().writeJson(os);
}

/**
 * Parses a numeric flag value in [@p lo, @p hi]. Junk, a sign,
 * trailing characters, or an out-of-range value exits 2 with a
 * "--flag: reason" message: `--seed 12x` must not run seed 12.
 */
std::uint64_t
flagNumber(const std::string &flag, const std::string &text,
           std::uint64_t lo, std::uint64_t hi)
{
    if (auto value = driver::parseUnsigned(text, lo, hi)) return *value;
    std::fprintf(stderr, "%s: expected a whole number in [%llu, %llu], "
                         "got \"%s\"\n",
                 flag.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    constexpr std::uint64_t kU32Max = 0xffffffffull;
    std::vector<LlcDesign> designs;
    driver::SpecGroup lc{"xapian", {"xapian"}};
    LoadLevel load = LoadLevel::High;
    std::uint32_t vms = 4, batchPerVm = 4, mixes = 3;
    std::uint64_t seed = 1;
    // The environment sets the orchestrator's defaults (jobs, cache,
    // telemetry); the flags below override them.
    driver::Orchestrator::Options orchOpts =
        driver::orchestratorOptionsFromEnv();
    bool paperScale = false;
    bool sweepMode = false;
    bool selfcheck = false;
    std::string statsJsonPath, timelineCsvPath, traceOutPath;
    std::string benchJsonPath;
    std::string scenarioPath, scenarioCheckPath;
    std::string profilePath;
    std::set<std::string> given; // every flag, for the checks below

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        given.insert(arg);
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            return flagNumber(arg, next(), lo, hi);
        };
        try {
            if (arg == "--scenario") {
                scenarioPath = next();
            } else if (arg == "--scenario-check") {
                scenarioCheckPath = next();
            } else if (arg == "--design") {
                designs.push_back(llcDesignFromName(next(), arg));
            } else if (arg == "--lc") {
                std::string name = next();
                if (name == "Mixed") {
                    lc = {name, allTailAppNames()};
                } else {
                    lcAppParams(name); // validates (tail or KV)
                    lc = {name, {name}};
                }
            } else if (arg == "--list-apps") {
                return listApps();
            } else if (arg == "--load") {
                load = loadLevelFromName(next(), arg);
            } else if (arg == "--vms") {
                vms = static_cast<std::uint32_t>(number(1, kU32Max));
            } else if (arg == "--batch") {
                batchPerVm = static_cast<std::uint32_t>(number(0, 64));
            } else if (arg == "--mixes") {
                mixes = static_cast<std::uint32_t>(number(1, kU32Max));
            } else if (arg == "--seed") {
                // 0 is reserved as "unset" (see driver::seedFromEnv).
                seed = number(1, ~0ull);
            } else if (arg == "--paper-scale") {
                paperScale = true;
            } else if (arg == "--jobs") {
                orchOpts.jobs =
                    static_cast<std::uint32_t>(number(1, kU32Max));
            } else if (arg == "--cache-dir") {
                orchOpts.cacheDir = next();
            } else if (arg == "--sweep") {
                sweepMode = true;
            } else if (arg == "--selfcheck") {
                selfcheck = true;
            } else if (arg == "--stats-json") {
                statsJsonPath = next();
            } else if (arg == "--timeline-csv") {
                timelineCsvPath = next();
            } else if (arg == "--trace-out") {
                traceOutPath = next();
            } else if (arg == "--bench-json") {
                benchJsonPath = next();
            } else if (arg == "--profile") {
                profilePath = next();
            } else if (arg == "--events-out") {
                orchOpts.telemetry.eventsPath = next();
            } else if (arg == "--heartbeat-ms") {
                orchOpts.telemetry.heartbeatMs =
                    static_cast<std::uint32_t>(number(0, kU32Max));
            } else if (arg == "--help" || arg == "-h") {
                usage(argv[0], 0);
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                usage(argv[0]);
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    // A flag that the chosen mode would ignore exits 2 naming both
    // flags: a scenario file sets what the spec-building flags would,
    // and a timed run or a selfcheck writes none of these exports.
    struct Conflict {
        std::vector<const char *> modes, flags;
        const char *why;
    };
    const Conflict conflicts[] = {
        {{"--scenario", "--scenario-check"},
         {"--design", "--lc", "--load", "--vms", "--batch", "--mixes",
          "--seed", "--paper-scale", "--sweep"},
         "the scenario file sets it"},
        {{"--bench-json"},
         {"--selfcheck", "--stats-json", "--timeline-csv", "--trace-out"},
         "the timed run writes only its snapshot, --profile and "
         "--events-out"},
        {{"--selfcheck"},
         {"--stats-json", "--timeline-csv"},
         "a selfcheck prints its digests and writes only --trace-out"},
    };
    for (const Conflict &c : conflicts)
        for (const char *mode : c.modes)
            for (const char *flag : c.flags)
                if (given.count(mode) != 0 && given.count(flag) != 0) {
                    std::fprintf(stderr, "%s: not with %s: %s\n", flag,
                                 mode, c.why);
                    return 2;
                }

    // Arm the profiler before any simulation runs. Without
    // --profile every JUMANJI_PROF_SCOPE stays a single disarmed
    // branch (<2% on the fig13-small bench, like tracing).
    if (!profilePath.empty()) prof::setProfilingEnabled(true);

    // A scenario document supplies what the ad-hoc flags would
    // (designs, loads, mixes, seed policy); --jobs, --cache-dir, and
    // the observability exports still apply. A malformed document
    // exits 2 with its "field: reason" diagnostic, like any other bad
    // usage.
    if (!scenarioCheckPath.empty()) {
        try {
            driver::ExperimentSpec spec =
                loadScenario(scenarioCheckPath);
            driver::SpecPlan plan = driver::expandSpec(spec);
            std::printf("scenario %s: %zu jobs (%zu variants x %zu "
                        "loads x %zu groups x %u mixes), %zu designs, "
                        "OK\n",
                        spec.name.c_str(), plan.graph.size(),
                        spec.variants.size(), spec.loads.size(),
                        spec.groups.size(), plan.mixCount,
                        spec.designs.size());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", scenarioCheckPath.c_str(),
                         e.what());
            return 2;
        }
        return 0;
    }

    driver::ExperimentSpec spec;
    if (!scenarioPath.empty()) {
        try {
            spec = loadScenario(scenarioPath);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", scenarioPath.c_str(),
                         e.what());
            return 2;
        }
    } else {
        // The flags describe a one-section design table: one LC
        // group at one load, random salted mixes.
        spec.name = "cli";
        spec.preset = paperScale ? "paperDefault" : "benchScaled";
        spec.seed = {false, seed};
        spec.mixes = {mixes, false, vms, batchPerVm, true};
        if (designs.empty())
            designs = {LlcDesign::Adaptive, LlcDesign::VMPart,
                       LlcDesign::Jigsaw, LlcDesign::Jumanji};
        // Static is the baseline every job runs first: its row leads
        // the table, unless it is the only design asked for.
        for (LlcDesign d : designs)
            if (d != LlcDesign::Static) spec.designs.push_back(d);
        spec.output.staticRow = !spec.designs.empty();
        if (spec.designs.empty()) spec.designs = {LlcDesign::Static};
        spec.loads = {load};
        spec.groups = {lc};
        spec.calibration = sweepMode ? driver::CalibrationMode::Shared
                                     : driver::CalibrationMode::PerJob;
        spec.output.columns = {{"tailMean", "tail(mean)"},
                               {"tailWorst", "tail(worst)"},
                               {"batchWS", "batchWS"},
                               {"attackers", "attackers"}};
        if (paperScale)
            std::fprintf(stderr,
                         "note: --paper-scale simulates Table II time "
                         "constants (hours of CPU time per run).\n");
    }

    try {
        if (!benchJsonPath.empty()) {
            int rc = runScenarioBenchJson(benchJsonPath, spec, orchOpts);
            writeProfileJson(profilePath);
            return rc;
        }

        // Each traced job gets a private tracer that the orchestrator
        // merges back in submission order, so the combined trace is
        // the same whatever the worker count.
        std::unique_ptr<Tracer> tracer;
        if (!traceOutPath.empty()) tracer = std::make_unique<Tracer>();
        auto writeTrace = [&]() {
            if (tracer == nullptr) return;
            std::ofstream os(traceOutPath);
            if (!os) fatal("cannot open " + traceOutPath);
            tracer->writeTo(os);
        };

        // A warm cache would make the selfcheck's second run a replay
        // of the first — exactly what it must not be.
        if (selfcheck) orchOpts.cacheDir.clear();
        orchOpts.tracer = tracer.get();
        driver::Orchestrator orchestrator(orchOpts);

        if (selfcheck) {
            // Two independent runs of the identical experiment; the
            // stats stream must hash identically or the simulator
            // depends on something outside (seed, config).
            std::uint64_t first = fingerprintResults(
                driver::runSpec(spec, orchestrator).results);
            std::uint64_t second = fingerprintResults(
                driver::runSpec(spec, orchestrator).results);
            std::printf("selfcheck: run1=%016llx run2=%016llx -> %s\n",
                        static_cast<unsigned long long>(first),
                        static_cast<unsigned long long>(second),
                        first == second ? "OK" : "MISMATCH");
            writeTrace(); // both repetitions, for what it's worth
            writeProfileJson(profilePath);
            return first == second ? 0 : 1;
        }

        driver::SpecRun run = driver::runSpec(spec, orchestrator);
        // The flag-built experiment prints the bare table; a scenario
        // prints its full report (banner, table, note).
        std::fputs((scenarioPath.empty() ? driver::renderSpecTable(spec, run)
                                         : driver::renderSpec(spec, run))
                       .c_str(),
                   stdout);

        if (!statsJsonPath.empty()) {
            std::ofstream os(statsJsonPath);
            if (!os) fatal("cannot open " + statsJsonPath);
            writeStatsJson(os, run.results);
        }
        if (!timelineCsvPath.empty()) {
            std::ofstream os(timelineCsvPath);
            if (!os) fatal("cannot open " + timelineCsvPath);
            writeTimelineCsv(os, run.results);
        }
        writeTrace();
        writeProfileJson(profilePath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
