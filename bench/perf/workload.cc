#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "bench/perf/perf.hh"
#include "src/driver/telemetry.hh"
#include "src/sim/fingerprint.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {
namespace perf {

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) fatal("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

double
nowSec()
{
    return driver::telemetryNowSec();
}

double
median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1) return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<double>
quartiles(std::vector<double> values)
{
    const std::size_t ld = values.size();
    if (ld < 2) fatal("quartiles: need at least two values");
    std::sort(values.begin(), values.end());
    // statistics.quantiles' exclusive method, in its exact integer
    // arithmetic: m = len + 1 and cut point i sits at i*m/4, clamped
    // to [1, len-1] and interpolated between its two neighbours.
    const std::size_t n = 4;
    const std::size_t m = ld + 1;
    std::vector<double> cuts;
    for (std::size_t i = 1; i < n; i++) {
        std::size_t j = std::clamp<std::size_t>(i * m / n, 1, ld - 1);
        auto delta = static_cast<double>(i * m) -
                     static_cast<double>(j * n);
        cuts.push_back((values[j - 1] * (static_cast<double>(n) - delta) +
                        values[j] * delta) /
                       static_cast<double>(n));
    }
    return cuts;
}

bool
CheckTally::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
}

const std::vector<Workload> &
workloads()
{
    // Why each workload exists is recorded in bench/perf/README.md and
    // BENCHMARK.json; 4 workers = the nproc the benchmark is sized for.
    static const std::vector<Workload> all = {
        {"sweep_serial", 1},
        {"sweep_parallel", 4},
        {"epoch_storm", 1},
        {"kv_flash", 1},
    };
    return all;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name) return w;
    fatal("unknown workload: " + name);
}

driver::ExperimentSpec
loadSpec(const Workload &workload)
{
    const std::string path = "bench/perf/workloads/" + workload.name + ".json";
    return driver::ExperimentSpec::fromJson(
        JsonValue::parse(readFile(path), path));
}

Prepared
prepare(driver::ExperimentSpec spec, std::uint64_t seed,
        driver::Orchestrator &orchestrator)
{
    if (spec.variants.size() != 1)
        fatal(spec.name + ": benchmark workloads have exactly one variant");
    Prepared prepared;
    prepared.spec = std::move(spec);
    prepared.plan = driver::expandSpec(prepared.spec);

    // The seed moves every random stream of the simulation (addresses,
    // arrivals, replacement, sampling) but not the mix composition,
    // which the spec draws from its own fixed seed: the apps in a
    // workload are what it is, and per-access host cost depends on
    // them far more than on the streams.
    const std::uint64_t shift = (seed - 1) * 0x9e3779b97f4a7c15ull;
    for (driver::JobId id = 0; id < prepared.plan.graph.size(); id++)
        prepared.plan.graph.mutableJob(id).config.seed += shift;
    for (driver::CalibrationJob &request : prepared.plan.calibrationPlan)
        request.config.seed += shift;

    // One variant, so the plan holds each LC app once (expandSpec's
    // first-seen order) and a name identifies its calibration.
    const double calibrateStart = nowSec();
    std::vector<LcCalibration> calibrations =
        orchestrator.runCalibrations(prepared.plan.calibrationPlan);
    std::map<std::string, LcCalibration> byName;
    for (std::size_t i = 0; i < calibrations.size(); i++)
        byName[prepared.plan.calibrationPlan[i].lcName] = calibrations[i];
    for (driver::JobId id = 0; id < prepared.plan.graph.size(); id++) {
        driver::SweepJob &job = prepared.plan.graph.mutableJob(id);
        if (job.selfCalibrate) continue;
        for (const VmSpec &vm : job.mix.vms)
            for (const std::string &lc : vm.lcApps)
                job.calibrations[lc] = byName.at(lc);
    }
    prepared.calibrateSec = nowSec() - calibrateStart;
    return prepared;
}

double
simulatedAccesses(const RunResult &run)
{
    return run.stat("llc.hits") + run.stat("llc.misses");
}

std::uint64_t
runDigest(const RunResult &run)
{
    Fingerprint fp;
    fingerprintRun(fp, run);
    return fp.value();
}

std::vector<MixResult>
checkedResults(const driver::SpecPlan &plan,
               std::vector<driver::JobOutcome> outcomes, CheckTally &tally)
{
    std::vector<MixResult> results;
    results.reserve(outcomes.size());
    for (driver::JobId id = 0; id < outcomes.size(); id++) {
        driver::JobOutcome &out = outcomes[id];
        const std::string &label = plan.graph.job(id).label;
        tally.check(out.ok, label + ": " + out.error);
        for (const DesignResult &d : out.result.designs)
            if (d.design == LlcDesign::Jumanji)
                tally.check(d.run.stat("sys.attackersPerAccess", -1.0) == 0.0,
                            label + ": Jumanji exposed attackers");
        results.push_back(std::move(out.result));
    }
    return results;
}

void
checkGolden(const Workload &workload, const Prepared &prepared,
            std::vector<MixResult> &results, CheckTally &tally)
{
    const std::string golden = "bench/perf/golden/" + workload.name;
    // Rendering reads only the mix count from the plan; the results
    // are lent to the SpecRun rather than copied.
    driver::SpecRun run;
    run.plan.mixCount = prepared.plan.mixCount;
    run.results = std::move(results);
    tally.check(driver::renderSpec(prepared.spec, run) ==
                    readFile(golden + ".txt"),
                "rendered table differs from " + golden + ".txt");
    results = std::move(run.results);

    double accesses = 0.0;
    for (const MixResult &mix : results)
        for (const DesignResult &d : mix.designs)
            accesses += simulatedAccesses(d.run);
    const double pinned = std::strtod(readFile(golden + ".accesses").c_str(),
                                      nullptr);
    char got[64];
    std::snprintf(got, sizeof(got), "%.0f", accesses);
    tally.check(accesses == pinned, std::string("simulated accesses ") + got +
                                        " differ from " + golden +
                                        ".accesses");
}

void
LayerCounts::add(const RunResult &run, std::uint32_t banks)
{
    runs += 1.0;
    for (std::size_t i = 0; i < run.apps.size(); i++) {
        coreLlcAccesses +=
            run.stat("apps.a" + statIndexName(i) + ".llcAccesses");
        instrs += run.stat("apps.a" + statIndexName(i) + ".instrs");
        stallCycles += run.stat("apps.a" + statIndexName(i) + ".stallCycles");
        lcRequests +=
            run.stat("apps.a" + statIndexName(i) + ".reqLatency.count");
    }
    hits += run.stat("llc.hits");
    misses += run.stat("llc.misses");
    for (std::uint32_t b = 0; b < banks; b++)
        bankQueueCycles +=
            run.stat("llc.bank" + statIndexName(b) + ".queueCycles");
    vtbInstalls += run.stat("dnuca.vtb.installs");
    coherenceLines += run.stat("dnuca.vtb.invalidations");
    nocHops += run.stat("noc.hops");
    memAccesses += run.stat("mem.accesses");
    memQueueCycles += run.stat("mem.queueCycles");
    reconfigurations += run.stat("runtime.reconfigurations");
}

} // namespace perf
} // namespace jumanji
