/**
 * @file
 * Scenario-layer tests: config JSON round-trips under the foldConfig
 * fingerprint, schema violations fail with precise "field: reason"
 * diagnostics, the C++ spec builders in bench/specs.hh and the
 * shipped examples/scenarios/ files are the same specs, checkSpec
 * resolves every scenario stat reference against the live registry
 * and names the job and design of a dead one, expansion order is
 * stable, and a spec-driven run is byte-identical — results
 * *and* rendered table — to a plain serial loop that spells out the
 * Sec. VII methodology, pinning it from outside src/driver/spec.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/specs.hh"
#include "src/driver/env.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"
#include "src/sim/fingerprint.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/system/config.hh"
#include "src/system/harness.hh"
#include "src/workloads/mixes.hh"

namespace jumanji {
namespace {

using driver::CalibrationMode;
using driver::ExperimentSpec;
using driver::expandSpec;
using driver::SpecColumn;
using driver::SpecGroup;
using driver::SpecPlan;
using driver::SpecRun;

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    Fingerprint fp;
    foldConfig(fp, cfg);
    return fp.value();
}

/** what() of the FatalError thrown by @p fn (fails if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected FatalError";
    return "";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ConfigJson, RoundTripPreservesTheFoldConfigFingerprint)
{
    std::vector<SystemConfig> configs = {SystemConfig::paperDefault(),
                                         SystemConfig::benchScaled(),
                                         SystemConfig::testTiny()};
    // A config with every kind of non-default: seed, ticks, doubles,
    // bools, and the timeline selector list.
    SystemConfig mutated = SystemConfig::benchScaled();
    mutated.seed = 77;
    mutated.epochTicks = 123456;
    mutated.measureTicks = 9876543;
    mutated.controller.percentile = 99.0;
    mutated.hullCurves = false;
    mutated.timelineStats = {"sys.tail.", "llc."};
    configs.push_back(mutated);

    for (const SystemConfig &cfg : configs) {
        JsonValue json = cfg.toJson();
        SystemConfig back = SystemConfig::fromJson(json);
        EXPECT_EQ(configFingerprint(back), configFingerprint(cfg));
        // The serialization itself is a normal form too.
        EXPECT_EQ(back.toJson().dump(2), json.dump(2));
    }
}

TEST(ConfigJson, UnknownKeysAreFatalWithTheirFullPath)
{
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(JsonValue::parse(
                      "{\"llc\": {\"wayz\": 8}}", "test"));
              }),
              "fatal: llc.wayz: unknown key");
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(
                      JsonValue::parse("{\"bogus\": 1}", "test"));
              }),
              "fatal: bogus: unknown key");
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(JsonValue::parse("[]", "test"));
              }),
              "fatal: config: expected object, got array");
}

TEST(ConfigJson, OutOfRangeValuesNameTheirBound)
{
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(JsonValue::parse(
                      "{\"llc\": {\"ways\": 100}}", "test"));
              }),
              "fatal: llc.ways: must be <= 64");
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(
                      JsonValue::parse("{\"seed\": 0}", "test"));
              }),
              "fatal: seed: must be >= 1");
}

TEST(ConfigJson, GeometryMismatchNamesBothSides)
{
    // Default mesh is 5x4 = 20 tiles; 16 banks cannot tile it.
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(JsonValue::parse(
                      "{\"llc\": {\"banks\": 16}}", "test"));
              }),
              "fatal: llc.banks: 16 banks but mesh is 5x4 = 20 tiles "
              "(banks must equal mesh tiles)");
    // 65536 x 65537 wraps to 65536 in 32 bits; the product is checked
    // in 64 bits and rejected before any allocation.
    EXPECT_EQ(fatalMessage([] {
                  SystemConfig::fromJson(JsonValue::parse(
                      "{\"mesh\": {\"cols\": 65536, \"rows\": 65537}, "
                      "\"llc\": {\"banks\": 65536}}",
                      "test"));
              }),
              "fatal: mesh.rows: 65536x65537 = 4295032832 tiles (must be "
              "<= 4294967295)");
}

TEST(ConfigJson, ControllerThresholdOrderingIsValidated)
{
    // lowFrac raised past the default highFrac = 0.95.
    std::string msg = fatalMessage([] {
        SystemConfig::fromJson(JsonValue::parse(
            "{\"controller\": {\"lowFrac\": 0.96}}", "test"));
    });
    EXPECT_EQ(msg.find("fatal: controller.lowFrac: must be < "
                       "controller.highFrac"),
              0u)
        << msg;
}

TEST(Spec, BuildersMatchTheShippedScenarioFiles)
{
    const std::string root = JUMANJI_SOURCE_DIR;
    struct Pair
    {
        ExperimentSpec builder;
        std::string file;
    };
    std::vector<Pair> pairs = {
        {bench::specs::fig13Small(),
         root + "/examples/scenarios/fig13_small.json"},
        {bench::specs::epochLoadGrid(),
         root + "/examples/scenarios/epoch_load_grid.json"},
        {bench::specs::kvFlashCrowd(),
         root + "/examples/scenarios/kv_flash_crowd.json"},
    };
    for (const Pair &p : pairs) {
        ExperimentSpec fromFile = ExperimentSpec::fromJson(
            JsonValue::parse(readFile(p.file), p.file));
        // toJson is canonical: equal dumps == equivalent specs.
        EXPECT_EQ(fromFile.toJson().dump(2), p.builder.toJson().dump(2))
            << p.file << " drifted from its bench/specs.hh builder";
    }
}

TEST(Spec, JsonRoundTripIsANormalForm)
{
    std::vector<ExperimentSpec> specs = {
        bench::specs::fig13Small(),    bench::specs::fig09Sensitivity(),
        bench::specs::fig16IdealBatch(), bench::specs::fig17VmScaling(),
        bench::specs::fig18NocSensitivity(),
        bench::specs::ablationVariants(), bench::specs::epochLoadGrid(),
        bench::specs::kvFlashCrowd(),
    };
    for (const ExperimentSpec &spec : specs) {
        std::string canonical = spec.toJson().dump(2);
        ExperimentSpec back = ExperimentSpec::fromJson(spec.toJson());
        EXPECT_EQ(back.toJson().dump(2), canonical)
            << spec.name << ": fromJson(toJson()) is not identity";
    }
}

TEST(Spec, ValidationRejectsShapeMismatches)
{
    ExperimentSpec base = bench::specs::fig13Small();

    ExperimentSpec twoVariants = base;
    twoVariants.variants.push_back(driver::SpecVariant{});
    EXPECT_EQ(fatalMessage([&] { expandSpec(twoVariants); }),
              "fatal: output.layout: design-table requires exactly one "
              "variant (got 2)");

    ExperimentSpec variantTable = bench::specs::fig18NocSensitivity();
    variantTable.designs.push_back(LlcDesign::Adaptive);
    EXPECT_EQ(fatalMessage([&] { expandSpec(variantTable); }),
              "fatal: output.layout: variant-table requires exactly "
              "one design (got 2)");

    ExperimentSpec noSections = base;
    noSections.output.sectionLabel.clear();
    EXPECT_EQ(fatalMessage([&] { expandSpec(noSections); }),
              "fatal: output.sectionLabel: required when the grid has "
              "more than one (load, group) section");

    // Schema-level rejections, through the document parser.
    EXPECT_EQ(fatalMessage([] {
                  ExperimentSpec::fromJson(JsonValue::parse("{}", "t"));
              }),
              "fatal: name: missing required key");
    EXPECT_EQ(fatalMessage([] {
                  ExperimentSpec::fromJson(JsonValue::parse("[]", "t"));
              }),
              "fatal: scenario: expected object, got array");

    ExperimentSpec badColumn = base;
    badColumn.output.columns[0].key = "bogus";
    EXPECT_EQ(
        fatalMessage([&] {
            ExperimentSpec::fromJson(badColumn.toJson());
        }),
        "fatal: output.columns[0].key: unknown column key \"bogus\" "
        "(tailMean|tailWorst|batchWS|batchWSMean|attackers, or a "
        "dotted stat name)");
}

/** @p spec at one mix, whatever JUMANJI_MIXES says. */
ExperimentSpec
oneMix(ExperimentSpec spec)
{
    spec.mixes.count = 1;
    spec.mixes.fromEnv = false;
    return spec;
}

/** What jumanji_cli's loadScenario does: parse, validate, check. */
void
loadAndCheck(const JsonValue &doc)
{
    driver::checkSpec(oneMix(ExperimentSpec::fromJson(doc)));
}

TEST(Spec, CheckPassesEveryBuilderAndShippedScenario)
{
    std::vector<ExperimentSpec> specs = {
        bench::specs::fig13Small(),
        bench::specs::mainComparison("main-comparison"),
        bench::specs::fig14Vulnerability(),
        bench::specs::fig05CaseStudy(),
        bench::specs::fig09Sensitivity(),
        bench::specs::fig16IdealBatch(),
        bench::specs::fig17VmScaling(),
        bench::specs::fig18NocSensitivity(),
        bench::specs::ablationVariants(),
        bench::specs::epochLoadGrid(),
        bench::specs::kvFlashCrowd(),
    };
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(JUMANJI_SOURCE_DIR) + "/examples/scenarios"))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &file : files)
        specs.push_back(ExperimentSpec::fromJson(
            JsonValue::parse(readFile(file.string()), file.string())));

    for (const ExperimentSpec &spec : specs) {
        try {
            driver::checkSpec(oneMix(spec));
        } catch (const FatalError &e) {
            ADD_FAILURE() << spec.name << ": " << e.what();
        }
    }
}

TEST(Spec, CheckNamesDeadColumnsAndSelectorsWithJobAndDesign)
{
    // A typo'd dotted column.
    ExperimentSpec typo = oneMix(bench::specs::kvFlashCrowd());
    typo.output.columns[1].key = "apps.kv.spoke.p95";
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(typo); }),
              "fatal: output.columns[1].key: no stat "
              "\"apps.kv.spoke.p95\" in job "
              "kv-flash-crowd/high/kv_small/mix0 (Static)");

    // A real phase label, but of the diurnal trace: this scenario
    // runs flashcrowd, whose registry has no "morning" phase.
    ExperimentSpec morning = oneMix(bench::specs::kvFlashCrowd());
    morning.output.columns[1].key = "apps.kv.morning.p95";
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(morning); }),
              "fatal: output.columns[1].key: no stat "
              "\"apps.kv.morning.p95\" in job "
              "kv-flash-crowd/high/kv_small/mix0 (Static)");
    // The same column resolves once the job runs the diurnal trace.
    morning.overrides = JsonValue::parse(
        "{\"kv\": {\"trace\": \"diurnal\"}}", "test");
    morning.output.columns = {{"apps.kv.morning.p95", "morning p95"}};
    driver::checkSpec(morning);

    // A dead selector in the top-level overrides.
    ExperimentSpec selector = oneMix(bench::specs::fig13Small());
    selector.overrides = JsonValue::parse(
        "{\"timelineStats\": [\"llc.\", \"nope.prefix.\"]}", "test");
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(selector); }),
              "fatal: overrides.timelineStats[1]: selector "
              "\"nope.prefix.\" selects no stat in job "
              "fig13-small/high/masstree/mix0 (Static)");

    // A dead selector in one variant's overrides: the variant's list
    // replaces the top-level one, so the path names the variant.
    ExperimentSpec variant = oneMix(bench::specs::epochLoadGrid());
    variant.overrides = JsonValue::parse(
        "{\"timelineStats\": [\"epoch.\"]}", "test");
    variant.variants[1].overrides.set(
        "timelineStats",
        JsonValue::parse("[\"apps.\", \"bogus.\"]", "test"));
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(variant); }),
              "fatal: variants[1].overrides.timelineStats[1]: selector "
              "\"bogus.\" selects no stat in job "
              "epoch 600k (default)/high/Mixed/mix0 (Static)");
}

TEST(Spec, LoadingRejectsUnknownKeysAndBareColumnsWithTheirPath)
{
    // The schema half of what a scenario load rejects, through the
    // same parse + checkSpec path as jumanji_cli --scenario-check.
    const std::string file =
        std::string(JUMANJI_SOURCE_DIR) +
        "/examples/scenarios/fig13_small.json";
    const JsonValue valid = JsonValue::parse(readFile(file), file);
    auto reject = [&](const std::string &key, const JsonValue &value) {
        JsonValue doc = valid;
        doc.set(key, value);
        return fatalMessage([&] { loadAndCheck(doc); });
    };

    EXPECT_EQ(reject("bogusKey", JsonValue::makeU64(1)),
              "fatal: bogusKey: unknown key");
    EXPECT_EQ(reject("seed", JsonValue::parse("{\"nope\": 2}", "t")),
              "fatal: seed.nope: unknown key");
    EXPECT_EQ(reject("overrides",
                     JsonValue::parse("{\"llc\": {\"wayz\": 8}}", "t")),
              "fatal: llc.wayz: unknown key");

    JsonValue output = *valid.find("output");
    JsonValue columns = JsonValue::makeArray();
    columns.push(JsonValue::parse("{\"key\": \"notdotted\"}", "t"));
    output.set("columns", columns);
    EXPECT_EQ(reject("output", output),
              "fatal: output.columns[0].key: unknown column key "
              "\"notdotted\" (tailMean|tailWorst|batchWS|batchWSMean|"
              "attackers, or a dotted stat name)");
}

TEST(Spec, ExpansionOrderIsStableAndSeedsDeriveFromTheBase)
{
    ExperimentSpec spec;
    spec.name = "order";
    spec.preset = "testTiny";
    spec.seed = {false, 42};
    spec.mixes = {2, false, 2, 2, true};
    spec.designs = {LlcDesign::Adaptive};
    spec.loads = {LoadLevel::High, LoadLevel::Low};
    spec.groups = {{"xapian", {"xapian"}}};
    spec.variants = {{"a", JsonValue(), 0}, {"b", JsonValue(), 0}};
    spec.output.title = "t";
    spec.output.layout = "variant-table";
    spec.output.sectionLabel = "[{load}]";
    spec.output.columns = {{"tailMean", "tail"}};

    SpecPlan plan = expandSpec(spec);
    EXPECT_EQ(plan.mixCount, 2u);
    ASSERT_EQ(plan.graph.size(), 8u);

    // variants -> loads -> groups -> mixes, with the documented
    // per-mix seed stride.
    const char *expected[] = {
        "a/high/xapian/mix0", "a/high/xapian/mix1",
        "a/low/xapian/mix0",  "a/low/xapian/mix1",
        "b/high/xapian/mix0", "b/high/xapian/mix1",
        "b/low/xapian/mix0",  "b/low/xapian/mix1",
    };
    for (driver::JobId id = 0; id < plan.graph.size(); id++) {
        EXPECT_EQ(plan.graph.job(id).label, expected[id]);
        EXPECT_EQ(plan.graph.job(id).config.seed,
                  42u + (id % 2) * 1000003ull);
    }
    for (std::size_t v = 0; v < 2; v++)
        for (std::size_t l = 0; l < 2; l++)
            for (std::size_t m = 0; m < 2; m++)
                EXPECT_EQ(plan.jobIndex(v, l, 0, m, spec),
                          v * 4 + l * 2 + m);

    // Shared mode: one calibration per (variant, LC app), planned at
    // the app's first-seen job, which carries the m=0 (base) seed.
    ASSERT_EQ(plan.calibrationPlan.size(), 2u);
    for (const driver::CalibrationJob &job : plan.calibrationPlan) {
        EXPECT_EQ(job.lcName, "xapian");
        EXPECT_EQ(job.config.seed, 42u);
    }

    // Same spec, same plan: labels and configs are reproducible.
    SpecPlan again = expandSpec(spec);
    ASSERT_EQ(again.graph.size(), plan.graph.size());
    for (driver::JobId id = 0; id < plan.graph.size(); id++) {
        EXPECT_EQ(again.graph.job(id).label, plan.graph.job(id).label);
        EXPECT_EQ(configFingerprint(again.graph.job(id).config),
                  configFingerprint(plan.graph.job(id).config));
    }
}

/** The fig13-small grid shrunk to test size (the test_driver idiom). */
ExperimentSpec
tinyFig13Spec()
{
    ExperimentSpec spec;
    spec.name = "fig13-tiny";
    spec.preset = "benchScaled";
    spec.overrides = JsonValue::parse(
        "{\"llc\": {\"setsPerBank\": 32}, \"capacityScale\": 0.0625, "
        "\"epochTicks\": 50000, \"warmupTicks\": 100000, "
        "\"measureTicks\": 200000}",
        "tinyFig13Spec");
    spec.seed = {false, 42};
    spec.mixes = {2, false, 4, 4, true};
    spec.designs = {LlcDesign::Adaptive, LlcDesign::Jumanji};
    spec.loads = {LoadLevel::High};
    spec.groups = {{"xapian", {"xapian"}}, {"silo", {"silo"}}};
    spec.calibration = CalibrationMode::Shared;
    spec.output.title = "Tiny Figure 13";
    spec.output.caption = "spec-vs-handwritten byte-identity probe";
    spec.output.sectionLabel = "[{load} load, LC={group}, {mixes} mixes]";
    spec.output.staticRow = true;
    spec.output.columns = {{"tailMean", "tail(mean)"},
                           {"tailWorst", "tail(worst)"},
                           {"batchWS", "batchWS(gmean)"},
                           {"attackers", "attackers"}};
    return spec;
}

/** The pre-spec fig13 printGroup, verbatim, rendered to a string. */
std::string
handwrittenTable(const ExperimentSpec &spec,
                 const std::vector<MixResult> &all)
{
    std::string out;
    char buf[256];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };
    const std::size_t n = spec.mixes.count;
    for (std::size_t g = 0; g < spec.groups.size(); g++) {
        const std::vector<MixResult> results(
            all.begin() + static_cast<std::ptrdiff_t>(g * n),
            all.begin() + static_cast<std::ptrdiff_t>((g + 1) * n));
        emit("\n[%s load, LC=%s, %u mixes]\n", "high",
             spec.groups[g].label.c_str(),
             static_cast<unsigned>(results.size()));
        emit("%-20s %12s %12s %12s %12s\n", "design", "tail(mean)",
             "tail(worst)", "batchWS(gmean)", "attackers");
        std::vector<LlcDesign> rows = {LlcDesign::Static};
        for (LlcDesign d : spec.designs) rows.push_back(d);
        std::map<LlcDesign, double> speedups = gmeanSpeedups(results);
        for (LlcDesign d : rows) {
            double meanTail = 0.0, worstTail = 0.0, attackers = 0.0;
            for (const MixResult &mix : results) {
                const DesignResult &dr = mix.of(d);
                meanTail += dr.run.stat("sys.tail.meanRatio");
                worstTail = std::max(
                    worstTail, dr.run.stat("sys.tail.worstRatio"));
                attackers += dr.run.stat("sys.attackersPerAccess");
            }
            meanTail /= static_cast<double>(results.size());
            attackers /= static_cast<double>(results.size());
            emit("%-20s %12.3f %12.3f %12.3f %12.3f\n",
                 llcDesignName(d), meanTail, worstTail, speedups[d],
                 attackers);
        }
    }
    return out;
}

/**
 * The reference: the methodology as a plain serial loop over @p spec's
 * groups and mixes (one load, one variant), with the seed and mix
 * derivations written out. PerJob calibrates every job from its own
 * config; Shared keeps each app's first calibration, made with the
 * config of the first job whose mix contains it.
 */
std::vector<MixResult>
referenceSweep(const ExperimentSpec &spec, const SystemConfig &base)
{
    const bool shared = spec.calibration == CalibrationMode::Shared;
    LcCalibrationMap kept;
    std::vector<MixResult> results;
    for (const SpecGroup &group : spec.groups) {
        for (std::uint32_t m = 0; m < spec.mixes.count; m++) {
            SystemConfig cfg = base;
            cfg.seed = base.seed + m * 1000003ull;
            Rng mixRng(cfg.seed ^ 0x5eedull);
            WorkloadMix mix = makeMix(group.lcNames, spec.mixes.vms,
                                      spec.mixes.batchPerVm, mixRng);
            ExperimentHarness harness(cfg);
            LcCalibrationMap calibrations;
            for (const VmSpec &vm : mix.vms) {
                for (const std::string &lc : vm.lcApps) {
                    if (!shared || kept.count(lc) == 0)
                        kept[lc] = harness.calibrationFor(lc);
                    calibrations[lc] = kept[lc];
                }
            }
            results.push_back(ExperimentHarness::runCalibrated(
                cfg, mix, spec.designs, spec.loads[0], calibrations));
        }
    }
    return results;
}

TEST(Spec, RunIsByteIdenticalToTheHandwrittenSweep)
{
    SystemConfig base = SystemConfig::benchScaled();
    base.llc.setsPerBank = 32;
    base.capacityScale = 0.0625;
    base.epochTicks = 50000;
    base.warmupTicks = 100000;
    base.measureTicks = 200000;
    base.seed = 42;

    for (CalibrationMode mode :
         {CalibrationMode::Shared, CalibrationMode::PerJob}) {
        ExperimentSpec spec = tinyFig13Spec();
        spec.calibration = mode;
        const char *name =
            mode == CalibrationMode::Shared ? "shared" : "perJob";
        std::vector<MixResult> reference = referenceSweep(spec, base);

        // The spec side, through the parallel orchestrator.
        driver::Orchestrator::Options opts;
        opts.jobs = 2;
        driver::Orchestrator orch(opts);
        SpecRun run = driver::runSpec(spec, orch);

        EXPECT_EQ(configFingerprint(run.plan.base),
                  configFingerprint(base))
            << name;
        EXPECT_EQ(fingerprintResults(run.results),
                  fingerprintResults(reference))
            << name << ": spec expansion diverged from the reference";
        EXPECT_EQ(driver::renderSpecTable(spec, run),
                  handwrittenTable(spec, reference))
            << name << ": rendered table diverged from the formatter";
    }
}

TEST(Spec, SeedFromEnvParsesTheFullRangeAndFallsBack)
{
    // In-process env edits: this is the only test touching the
    // variable, and it restores "unset" on every path.
    struct EnvGuard
    {
        ~EnvGuard() { unsetenv("JUMANJI_SEED"); }
    } guard;

    unsetenv("JUMANJI_SEED");
    EXPECT_EQ(driver::seedFromEnv(7), 7u);

    setenv("JUMANJI_SEED", "123", 1);
    EXPECT_EQ(driver::seedFromEnv(7), 123u);

    setenv("JUMANJI_SEED", "18446744073709551615", 1);
    EXPECT_EQ(driver::seedFromEnv(7), 0xffffffffffffffffull);

    // 0 is reserved as "unset"; junk and trailing garbage fall back
    // (and warn once — not asserted here, the warning is logging).
    for (const char *bad : {"0", "junk", "12x", ""}) {
        setenv("JUMANJI_SEED", bad, 1);
        EXPECT_EQ(driver::seedFromEnv(7), 7u) << "value: " << bad;
    }
}

} // namespace
} // namespace jumanji
