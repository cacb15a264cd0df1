/**
 * @file
 * Scenario-layer tests: config JSON round-trips under the foldConfig
 * fingerprint, schema violations fail with precise "field: reason"
 * diagnostics, every shipped examples/scenarios/ file (the one
 * definition of each spec-based exhibit) expands to a pinned set of
 * jobs, checkSpec resolves every scenario stat reference against the
 * live registry and names the job and design of a dead one,
 * expansion order is stable, and a spec-driven run is byte-identical
 * — results *and* rendered table — to a plain serial loop that
 * spells out the Sec. VII methodology, pinning it from outside
 * src/driver/spec.cc.
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

/**
 * One digest of everything @p spec expands to at one mix with the
 * seed policy pinned: each job's config, mix, designs, load and
 * calibration mode, then the shared calibration plan. Labels are
 * left out; they feed only traces and telemetry.
 */
std::uint64_t
pinnedPlanDigest(ExperimentSpec spec)
{
    spec.mixes.count = 1;
    spec.mixes.fromEnv = false;
    spec.seed.fromEnv = false;
    const SpecPlan plan = expandSpec(spec);
    Fingerprint fp;
    for (driver::JobId id = 0; id < plan.graph.size(); id++) {
        const driver::SweepJob &job = plan.graph.job(id);
        foldConfig(fp, job.config);
        foldMix(fp, job.mix);
        fp.addU64(job.designs.size());
        for (LlcDesign d : job.designs)
            fp.addU64(static_cast<std::uint64_t>(d));
        fp.addU64(static_cast<std::uint64_t>(job.load));
        fp.addU64(job.selfCalibrate ? 1 : 0);
    }
    fp.addU64(plan.calibrationPlan.size());
    for (const driver::CalibrationJob &cal : plan.calibrationPlan) {
        fp.addString(cal.lcName);
        foldConfig(fp, cal.config);
    }
    return fp.value();
}

std::string
scenarioPath(const std::string &file)
{
    return std::string(JUMANJI_SOURCE_DIR) + "/examples/scenarios/" + file;
}

ExperimentSpec
shippedScenario(const std::string &file)
{
    return ExperimentSpec::fromFile(scenarioPath(file));
}

TEST(Spec, ShippedScenariosExpandToPinnedJobs)
{
    // pinnedPlanDigest of each shipped exhibit, first computed from
    // the C++ builders the files replaced. A digest that moves means
    // an exhibit now runs different jobs: fix the file, or re-pin and
    // say why. JUMANJI_KV_LOAD_SCALE is the one env knob the pinned
    // policies do not cover, so it is unset (as test_kv leaves it).
    unsetenv("JUMANJI_KV_LOAD_SCALE");
    const std::map<std::string, std::uint64_t> pins = {
        {"ablation_design_choices.json", 0xa2dce1b83499c528ull},
        {"epoch_load_grid.json", 0xae5203c8cfe6b3f1ull},
        {"fig05_case_study.json", 0xd7f4763d70d4713aull},
        {"fig09_controller_sensitivity.json", 0x9039042981dae3f2ull},
        {"fig13_small.json", 0x922cfc961eab4cf5ull},
        {"fig14_vulnerability.json", 0x084594dda1cd9d91ull},
        {"fig16_ideal_batch.json", 0xeb1f0d9b91f7ddb1ull},
        {"fig17_vm_scaling.json", 0x727152fedee3dc50ull},
        {"fig18_noc_sensitivity.json", 0x791c0b90ae9a4639ull},
        {"kv_flash_crowd.json", 0xe356050bcae64f3eull},
        {"main_comparison.json", 0xb6f5665fcb5a7260ull},
    };
    std::map<std::string, std::uint64_t> found;
    for (const auto &entry :
         std::filesystem::directory_iterator(scenarioPath("")))
        if (entry.path().extension() == ".json")
            found[entry.path().filename().string()] = pinnedPlanDigest(
                ExperimentSpec::fromFile(entry.path().string()));
    EXPECT_EQ(found, pins);
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

/** A shipped scenario document, parsed but not yet a spec. */
JsonValue
shippedDocument(const std::string &file)
{
    return JsonValue::parse(readFile(scenarioPath(file)),
                            scenarioPath(file));
}

/** shippedDocument with one top-level key replaced. */
JsonValue
patchedScenario(const std::string &file, const std::string &key,
                const JsonValue &value)
{
    JsonValue doc = shippedDocument(file);
    doc.set(key, value);
    return doc;
}

TEST(Spec, ValidationRejectsShapeMismatches)
{
    ExperimentSpec base = shippedScenario("fig13_small.json");

    ExperimentSpec twoVariants = base;
    twoVariants.variants.push_back(driver::SpecVariant{});
    EXPECT_EQ(fatalMessage([&] { expandSpec(twoVariants); }),
              "fatal: output.layout: design-table requires exactly one "
              "variant (got 2)");

    ExperimentSpec variantTable =
        shippedScenario("fig18_noc_sensitivity.json");
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

    JsonValue output = *shippedDocument("fig13_small.json").find("output");
    JsonValue columns = JsonValue::makeArray();
    columns.push(JsonValue::parse("{\"key\": \"bogus\"}", "t"));
    output.set("columns", columns);
    EXPECT_EQ(fatalMessage([&] {
                  ExperimentSpec::fromJson(
                      patchedScenario("fig13_small.json", "output", output));
              }),
              "fatal: output.columns[0].key: unknown column key \"bogus\" "
              "(tailMean|tailWorst|batchWS|batchWSMean|attackers, or a "
              "dotted stat name)");

    // A placeholder expandTemplate does not know would print as is.
    output = *shippedDocument("fig13_small.json").find("output");
    output.set("sectionLabel",
               JsonValue::makeString(
                   "[{load} load, variant {variant}, {mixs} mixes]"));
    EXPECT_EQ(fatalMessage([&] {
                  ExperimentSpec::fromJson(
                      patchedScenario("fig13_small.json", "output", output));
              }),
              "fatal: output.sectionLabel: unknown placeholder "
              "\"{variant}\" (load|group|mixes)");

    // A mix that cannot fit the mesh is rejected before makeMix
    // allocates it: 4e9 VMs would exhaust memory, and 2 x (1 + 2) = 6
    // apps on testTiny's 2x2 mesh would only fail inside System.
    EXPECT_EQ(fatalMessage([] {
                  loadAndCheck(patchedScenario(
                      "fig13_small.json", "mixes",
                      JsonValue::parse("{\"vms\": 4000000000, "
                                       "\"batchPerVm\": 64}",
                                       "t")));
              }),
              "fatal: mixes.vms: 4000000000 VMs x (1 LC + 64 batch) = "
              "260000000000 apps, more than the 5x4 = 20 tiles of "
              "variants[0]");
    JsonValue tiny = patchedScenario(
        "fig13_small.json", "mixes",
        JsonValue::parse("{\"vms\": 2, \"batchPerVm\": 2}", "t"));
    tiny.set("preset", JsonValue::makeString("testTiny"));
    EXPECT_EQ(fatalMessage([&] { loadAndCheck(tiny); }),
              "fatal: mixes.vms: 2 VMs x (1 LC + 2 batch) = 6 apps, more "
              "than the 2x2 = 4 tiles of variants[0]");
    // A variant that shrinks the mesh is named with its label.
    ExperimentSpec shrunk = shippedScenario("fig18_noc_sensitivity.json");
    shrunk.variants[2].overrides = JsonValue::parse(
        "{\"mesh\": {\"cols\": 4}, \"llc\": {\"banks\": 16}}", "t");
    EXPECT_EQ(fatalMessage([&] { expandSpec(shrunk); }),
              "fatal: mixes.vms: 4 VMs x (1 LC + 4 batch) = 20 apps, more "
              "than the 4x4 = 16 tiles of variants[2] (\"3\")");
}

TEST(Spec, CheckPassesEveryShippedScenario)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(scenarioPath("")))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &file : files) {
        try {
            driver::checkSpec(
                oneMix(ExperimentSpec::fromFile(file.string())));
        } catch (const FatalError &e) {
            ADD_FAILURE() << file.filename() << ": " << e.what();
        }
    }
}

TEST(Spec, CheckNamesDeadColumnsAndSelectorsWithJobAndDesign)
{
    // A typo'd dotted column.
    ExperimentSpec typo = oneMix(shippedScenario("kv_flash_crowd.json"));
    typo.output.columns[1].key = "apps.kv.spoke.p95";
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(typo); }),
              "fatal: output.columns[1].key: no stat "
              "\"apps.kv.spoke.p95\" in job "
              "kv-flash-crowd/high/kv_small/mix0 (Static)");

    // A real phase label, but of the diurnal trace: this scenario
    // runs flashcrowd, whose registry has no "morning" phase.
    ExperimentSpec morning = oneMix(shippedScenario("kv_flash_crowd.json"));
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
    ExperimentSpec selector = oneMix(shippedScenario("fig13_small.json"));
    selector.overrides = JsonValue::parse(
        "{\"timelineStats\": [\"llc.\", \"nope.prefix.\"]}", "test");
    EXPECT_EQ(fatalMessage([&] { driver::checkSpec(selector); }),
              "fatal: overrides.timelineStats[1]: selector "
              "\"nope.prefix.\" selects no stat in job "
              "fig13-small/high/masstree/mix0 (Static)");

    // A dead selector in one variant's overrides: the variant's list
    // replaces the top-level one, so the path names the variant.
    ExperimentSpec variant = oneMix(shippedScenario("epoch_load_grid.json"));
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
    auto reject = [](const std::string &key, const JsonValue &value) {
        return fatalMessage([&] {
            loadAndCheck(patchedScenario("fig13_small.json", key, value));
        });
    };

    EXPECT_EQ(reject("bogusKey", JsonValue::makeU64(1)),
              "fatal: bogusKey: unknown key");
    EXPECT_EQ(reject("seed", JsonValue::parse("{\"nope\": 2}", "t")),
              "fatal: seed.nope: unknown key");
    EXPECT_EQ(reject("overrides",
                     JsonValue::parse("{\"llc\": {\"wayz\": 8}}", "t")),
              "fatal: llc.wayz: unknown key");

    JsonValue output = *shippedDocument("fig13_small.json").find("output");
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
    // 2 VMs x (1 LC + 1 batch) fill testTiny's 2x2 mesh.
    spec.mixes = {2, false, 2, 1, true};
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

    // Shared calibrations are per variant: with two router delays,
    // each variant's jobs must match a reference sweep of that
    // variant's own config, calibrations included.
    ExperimentSpec spec = tinyFig13Spec();
    spec.designs = {LlcDesign::Jumanji};
    spec.output.layout = "variant-table";
    spec.output.staticRow = false;
    std::vector<MixResult> reference;
    spec.variants.clear();
    for (Tick delay : {Tick{1}, Tick{3}}) {
        const std::string label = std::to_string(delay);
        spec.variants.push_back(
            {label,
             JsonValue::parse("{\"mesh\": {\"routerDelay\": " + label +
                                  "}}",
                              "variant"),
             0});
        SystemConfig cfg = base;
        cfg.mesh.routerDelay = delay;
        for (MixResult &result : referenceSweep(spec, cfg))
            reference.push_back(std::move(result));
    }
    driver::Orchestrator::Options opts;
    opts.jobs = 2;
    driver::Orchestrator orch(opts);
    EXPECT_EQ(fingerprintResults(driver::runSpec(spec, orch).results),
              fingerprintResults(reference))
        << "a variant's jobs ran with another variant's calibrations";
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
