#include "src/driver/spec.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "src/driver/env.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"
#include "src/system/harness.hh"
#include "src/system/system.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/mixes.hh"

namespace jumanji {
namespace driver {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list measure;
    va_copy(measure, ap);
    // Sized from the formatted length: labels have no length limit.
    const int n = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    if (n > 0) {
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(n));
        // The NUL that vsnprintf ends with lands on the string's own
        // terminator, which may be overwritten with '\0'.
        std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1,
                       fmt, ap);
    }
    va_end(ap);
}

const std::vector<std::string> &
columnKeys()
{
    static const std::vector<std::string> keys = {
        "tailMean", "tailWorst", "batchWS", "batchWSMean",
        "attackers"};
    return keys;
}

std::vector<std::string>
lcNamesFromJson(const JsonValue &json, const std::string &path)
{
    if (json.isString()) {
        // "all" stays the TailBench catalog: KV apps opt in by name
        // so existing "all" sweeps keep their membership.
        if (json.asString(path) == "all") return allTailAppNames();
        fatal(path + ": expected \"all\" or an array of LC app names");
    }
    if (!json.isArray())
        fatal(path + ": expected \"all\" or an array of LC app names");
    const std::vector<std::string> known = allLcAppNames();
    std::vector<std::string> names;
    for (std::size_t i = 0; i < json.items().size(); i++) {
        std::string item = path + "[" + std::to_string(i) + "]";
        std::string name = json.items()[i].asString(item);
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal(item + ": unknown LC app \"" + name + "\"");
        names.push_back(std::move(name));
    }
    if (names.empty()) fatal(path + ": must name at least one LC app");
    return names;
}

SeedPolicy
seedPolicyFromJson(const JsonValue &json)
{
    SeedPolicy seed;
    ObjectReader r(json, "seed");
    if (const JsonValue *v = r.get("fromEnv"))
        seed.fromEnv = v->asBool(r.path("fromEnv"));
    if (const JsonValue *v = r.get("fallback")) {
        seed.fallback = v->asU64(r.path("fallback"));
        if (seed.fallback == 0)
            fatal("seed.fallback: must be >= 1 (0 is reserved as "
                  "\"unset\")");
    }
    r.finish();
    return seed;
}

MixPolicy
mixPolicyFromJson(const JsonValue &json)
{
    MixPolicy mixes;
    ObjectReader r(json, "mixes");
    if (const JsonValue *v = r.get("count")) {
        mixes.count = v->asU32(r.path("count"));
        if (mixes.count == 0) fatal("mixes.count: must be >= 1");
    }
    if (const JsonValue *v = r.get("fromEnv"))
        mixes.fromEnv = v->asBool(r.path("fromEnv"));
    if (const JsonValue *v = r.get("vms")) {
        mixes.vms = v->asU32(r.path("vms"));
        if (mixes.vms == 0) fatal("mixes.vms: must be >= 1");
    }
    if (const JsonValue *v = r.get("batchPerVm")) {
        mixes.batchPerVm = v->asU32(r.path("batchPerVm"));
        if (mixes.batchPerVm > 64)
            fatal("mixes.batchPerVm: must be <= 64");
    }
    if (const JsonValue *v = r.get("salt"))
        mixes.salt = v->asBool(r.path("salt"));
    r.finish();
    return mixes;
}

SpecOutput
outputFromJson(const JsonValue &json)
{
    SpecOutput out;
    ObjectReader r(json, "output");
    const JsonValue *title = r.get("title");
    if (title == nullptr) fatal("output.title: missing required key");
    out.title = title->asString("output.title");
    if (const JsonValue *v = r.get("caption"))
        out.caption = v->asString(r.path("caption"));
    if (const JsonValue *v = r.get("note"))
        out.note = v->asString(r.path("note"));
    if (const JsonValue *v = r.get("layout")) {
        out.layout = v->asString(r.path("layout"));
        if (out.layout != "design-table" &&
            out.layout != "variant-table")
            fatal("output.layout: expected \"design-table\" or "
                  "\"variant-table\", got \"" +
                  out.layout + "\"");
    }
    if (const JsonValue *v = r.get("sectionLabel"))
        out.sectionLabel = v->asString(r.path("sectionLabel"));
    if (const JsonValue *v = r.get("labelHeader"))
        out.labelHeader = v->asString(r.path("labelHeader"));
    if (const JsonValue *v = r.get("labelWidth")) {
        out.labelWidth = v->asU32(r.path("labelWidth"));
        if (out.labelWidth == 0 || out.labelWidth > 128)
            fatal("output.labelWidth: must be in [1, 128]");
    }
    if (const JsonValue *v = r.get("staticRow"))
        out.staticRow = v->asBool(r.path("staticRow"));
    const JsonValue *columns = r.get("columns");
    if (columns == nullptr)
        fatal("output.columns: missing required key");
    if (!columns->isArray() || columns->items().empty())
        fatal("output.columns: expected a non-empty array");
    for (std::size_t i = 0; i < columns->items().size(); i++) {
        std::string path = "output.columns[" + std::to_string(i) + "]";
        ObjectReader cr(columns->items()[i], path);
        SpecColumn col;
        const JsonValue *key = cr.get("key");
        if (key == nullptr) fatal(path + ".key: missing required key");
        col.key = key->asString(path + ".key");
        const auto &keys = columnKeys();
        // Dotted keys are registry leaves (e.g. apps.kv.spike.p95),
        // averaged over the cell's mixes at render time and resolved
        // against the live registry by checkSpec; bare keys must be
        // one of the aggregate columns.
        if (std::find(keys.begin(), keys.end(), col.key) ==
                keys.end() &&
            col.key.find('.') == std::string::npos) {
            std::string known;
            for (const std::string &k : keys)
                known += (known.empty() ? "" : "|") + k;
            fatal(path + ".key: unknown column key \"" + col.key +
                  "\" (" + known + ", or a dotted stat name)");
        }
        const JsonValue *header = cr.get("header");
        col.header = header != nullptr
                         ? header->asString(path + ".header")
                         : col.key;
        cr.finish();
        out.columns.push_back(std::move(col));
    }
    r.finish();
    return out;
}

/** Shape rules that span fields; fromJson and expandSpec both call. */
void
validateSpec(const ExperimentSpec &spec)
{
    if (spec.name.empty()) fatal("name: missing required key");
    if (spec.designs.empty())
        fatal("designs: must name at least one design");
    if (spec.loads.empty())
        fatal("loads: must name at least one load level");
    if (spec.groups.empty())
        fatal("groups: must contain at least one group");
    if (spec.variants.empty())
        fatal("variants: must contain at least one variant");
    if (spec.output.layout == "design-table" &&
        spec.variants.size() != 1)
        fatal("output.layout: design-table requires exactly one "
              "variant (got " +
              std::to_string(spec.variants.size()) + ")");
    if (spec.output.layout == "variant-table") {
        if (spec.designs.size() != 1)
            fatal("output.layout: variant-table requires exactly one "
                  "design (got " +
                  std::to_string(spec.designs.size()) + ")");
        for (std::size_t i = 0; i < spec.variants.size(); i++)
            if (spec.variants[i].label.empty())
                fatal("variants[" + std::to_string(i) +
                      "].label: variant-table rows need non-empty "
                      "labels");
        if (spec.output.staticRow)
            fatal("output.staticRow: only applies to design-table");
    }
    if (spec.output.sectionLabel.empty() &&
        (spec.loads.size() != 1 || spec.groups.size() != 1))
        fatal("output.sectionLabel: required when the grid has more "
              "than one (load, group) section");
    // Every "{...}" must be one expandTemplate knows; anything else
    // would print literally.
    const std::string &label = spec.output.sectionLabel;
    for (std::size_t i = label.find('{'); i != std::string::npos;
         i = label.find('{', i + 1)) {
        std::size_t end = label.find('}', i);
        if (end == std::string::npos) break;
        std::string key = label.substr(i + 1, end - i - 1);
        if (key != "load" && key != "group" && key != "mixes")
            fatal("output.sectionLabel: unknown placeholder \"{" + key +
                  "}\" (load|group|mixes)");
    }
}

/** Expands a section label whose placeholders validateSpec vetted. */
std::string
expandTemplate(const std::string &tmpl, const std::string &load,
               const std::string &group, std::uint32_t mixes)
{
    std::string out;
    for (std::size_t i = 0; i < tmpl.size(); i++) {
        std::size_t end =
            tmpl[i] == '{' ? tmpl.find('}', i) : std::string::npos;
        if (end == std::string::npos) {
            out += tmpl[i];
            continue;
        }
        std::string key = tmpl.substr(i + 1, end - i - 1);
        if (key == "load") out += load;
        else if (key == "group") out += group;
        else if (key == "mixes") out += std::to_string(mixes);
        else panic("unvalidated section-label placeholder {" + key + "}");
        i = end;
    }
    return out;
}

/** One rendered cell: the results of (variant, load, group). */
std::vector<const MixResult *>
cellResults(const ExperimentSpec &spec, const SpecRun &run,
            std::size_t variant, std::size_t load, std::size_t group)
{
    std::vector<const MixResult *> cell;
    for (std::uint32_t m = 0; m < run.plan.mixCount; m++)
        cell.push_back(&run.results[run.plan.jobIndex(
            variant, load, group, m, spec)]);
    return cell;
}

double
columnValue(const std::string &key,
            const std::vector<const MixResult *> &cell, LlcDesign d)
{
    double n = static_cast<double>(cell.size());
    if (key == "tailMean") {
        double sum = 0.0;
        for (const MixResult *mix : cell)
            sum += mix->of(d).run.stat("sys.tail.meanRatio");
        return sum / n;
    }
    if (key == "tailWorst") {
        double worst = 0.0;
        for (const MixResult *mix : cell)
            worst = std::max(worst,
                             mix->of(d).run.stat("sys.tail.worstRatio"));
        return worst;
    }
    if (key == "batchWS") {
        std::vector<double> values;
        for (const MixResult *mix : cell)
            values.push_back(mix->of(d).batchSpeedup);
        return gmean(values);
    }
    if (key == "batchWSMean") {
        double sum = 0.0;
        for (const MixResult *mix : cell)
            sum += mix->of(d).batchSpeedup;
        return sum / n;
    }
    if (key == "attackers") {
        double sum = 0.0;
        for (const MixResult *mix : cell)
            sum += mix->of(d).run.stat("sys.attackersPerAccess");
        return sum / n;
    }
    if (key.find('.') != std::string::npos) {
        // Dotted key: a registry leaf, averaged over the cell's
        // mixes (missing leaves read as 0 via RunResult::stat).
        double sum = 0.0;
        for (const MixResult *mix : cell)
            sum += mix->of(d).run.stat(key);
        return sum / n;
    }
    panic("unknown column key " + key);
}

void
renderHeaderRow(std::string &out, const SpecOutput &output)
{
    appendf(out, "%-*s", static_cast<int>(output.labelWidth),
            output.labelHeader.c_str());
    for (const SpecColumn &col : output.columns)
        appendf(out, " %12s", col.header.c_str());
    out += '\n';
}

void
renderRow(std::string &out, const SpecOutput &output,
          const std::string &label,
          const std::vector<const MixResult *> &cell, LlcDesign d)
{
    appendf(out, "%-*s", static_cast<int>(output.labelWidth),
            label.c_str());
    for (const SpecColumn &col : output.columns)
        appendf(out, " %12.3f", columnValue(col.key, cell, d));
    out += '\n';
}

} // namespace

ExperimentSpec
ExperimentSpec::fromJson(const JsonValue &json)
{
    ExperimentSpec spec;
    ObjectReader r(json, "", "scenario");

    const JsonValue *name = r.get("name");
    if (name == nullptr) fatal("name: missing required key");
    spec.name = name->asString("name");

    if (const JsonValue *v = r.get("preset")) {
        spec.preset = v->asString("preset");
        configPreset(spec.preset, "preset"); // validates the name
    }
    if (const JsonValue *v = r.get("overrides")) {
        if (!v->isObject())
            fatal("overrides: expected object, got " +
                  std::string(v->kindName()));
        // expandSpec sets the base seed from the seed policy, which
        // would silently replace this one.
        if (v->find("seed") != nullptr)
            fatal("overrides.seed: set the base seed with the "
                  "scenario's \"seed\" policy ({\"fallback\": N, "
                  "\"fromEnv\": false}), not an override");
        spec.overrides = *v;
    }
    if (const JsonValue *v = r.get("seed"))
        spec.seed = seedPolicyFromJson(*v);
    if (const JsonValue *v = r.get("mixes"))
        spec.mixes = mixPolicyFromJson(*v);

    const JsonValue *designs = r.get("designs");
    if (designs == nullptr) fatal("designs: missing required key");
    if (!designs->isArray())
        fatal("designs: expected array, got " +
              std::string(designs->kindName()));
    for (std::size_t i = 0; i < designs->items().size(); i++) {
        std::string path = "designs[" + std::to_string(i) + "]";
        spec.designs.push_back(
            llcDesignFromName(designs->items()[i].asString(path), path));
    }

    if (const JsonValue *v = r.get("loads")) {
        if (!v->isArray())
            fatal("loads: expected array, got " +
                  std::string(v->kindName()));
        spec.loads.clear();
        for (std::size_t i = 0; i < v->items().size(); i++) {
            std::string path = "loads[" + std::to_string(i) + "]";
            spec.loads.push_back(
                loadLevelFromName(v->items()[i].asString(path), path));
        }
    } else {
        spec.loads = {LoadLevel::High};
    }

    if (const JsonValue *v = r.get("groups")) {
        if (!v->isArray())
            fatal("groups: expected array, got " +
                  std::string(v->kindName()));
        for (std::size_t i = 0; i < v->items().size(); i++) {
            std::string path = "groups[" + std::to_string(i) + "]";
            ObjectReader gr(v->items()[i], path);
            SpecGroup group;
            const JsonValue *label = gr.get("label");
            if (label == nullptr)
                fatal(path + ".label: missing required key");
            group.label = label->asString(path + ".label");
            const JsonValue *lc = gr.get("lc");
            if (lc == nullptr)
                fatal(path + ".lc: missing required key");
            group.lcNames = lcNamesFromJson(*lc, path + ".lc");
            gr.finish();
            spec.groups.push_back(std::move(group));
        }
    } else {
        spec.groups = {{"Mixed", allTailAppNames()}};
    }

    if (const JsonValue *v = r.get("variants")) {
        if (!v->isArray())
            fatal("variants: expected array, got " +
                  std::string(v->kindName()));
        spec.variants.clear();
        for (std::size_t i = 0; i < v->items().size(); i++) {
            std::string path = "variants[" + std::to_string(i) + "]";
            ObjectReader vr(v->items()[i], path);
            SpecVariant variant;
            const JsonValue *label = vr.get("label");
            if (label == nullptr)
                fatal(path + ".label: missing required key");
            variant.label = label->asString(path + ".label");
            if (const JsonValue *ov = vr.get("overrides")) {
                if (!ov->isObject())
                    fatal(path + ".overrides: expected object, got " +
                          std::string(ov->kindName()));
                variant.overrides = *ov;
            }
            if (const JsonValue *rg = vr.get("regroupVms")) {
                variant.regroupVms = rg->asU32(path + ".regroupVms");
                if (variant.regroupVms == 0)
                    fatal(path + ".regroupVms: must be >= 1 when "
                          "present");
            }
            vr.finish();
            spec.variants.push_back(std::move(variant));
        }
    } else {
        spec.variants = {SpecVariant{}};
    }

    if (const JsonValue *v = r.get("calibration")) {
        std::string mode = v->asString("calibration");
        if (mode == "shared") {
            spec.calibration = CalibrationMode::Shared;
        } else if (mode == "perJob") {
            spec.calibration = CalibrationMode::PerJob;
        } else {
            fatal("calibration: expected \"shared\" or \"perJob\", "
                  "got \"" +
                  mode + "\"");
        }
    }

    const JsonValue *output = r.get("output");
    if (output == nullptr) fatal("output: missing required key");
    spec.output = outputFromJson(*output);

    r.finish();
    validateSpec(spec);
    return spec;
}

ExperimentSpec
ExperimentSpec::fromFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) fatal("cannot open " + path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return fromJson(JsonValue::parse(text, path));
}

SpecPlan
expandSpec(const ExperimentSpec &spec)
{
    validateSpec(spec);

    SpecPlan plan;
    plan.base = configPreset(spec.preset, "preset");
    if (!spec.overrides.isNull())
        applyConfigJson(plan.base, spec.overrides, "overrides");
    // The seed policy alone sets the base seed (fromJson rejects a
    // top-level "seed" override); a variant may still fix its own.
    plan.base.seed = spec.seed.fromEnv ? seedFromEnv(spec.seed.fallback)
                                       : spec.seed.fallback;
    validateConfig(plan.base, "overrides");

    for (std::size_t v = 0; v < spec.variants.size(); v++) {
        SystemConfig cfg = plan.base;
        const std::string path =
            "variants[" + std::to_string(v) + "].overrides";
        if (!spec.variants[v].overrides.isNull())
            applyConfigJson(cfg, spec.variants[v].overrides, path);
        validateConfig(cfg, path);
        plan.variantConfigs.push_back(std::move(cfg));
    }

    // A mix puts one app on each tile. Reject one that cannot fit
    // before makeMix allocates it: vms alone may be up to 2^32-1.
    const std::uint64_t apps = std::uint64_t{spec.mixes.vms} *
                               (std::uint64_t{spec.mixes.batchPerVm} + 1);
    for (std::size_t v = 0; v < plan.variantConfigs.size(); v++) {
        const MeshParams &mesh = plan.variantConfigs[v].mesh;
        const std::uint64_t tiles = std::uint64_t{mesh.cols} * mesh.rows;
        if (apps > tiles)
            fatal("mixes.vms: " + std::to_string(spec.mixes.vms) +
                  " VMs x (1 LC + " +
                  std::to_string(spec.mixes.batchPerVm) + " batch) = " +
                  std::to_string(apps) + " apps, more than the " +
                  std::to_string(mesh.cols) + "x" +
                  std::to_string(mesh.rows) + " = " +
                  std::to_string(tiles) + " tiles of variants[" +
                  std::to_string(v) + "]" +
                  (spec.variants[v].label.empty()
                       ? ""
                       : " (\"" + spec.variants[v].label + "\")"));
    }

    plan.mixCount = spec.mixes.fromEnv
                        ? mixCountFromEnv(spec.mixes.count)
                        : spec.mixes.count;

    // Expansion order contract: variants → loads → groups → mixes.
    // This loop is the one place the methodology's derivations live:
    // per-mix seed base.seed + m * 1000003, mix RNG seeded with that
    // seed, salted with ^ 0x5eed for the sweep-style specs.
    // Calibrations are planned in the same pass, in first-seen order:
    // each LC app is requested once per scope — the variant (Shared)
    // or the job (PerJob) — with the config of the scope's first job
    // whose mix contains it, as one lazily calibrating sweep over the
    // scope's jobs would calibrate it.
    const bool perJob = spec.calibration == CalibrationMode::PerJob;
    std::map<std::pair<std::size_t, std::string>, std::size_t> planned;
    for (std::size_t v = 0; v < spec.variants.size(); v++) {
        const SystemConfig &variantCfg = plan.variantConfigs[v];
        for (std::size_t l = 0; l < spec.loads.size(); l++) {
            for (std::size_t g = 0; g < spec.groups.size(); g++) {
                const SpecGroup &group = spec.groups[g];
                for (std::uint32_t m = 0; m < plan.mixCount; m++) {
                    SweepJob job;
                    job.label = (spec.variants[v].label.empty()
                                     ? spec.name
                                     : spec.variants[v].label) +
                                "/" + loadName(spec.loads[l]) + "/" +
                                group.label + "/mix" +
                                std::to_string(m);
                    job.config = variantCfg;
                    // One trace lane name per job (traceLabel is
                    // outside config fingerprints and cache keys).
                    job.config.traceLabel = job.label;
                    job.config.seed =
                        variantCfg.seed + m * 1000003ull;
                    Rng mixRng(job.config.seed ^
                               (spec.mixes.salt ? 0x5eedull : 0ull));
                    job.mix =
                        makeMix(group.lcNames, spec.mixes.vms,
                                spec.mixes.batchPerVm, mixRng);
                    if (spec.variants[v].regroupVms > 0)
                        job.mix = regroupMix(
                            job.mix, spec.variants[v].regroupVms);
                    job.designs = spec.designs;
                    job.load = spec.loads[l];
                    job.selfCalibrate = perJob;
                    const std::size_t scope =
                        perJob ? plan.graph.size() : v;
                    std::vector<std::size_t> &needs =
                        plan.jobCalibrations.emplace_back();
                    for (const VmSpec &vm : job.mix.vms) {
                        for (const std::string &lc : vm.lcApps) {
                            const auto [it, fresh] = planned.try_emplace(
                                {scope, lc}, plan.calibrationPlan.size());
                            if (fresh)
                                plan.calibrationPlan.push_back(
                                    {lc, job.config});
                            if (std::find(needs.begin(), needs.end(),
                                          it->second) == needs.end())
                                needs.push_back(it->second);
                        }
                    }
                    plan.graph.add(std::move(job));
                }
            }
        }
    }
    return plan;
}

void
checkSpec(const ExperimentSpec &spec)
{
    const SpecPlan plan = expandSpec(spec);
    for (JobId id = 0; id < plan.graph.size(); id++) {
        const SweepJob &job = plan.graph.job(id);
        // Name the patch the job's selectors came from: a variant's
        // timelineStats replaces the top-level one, which replaces
        // the preset's.
        const std::size_t v = plan.variantOf(id, spec);
        std::string selectorPath = "timelineStats";
        if (spec.variants[v].overrides.find("timelineStats") != nullptr)
            selectorPath = "variants[" + std::to_string(v) +
                           "].overrides.timelineStats";
        else if (spec.overrides.find("timelineStats") != nullptr)
            selectorPath = "overrides.timelineStats";

        for (const SystemConfig &cfg :
             designConfigs(job.config, job.designs, job.load)) {
            const System system(cfg, job.mix, job.calibrations);
            const StatRegistry &reg = system.stats();
            const std::string where = " in job " + job.label + " (" +
                                      llcDesignName(cfg.design) + ")";
            const std::vector<std::string> leaves = reg.leaves({""});
            for (std::size_t c = 0; c < spec.output.columns.size();
                 c++) {
                const std::string &key = spec.output.columns[c].key;
                if (key.find('.') != std::string::npos &&
                    !std::binary_search(leaves.begin(), leaves.end(),
                                        key))
                    fatal("output.columns[" + std::to_string(c) +
                          "].key: no stat \"" + key + "\"" + where);
            }
            for (std::size_t s = 0; s < cfg.timelineStats.size(); s++)
                if (reg.leaves({cfg.timelineStats[s]}).empty())
                    fatal(selectorPath + "[" + std::to_string(s) +
                          "]: selector \"" + cfg.timelineStats[s] +
                          "\" selects no stat" + where);
        }
    }
}

SpecRun
runSpec(const ExperimentSpec &spec, Orchestrator &orchestrator)
{
    SpecRun run;
    run.plan = expandSpec(spec);

    const std::vector<LcCalibration> calibrations =
        orchestrator.runCalibrations(run.plan.calibrationPlan);
    for (JobId id = 0; id < run.plan.graph.size(); id++) {
        SweepJob &job = run.plan.graph.mutableJob(id);
        for (std::size_t i : run.plan.jobCalibrations[id])
            job.calibrations[run.plan.calibrationPlan[i].lcName] =
                calibrations[i];
    }

    std::vector<JobOutcome> outcomes =
        orchestrator.run(run.plan.graph);
    run.results.reserve(outcomes.size());
    for (JobId id = 0; id < outcomes.size(); id++) {
        if (!outcomes[id].ok)
            fatal("job " + run.plan.graph.job(id).label +
                  " failed: " + outcomes[id].error);
        run.results.push_back(std::move(outcomes[id].result));
    }
    return run;
}

std::string
renderSpecTable(const ExperimentSpec &spec, const SpecRun &run)
{
    const SpecOutput &output = spec.output;
    std::string out;

    for (std::size_t l = 0; l < spec.loads.size(); l++) {
        for (std::size_t g = 0; g < spec.groups.size(); g++) {
            if (!output.sectionLabel.empty()) {
                out += '\n';
                out += expandTemplate(output.sectionLabel,
                                      loadName(spec.loads[l]),
                                      spec.groups[g].label,
                                      run.plan.mixCount);
                out += '\n';
            }
            renderHeaderRow(out, output);

            if (output.layout == "design-table") {
                std::vector<const MixResult *> cell =
                    cellResults(spec, run, 0, l, g);
                std::vector<LlcDesign> rows;
                if (output.staticRow)
                    rows.push_back(LlcDesign::Static);
                for (LlcDesign d : spec.designs) rows.push_back(d);
                for (LlcDesign d : rows)
                    renderRow(out, output, llcDesignName(d), cell, d);
            } else {
                for (std::size_t v = 0; v < spec.variants.size();
                     v++) {
                    std::vector<const MixResult *> cell =
                        cellResults(spec, run, v, l, g);
                    renderRow(out, output, spec.variants[v].label,
                              cell, spec.designs[0]);
                }
            }
        }
    }
    return out;
}

std::string
renderSpec(const ExperimentSpec &spec, const SpecRun &run)
{
    std::string out;
    const std::string rule(58, '=');
    out += rule + "\n";
    out += spec.output.title + " — " + spec.output.caption + "\n";
    out += rule + "\n";
    out += renderSpecTable(spec, run);
    if (!spec.output.note.empty())
        out += "note: " + spec.output.note + "\n";
    return out;
}

} // namespace driver
} // namespace jumanji
