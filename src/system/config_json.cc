/**
 * @file
 * SystemConfig <-> JSON: the serialization half of the scenario
 * layer (docs/INTERNALS.md §12).
 *
 * The discipline mirrors foldConfig (config.cc): every
 * result-affecting field appears in toJson and is accepted by
 * applyConfigJson, so a config is fully reconstructible from its
 * JSON form — proven by the fingerprint round-trip test
 * (tests/test_spec.cc). Adding a SystemConfig field means updating
 * foldConfig, toJson, and applyConfigJson together.
 *
 * Validation is strict and precise: unknown keys, type mismatches,
 * out-of-range values, and inconsistent geometry all throw
 * FatalError with a "field: reason" message naming the dotted path
 * ("mesh.cols: must be >= 1"), never a silent default.
 */

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/system/config.hh"
#include "src/workloads/kv/load_trace.hh"

namespace jumanji {

namespace {

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

// Typed field setters: assign only when the key is present, with the
// range stated once and enforced at parse time.

void
setU32(ObjectReader &r, const std::string &key, std::uint32_t &out,
       std::uint32_t min, std::uint32_t max = 0xffffffffu)
{
    const JsonValue *v = r.get(key);
    if (v == nullptr) return;
    std::uint32_t parsed = v->asU32(r.path(key));
    if (parsed < min)
        fatal(r.path(key) + ": must be >= " + std::to_string(min));
    if (parsed > max)
        fatal(r.path(key) + ": must be <= " + std::to_string(max));
    out = parsed;
}

void
setU64(ObjectReader &r, const std::string &key, std::uint64_t &out,
       std::uint64_t min)
{
    const JsonValue *v = r.get(key);
    if (v == nullptr) return;
    std::uint64_t parsed = v->asU64(r.path(key));
    if (parsed < min)
        fatal(r.path(key) + ": must be >= " + std::to_string(min));
    out = parsed;
}

void
setDouble(ObjectReader &r, const std::string &key, double &out,
          double min, double max, bool minExclusive)
{
    const JsonValue *v = r.get(key);
    if (v == nullptr) return;
    double parsed = v->asDouble(r.path(key));
    if (minExclusive ? parsed <= min : parsed < min)
        fatal(r.path(key) + ": must be " +
              (minExclusive ? "> " : ">= ") + fmtDouble(min));
    if (parsed > max)
        fatal(r.path(key) + ": must be <= " + fmtDouble(max));
    out = parsed;
}

void
setBool(ObjectReader &r, const std::string &key, bool &out)
{
    const JsonValue *v = r.get(key);
    if (v == nullptr) return;
    out = v->asBool(r.path(key));
}

ReplKind
replKindFromName(const std::string &name, const std::string &path)
{
    for (ReplKind kind : {ReplKind::LRU, ReplKind::SRRIP,
                          ReplKind::BRRIP, ReplKind::DRRIP})
        if (name == replKindName(kind)) return kind;
    fatal(path + ": unknown replacement policy \"" + name +
          "\" (LRU|SRRIP|BRRIP|DRRIP)");
}

void
applyLlc(LlcParams &llc, const JsonValue &json)
{
    ObjectReader r(json, "llc");
    setU32(r, "banks", llc.banks, 1);
    setU32(r, "setsPerBank", llc.setsPerBank, 1);
    // WayMask is a 64-bit bitmap; more than 64 ways cannot be masked.
    setU32(r, "ways", llc.ways, 1, 64);
    if (const JsonValue *v = r.get("repl"))
        llc.repl = replKindFromName(v->asString(r.path("repl")),
                                    r.path("repl"));
    setU64(r, "accessLatency", llc.timing.accessLatency, 1);
    setU32(r, "ports", llc.timing.ports, 1);
    setU64(r, "portOccupancy", llc.timing.portOccupancy, 1);
    r.finish();
}

void
applyMesh(MeshParams &mesh, const JsonValue &json)
{
    ObjectReader r(json, "mesh");
    setU32(r, "cols", mesh.cols, 1);
    setU32(r, "rows", mesh.rows, 1);
    setU64(r, "routerDelay", mesh.routerDelay, 0);
    setU64(r, "linkDelay", mesh.linkDelay, 0);
    setU32(r, "dataFlits", mesh.dataFlits, 1);
    setBool(r, "modelLinkContention", mesh.modelLinkContention);
    r.finish();
}

void
applyMem(MemoryParams &mem, const JsonValue &json)
{
    ObjectReader r(json, "mem");
    setU64(r, "accessLatency", mem.accessLatency, 1);
    setU64(r, "serviceInterval", mem.serviceInterval, 1);
    setU32(r, "controllers", mem.controllers, 1);
    setBool(r, "partitionBandwidth", mem.partitionBandwidth);
    r.finish();
}

void
applyUmon(UmonParams &umon, const JsonValue &json)
{
    ObjectReader r(json, "umon");
    setU32(r, "sets", umon.sets, 1);
    setU32(r, "ways", umon.ways, 1);
    setU64(r, "modelledLines", umon.modelledLines, 1);
    r.finish();
}

void
applyController(ControllerParams &ctl, const JsonValue &json)
{
    ObjectReader r(json, "controller");
    setDouble(r, "lowFrac", ctl.lowFrac, 0.0, 10.0, true);
    setDouble(r, "highFrac", ctl.highFrac, 0.0, 10.0, true);
    setDouble(r, "panicFrac", ctl.panicFrac, 0.0, 10.0, true);
    setDouble(r, "stepFrac", ctl.stepFrac, 0.0, 1.0, true);
    setU32(r, "configurationInterval", ctl.configurationInterval, 1);
    setDouble(r, "percentile", ctl.percentile, 0.0, 100.0, true);
    r.finish();
}

void
applyKv(KvTrafficConfig &kv, const JsonValue &json)
{
    ObjectReader r(json, "kv");
    if (const JsonValue *v = r.get("trace")) {
        std::string name = v->asString(r.path("trace"));
        bool known = false;
        for (const std::string &t : allLoadTraceNames())
            if (t == name) known = true;
        if (!known) {
            std::string list;
            for (const std::string &t : allLoadTraceNames())
                list += (list.empty() ? "" : "|") + t;
            fatal(r.path("trace") + ": unknown load trace \"" +
                  name + "\" (" + list + ")");
        }
        kv.trace = name;
    }
    setDouble(r, "peakMultiplier", kv.peakMultiplier, 1.0, 64.0,
              false);
    setDouble(r, "loadScale", kv.loadScale, 0.0, 1e3, true);
    r.finish();
}

} // namespace

LlcDesign
llcDesignFromName(const std::string &name, const std::string &path)
{
    for (LlcDesign d :
         {LlcDesign::Static, LlcDesign::Adaptive, LlcDesign::VMPart,
          LlcDesign::Jigsaw, LlcDesign::Jumanji,
          LlcDesign::JumanjiInsecure, LlcDesign::JumanjiIdealBatch})
        if (name == llcDesignName(d)) return d;
    fatal(path + ": unknown design \"" + name +
          "\" (Static|Adaptive|VM-Part|Jigsaw|Jumanji|"
          "Jumanji-Insecure|Jumanji-IdealBatch)");
}

LoadLevel
loadLevelFromName(const std::string &name, const std::string &path)
{
    if (name == loadName(LoadLevel::Low)) return LoadLevel::Low;
    if (name == loadName(LoadLevel::High)) return LoadLevel::High;
    fatal(path + ": unknown load \"" + name + "\" (low|high)");
}

SystemConfig
configPreset(const std::string &name, const std::string &path)
{
    if (name == "paperDefault") return SystemConfig::paperDefault();
    if (name == "benchScaled") return SystemConfig::benchScaled();
    if (name == "testTiny") return SystemConfig::testTiny();
    fatal(path + ": unknown preset \"" + name +
          "\" (paperDefault|benchScaled|testTiny)");
}

void
applyConfigJson(SystemConfig &cfg, const JsonValue &json)
{
    ObjectReader r(json, "", "config");
    if (const JsonValue *v = r.get("llc")) applyLlc(cfg.llc, *v);
    if (const JsonValue *v = r.get("mesh")) applyMesh(cfg.mesh, *v);
    if (const JsonValue *v = r.get("mem")) applyMem(cfg.mem, *v);
    if (const JsonValue *v = r.get("umon")) applyUmon(cfg.umon, *v);
    if (const JsonValue *v = r.get("controller"))
        applyController(cfg.controller, *v);
    if (const JsonValue *v = r.get("kv")) applyKv(cfg.kv, *v);

    if (const JsonValue *v = r.get("design"))
        cfg.design = llcDesignFromName(v->asString("design"), "design");
    if (const JsonValue *v = r.get("load"))
        cfg.load = loadLevelFromName(v->asString("load"), "load");

    setU64(r, "epochTicks", cfg.epochTicks, 1);
    setU64(r, "warmupTicks", cfg.warmupTicks, 0);
    setU64(r, "measureTicks", cfg.measureTicks, 1);
    // Seed 0 is reserved as "unset" across the project (JUMANJI_SEED
    // treats it as invalid), so configs must use >= 1.
    setU64(r, "seed", cfg.seed, 1);
    setDouble(r, "capacityScale", cfg.capacityScale, 0.0, 1e6, true);
    setDouble(r, "utilizationOverride", cfg.utilizationOverride, 0.0,
              1.0, false);
    setU64(r, "fixedLcTargetLines", cfg.fixedLcTargetLines, 0);
    setDouble(r, "nominalLlcLatency", cfg.nominalLlcLatency, 0.0, 1e9,
              true);
    setBool(r, "hullCurves", cfg.hullCurves);
    setBool(r, "rateNormalizeCurves", cfg.rateNormalizeCurves);
    setBool(r, "migrateOnReconfig", cfg.migrateOnReconfig);
    setDouble(r, "deadlinePadding", cfg.deadlinePadding, 0.0, 1e3,
              true);

    if (const JsonValue *v = r.get("timelineStats")) {
        if (!v->isArray())
            fatal("timelineStats: expected array, got " +
                  std::string(v->kindName()));
        std::vector<std::string> selectors;
        for (std::size_t i = 0; i < v->items().size(); i++)
            selectors.push_back(v->items()[i].asString(
                "timelineStats[" + std::to_string(i) + "]"));
        cfg.timelineStats = std::move(selectors);
    }
    r.finish();
}

void
validateConfig(const SystemConfig &cfg)
{
    // In 64 bits: a 32-bit product wraps (65536 x 65537 would pass
    // as 65536 tiles).
    const std::uint64_t tiles =
        static_cast<std::uint64_t>(cfg.mesh.cols) * cfg.mesh.rows;
    if (tiles > std::numeric_limits<std::uint32_t>::max())
        fatal("mesh.rows: " + std::to_string(cfg.mesh.cols) + "x" +
              std::to_string(cfg.mesh.rows) + " = " +
              std::to_string(tiles) + " tiles (must be <= " +
              std::to_string(std::numeric_limits<std::uint32_t>::max()) +
              ")");
    if (cfg.llc.banks != tiles)
        fatal("llc.banks: " + std::to_string(cfg.llc.banks) +
              " banks but mesh is " + std::to_string(cfg.mesh.cols) +
              "x" + std::to_string(cfg.mesh.rows) + " = " +
              std::to_string(tiles) +
              " tiles (banks must equal mesh tiles)");
    if (cfg.controller.lowFrac >= cfg.controller.highFrac)
        fatal("controller.lowFrac: must be < controller.highFrac (" +
              fmtDouble(cfg.controller.lowFrac) + " >= " +
              fmtDouble(cfg.controller.highFrac) + ")");
    if (cfg.controller.highFrac >= cfg.controller.panicFrac)
        fatal("controller.highFrac: must be < controller.panicFrac (" +
              fmtDouble(cfg.controller.highFrac) + " >= " +
              fmtDouble(cfg.controller.panicFrac) + ")");
    if (cfg.measureTicks < cfg.epochTicks)
        fatal("measureTicks: must be >= epochTicks (" +
              std::to_string(cfg.measureTicks) + " < " +
              std::to_string(cfg.epochTicks) +
              "); the measurement window must cover at least one "
              "reconfiguration epoch");
}

JsonValue
SystemConfig::toJson() const
{
    JsonValue root = JsonValue::makeObject();

    JsonValue jLlc = JsonValue::makeObject();
    jLlc.set("banks", JsonValue::makeU64(llc.banks));
    jLlc.set("setsPerBank", JsonValue::makeU64(llc.setsPerBank));
    jLlc.set("ways", JsonValue::makeU64(llc.ways));
    jLlc.set("repl",
             JsonValue::makeString(replKindName(llc.repl)));
    jLlc.set("accessLatency",
             JsonValue::makeU64(llc.timing.accessLatency));
    jLlc.set("ports", JsonValue::makeU64(llc.timing.ports));
    jLlc.set("portOccupancy",
             JsonValue::makeU64(llc.timing.portOccupancy));
    root.set("llc", std::move(jLlc));

    JsonValue jMesh = JsonValue::makeObject();
    jMesh.set("cols", JsonValue::makeU64(mesh.cols));
    jMesh.set("rows", JsonValue::makeU64(mesh.rows));
    jMesh.set("routerDelay", JsonValue::makeU64(mesh.routerDelay));
    jMesh.set("linkDelay", JsonValue::makeU64(mesh.linkDelay));
    jMesh.set("dataFlits", JsonValue::makeU64(mesh.dataFlits));
    jMesh.set("modelLinkContention",
              JsonValue::makeBool(mesh.modelLinkContention));
    root.set("mesh", std::move(jMesh));

    JsonValue jMem = JsonValue::makeObject();
    jMem.set("accessLatency", JsonValue::makeU64(mem.accessLatency));
    jMem.set("serviceInterval",
             JsonValue::makeU64(mem.serviceInterval));
    jMem.set("controllers", JsonValue::makeU64(mem.controllers));
    jMem.set("partitionBandwidth",
             JsonValue::makeBool(mem.partitionBandwidth));
    root.set("mem", std::move(jMem));

    JsonValue jUmon = JsonValue::makeObject();
    jUmon.set("sets", JsonValue::makeU64(umon.sets));
    jUmon.set("ways", JsonValue::makeU64(umon.ways));
    jUmon.set("modelledLines",
              JsonValue::makeU64(umon.modelledLines));
    root.set("umon", std::move(jUmon));

    JsonValue jCtl = JsonValue::makeObject();
    jCtl.set("lowFrac", JsonValue::makeNumber(controller.lowFrac));
    jCtl.set("highFrac", JsonValue::makeNumber(controller.highFrac));
    jCtl.set("panicFrac", JsonValue::makeNumber(controller.panicFrac));
    jCtl.set("stepFrac", JsonValue::makeNumber(controller.stepFrac));
    jCtl.set("configurationInterval",
             JsonValue::makeU64(controller.configurationInterval));
    jCtl.set("percentile",
             JsonValue::makeNumber(controller.percentile));
    root.set("controller", std::move(jCtl));

    JsonValue jKv = JsonValue::makeObject();
    jKv.set("trace", JsonValue::makeString(kv.trace));
    jKv.set("peakMultiplier",
            JsonValue::makeNumber(kv.peakMultiplier));
    jKv.set("loadScale", JsonValue::makeNumber(kv.loadScale));
    root.set("kv", std::move(jKv));

    root.set("design",
             JsonValue::makeString(llcDesignName(design)));
    root.set("load", JsonValue::makeString(loadName(load)));
    root.set("epochTicks", JsonValue::makeU64(epochTicks));
    root.set("warmupTicks", JsonValue::makeU64(warmupTicks));
    root.set("measureTicks", JsonValue::makeU64(measureTicks));
    root.set("seed", JsonValue::makeU64(seed));
    root.set("capacityScale", JsonValue::makeNumber(capacityScale));
    root.set("utilizationOverride",
             JsonValue::makeNumber(utilizationOverride));
    root.set("fixedLcTargetLines",
             JsonValue::makeU64(fixedLcTargetLines));
    root.set("nominalLlcLatency",
             JsonValue::makeNumber(nominalLlcLatency));
    root.set("hullCurves", JsonValue::makeBool(hullCurves));
    root.set("rateNormalizeCurves",
             JsonValue::makeBool(rateNormalizeCurves));
    root.set("migrateOnReconfig",
             JsonValue::makeBool(migrateOnReconfig));
    root.set("deadlinePadding",
             JsonValue::makeNumber(deadlinePadding));

    JsonValue jStats = JsonValue::makeArray();
    for (const std::string &sel : timelineStats)
        jStats.push(JsonValue::makeString(sel));
    root.set("timelineStats", std::move(jStats));
    return root;
}

SystemConfig
SystemConfig::fromJson(const JsonValue &json)
{
    SystemConfig cfg;
    applyConfigJson(cfg, json);
    validateConfig(cfg);
    return cfg;
}

} // namespace jumanji
