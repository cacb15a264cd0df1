/**
 * @file
 * SystemConfig <-> JSON: the serialization half of the scenario
 * layer (docs/INTERNALS.md §12), and the config half of the result
 * cache's key.
 *
 * forEachField is the one list of result-affecting fields: a row per
 * field, giving its dotted path, its member and its codec (type and
 * range). applyConfigJson, toJson and foldConfig are each one walk
 * over it, so a field is read, written and keyed if and only if it
 * has a row. Adding a SystemConfig field means adding one row.
 *
 * Validation is strict and precise: unknown keys, type mismatches,
 * out-of-range values, and inconsistent geometry all throw
 * FatalError with a "field: reason" message naming the dotted path
 * ("mesh.cols: must be >= 1"), never a silent default.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "src/dnuca/vtb.hh"
#include "src/sim/fingerprint.hh"
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

// Codecs: each reads one member from JSON, enforcing its range, and
// writes it back.

/** An integer in [min, max] that fits the member's width. */
struct IntRange
{
    std::uint64_t min;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();

    template <typename T>
    void
    read(const JsonValue &v, const std::string &path, T &out) const
    {
        const std::uint64_t parsed = v.asU64(path);
        const std::uint64_t top =
            std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
        if (parsed < min)
            fatal(path + ": must be >= " + std::to_string(min));
        if (parsed > top)
            fatal(path + ": must be <= " + std::to_string(top));
        out = static_cast<T>(parsed);
    }
    JsonValue write(std::uint64_t v) const { return JsonValue::makeU64(v); }
};

/** A real in [min, max], or in (min, max] when minOpen. */
struct RealRange
{
    double min;
    double max;
    bool minOpen;

    void
    read(const JsonValue &v, const std::string &path, double &out) const
    {
        const double parsed = v.asDouble(path);
        if (minOpen ? parsed <= min : parsed < min)
            fatal(path + ": must be " + (minOpen ? "> " : ">= ") +
                  fmtDouble(min));
        if (parsed > max)
            fatal(path + ": must be <= " + fmtDouble(max));
        out = parsed;
    }
    JsonValue write(double v) const { return JsonValue::makeNumber(v); }
};

struct Flag
{
    void
    read(const JsonValue &v, const std::string &path, bool &out) const
    {
        out = v.asBool(path);
    }
    JsonValue write(bool v) const { return JsonValue::makeBool(v); }
};

std::string nameOf(ReplKind kind) { return replKindName(kind); }
std::string nameOf(LlcDesign design) { return llcDesignName(design); }
std::string nameOf(LoadLevel load) { return loadName(load); }
std::string nameOf(const std::string &name) { return name; }

/** One name of a fixed list; the member holds the value it names. */
template <typename T>
struct NameList
{
    const char *noun; // what the names name: "unknown <noun>"
    std::vector<T> values;

    T
    parse(const std::string &name, const std::string &path) const
    {
        std::string known;
        for (const T &value : values) {
            if (nameOf(value) == name) return value;
            known += (known.empty() ? "" : "|") + nameOf(value);
        }
        fatal(path + ": unknown " + noun + " \"" + name + "\" (" + known +
              ")");
    }
    void
    read(const JsonValue &v, const std::string &path, T &out) const
    {
        out = parse(v.asString(path), path);
    }
    JsonValue write(T v) const { return JsonValue::makeString(nameOf(v)); }
};

NameList<LlcDesign>
designNames()
{
    return {"design",
            {LlcDesign::Static, LlcDesign::Adaptive, LlcDesign::VMPart,
             LlcDesign::Jigsaw, LlcDesign::Jumanji,
             LlcDesign::JumanjiInsecure, LlcDesign::JumanjiIdealBatch}};
}

NameList<LoadLevel>
loadNames()
{
    return {"load", {LoadLevel::Low, LoadLevel::High}};
}

/** A list of strings, replaced whole. */
struct StringList
{
    void
    read(const JsonValue &v, const std::string &path,
         std::vector<std::string> &out) const
    {
        if (!v.isArray())
            fatal(path + ": expected array, got " + v.kindName());
        std::vector<std::string> parsed;
        for (std::size_t i = 0; i < v.items().size(); i++)
            parsed.push_back(v.items()[i].asString(
                path + "[" + std::to_string(i) + "]"));
        out = std::move(parsed);
    }
    JsonValue
    write(const std::vector<std::string> &v) const
    {
        JsonValue list = JsonValue::makeArray();
        for (const std::string &s : v) list.push(JsonValue::makeString(s));
        return list;
    }
};

/**
 * The one list of result-affecting fields of a (const) SystemConfig:
 * each row is visit(dotted path, member, codec), and a block's rows
 * stay together in the order toJson writes them. Observability
 * handles (tracer, traceLabel) are not data and have no row;
 * timelineStats selects the timeline columns a RunResult carries.
 */
template <typename Config, typename Visit>
void
forEachField(Config &cfg, Visit &&visit)
{
    visit("llc.banks", cfg.llc.banks, IntRange{1});
    visit("llc.setsPerBank", cfg.llc.setsPerBank, IntRange{1});
    // WayMask is a 64-bit bitmap; more than 64 ways cannot be masked.
    visit("llc.ways", cfg.llc.ways, IntRange{1, 64});
    visit("llc.repl", cfg.llc.repl,
          NameList<ReplKind>{"replacement policy",
                             {ReplKind::LRU, ReplKind::SRRIP,
                              ReplKind::BRRIP, ReplKind::DRRIP}});
    visit("llc.accessLatency", cfg.llc.timing.accessLatency, IntRange{1});
    visit("llc.ports", cfg.llc.timing.ports, IntRange{1});
    visit("llc.portOccupancy", cfg.llc.timing.portOccupancy, IntRange{1});

    visit("mesh.cols", cfg.mesh.cols, IntRange{1});
    visit("mesh.rows", cfg.mesh.rows, IntRange{1});
    visit("mesh.routerDelay", cfg.mesh.routerDelay, IntRange{0});
    visit("mesh.linkDelay", cfg.mesh.linkDelay, IntRange{0});
    visit("mesh.modelLinkContention", cfg.mesh.modelLinkContention, Flag{});

    visit("mem.accessLatency", cfg.mem.accessLatency, IntRange{1});
    visit("mem.controllers", cfg.mem.controllers, IntRange{1});

    visit("umon.sets", cfg.umon.sets, IntRange{1});
    visit("umon.ways", cfg.umon.ways, IntRange{1});

    auto &ctl = cfg.controller;
    visit("controller.lowFrac", ctl.lowFrac, RealRange{0, 10, true});
    visit("controller.highFrac", ctl.highFrac, RealRange{0, 10, true});
    visit("controller.panicFrac", ctl.panicFrac, RealRange{0, 10, true});
    visit("controller.stepFrac", ctl.stepFrac, RealRange{0, 1, true});

    visit("kv.trace", cfg.kv.trace,
          NameList<std::string>{"load trace", allLoadTraceNames()});
    visit("kv.peakMultiplier", cfg.kv.peakMultiplier, RealRange{1, 64, false});

    visit("design", cfg.design, designNames());
    visit("load", cfg.load, loadNames());
    visit("epochTicks", cfg.epochTicks, IntRange{1});
    visit("warmupTicks", cfg.warmupTicks, IntRange{0});
    visit("measureTicks", cfg.measureTicks, IntRange{1});
    // Seed 0 is reserved as "unset" across the project (JUMANJI_SEED
    // treats it as invalid), so configs must use >= 1.
    visit("seed", cfg.seed, IntRange{1});
    visit("capacityScale", cfg.capacityScale, RealRange{0, 1e6, true});
    visit("utilizationOverride", cfg.utilizationOverride,
          RealRange{0, 1, false});
    visit("fixedLcTargetLines", cfg.fixedLcTargetLines, IntRange{0});
    visit("hullCurves", cfg.hullCurves, Flag{});
    visit("rateNormalizeCurves", cfg.rateNormalizeCurves, Flag{});
    visit("migrateOnReconfig", cfg.migrateOnReconfig, Flag{});
    visit("timelineStats", cfg.timelineStats, StringList{});
}

/** "llc.ways" -> {"llc", "ways"}; "seed" -> {"", "seed"}. */
std::pair<std::string, std::string>
splitField(const std::string &field)
{
    const std::size_t dot = field.find('.');
    if (dot == std::string::npos) return {"", field};
    return {field.substr(0, dot), field.substr(dot + 1)};
}

} // namespace

LlcDesign
llcDesignFromName(const std::string &name, const std::string &path)
{
    return designNames().parse(name, path);
}

LoadLevel
loadLevelFromName(const std::string &name, const std::string &path)
{
    return loadNames().parse(name, path);
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
applyConfigJson(SystemConfig &cfg, const JsonValue &json,
                const std::string &path)
{
    ObjectReader root(json, path, "config");
    // A block's rows are adjacent, so one block reader is open at a
    // time; it rejects its unknown keys as the walk leaves the block.
    std::string blockName;
    std::optional<ObjectReader> block;
    forEachField(cfg, [&](const std::string &field, auto &member,
                          const auto &codec) {
        const auto [name, key] = splitField(field);
        if (name != blockName) {
            if (block) block->finish();
            block.reset();
            blockName = name;
            if (const JsonValue *v = name.empty() ? nullptr : root.get(name))
                block.emplace(*v, root.path(name));
        }
        ObjectReader *r = name.empty() ? &root : block ? &*block : nullptr;
        if (const JsonValue *v = r ? r->get(key) : nullptr)
            codec.read(*v, r->path(key), member);
    });
    if (block) block->finish();
    root.finish();
}

void
validateConfig(const SystemConfig &cfg, const std::string &path)
{
    const auto field = [&path](const char *name) {
        return path.empty() ? std::string(name) : path + "." + name;
    };
    // In 64 bits: a 32-bit product wraps (65536 x 65537 would pass
    // as 65536 tiles).
    const std::uint64_t tiles =
        static_cast<std::uint64_t>(cfg.mesh.cols) * cfg.mesh.rows;
    if (tiles > std::numeric_limits<std::uint32_t>::max())
        fatal(field("mesh.rows") + ": " + std::to_string(cfg.mesh.cols) +
              "x" + std::to_string(cfg.mesh.rows) + " = " +
              std::to_string(tiles) + " tiles (must be <= " +
              std::to_string(std::numeric_limits<std::uint32_t>::max()) +
              ")");
    if (cfg.llc.banks != tiles)
        fatal(field("llc.banks") + ": " + std::to_string(cfg.llc.banks) +
              " banks but mesh is " + std::to_string(cfg.mesh.cols) +
              "x" + std::to_string(cfg.mesh.rows) + " = " +
              std::to_string(tiles) +
              " tiles (banks must equal mesh tiles)");
    if (cfg.llc.banks > PlacementDescriptor::kSlots)
        fatal(field("llc.banks") + ": " + std::to_string(cfg.llc.banks) +
              " banks (must be <= " +
              std::to_string(PlacementDescriptor::kSlots) +
              ", the placement descriptor's slot count)");
    if (cfg.controller.lowFrac >= cfg.controller.highFrac)
        fatal(field("controller.lowFrac") +
              ": must be < controller.highFrac (" +
              fmtDouble(cfg.controller.lowFrac) + " >= " +
              fmtDouble(cfg.controller.highFrac) + ")");
    if (cfg.controller.highFrac >= cfg.controller.panicFrac)
        fatal(field("controller.highFrac") +
              ": must be < controller.panicFrac (" +
              fmtDouble(cfg.controller.highFrac) + " >= " +
              fmtDouble(cfg.controller.panicFrac) + ")");
    if (cfg.measureTicks < cfg.epochTicks)
        fatal(field("measureTicks") + ": must be >= epochTicks (" +
              std::to_string(cfg.measureTicks) + " < " +
              std::to_string(cfg.epochTicks) +
              "); the measurement window must cover at least one "
              "reconfiguration epoch");
}

JsonValue
SystemConfig::toJson() const
{
    JsonValue root = JsonValue::makeObject();
    std::string blockName;
    JsonValue block;
    const auto closeBlock = [&] {
        if (!blockName.empty()) root.set(blockName, std::move(block));
    };
    forEachField(*this, [&](const std::string &field, const auto &member,
                            const auto &codec) {
        const auto [name, key] = splitField(field);
        if (name != blockName) {
            closeBlock();
            blockName = name;
            block = JsonValue::makeObject();
        }
        (name.empty() ? root : block).set(key, codec.write(member));
    });
    closeBlock();
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

void
foldConfig(Fingerprint &fp, const SystemConfig &cfg)
{
    fp.addString(cfg.toJson().dump(-1));
}

} // namespace jumanji
