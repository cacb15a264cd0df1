/**
 * @file
 * Top-level system configuration (Table II) and time-scaled presets.
 *
 * paperDefault() reproduces Table II exactly. benchScaled() keeps the
 * geometry and all policy parameters but shrinks the reconfiguration
 * epoch and measurement windows so the full benchmark suite runs in
 * minutes instead of the paper's 969 trillion simulated cycles; load
 * levels (10%/50% utilization) are expressed as ratios, so the
 * relative results are preserved (see DESIGN.md).
 *
 * Every result-affecting field has one row in forEachField
 * (config_json.cc), which gives its JSON path and range; the JSON
 * reader, the writer and the result-cache key all walk that table.
 * Adding such a field means adding one row.
 */

#ifndef JUMANJI_SYSTEM_CONFIG_HH
#define JUMANJI_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/feedback_controller.hh"
#include "src/core/policies.hh"
#include "src/cpu/mem_path.hh"
#include "src/dnuca/umon.hh"
#include "src/mem/memory.hh"
#include "src/noc/mesh.hh"
#include "src/sim/types.hh"

namespace jumanji {

class Tracer;
class JsonValue;

/** Load levels from Table III (fraction of service capacity). */
enum class LoadLevel
{
    Low,  ///< 10% utilization
    High, ///< 50% utilization
};

inline double
loadUtilization(LoadLevel load)
{
    return load == LoadLevel::Low ? 0.10 : 0.50;
}

inline const char *
loadName(LoadLevel load)
{
    return load == LoadLevel::Low ? "low" : "high";
}

/**
 * Traffic shaping for KV-serving LC apps (src/workloads/kv/). Only
 * consulted when the mix contains a KV app; plain TailBench mixes
 * ignore it entirely, so default-valued kv fields leave existing
 * runs untouched.
 */
struct KvTrafficConfig
{
    /** Load-trace preset name (see allLoadTraceNames()). */
    std::string trace = "flat";
    /** Peak/spike load as a multiple of the base rate. */
    double peakMultiplier = 4.0;
};

/** Full system configuration. */
struct SystemConfig
{
    LlcParams llc;
    MeshParams mesh;
    MemoryParams mem;
    UmonParams umon;
    ControllerParams controller;

    LlcDesign design = LlcDesign::Jumanji;
    LoadLevel load = LoadLevel::High;

    /** Reconfiguration period, cycles (paper: 100 ms = 266 Mcycles). */
    Tick epochTicks = 500000;
    /** Warmup before measurement, cycles. */
    Tick warmupTicks = 1500000;
    /** Measurement window, cycles. */
    Tick measureTicks = 3000000;

    /** Master seed: all randomness derives from it. */
    std::uint64_t seed = 1;

    /**
     * Capacity scale: all workload footprints are multiplied by this
     * factor when apps are instantiated. benchScaled() shrinks banks
     * and footprints together by 4x (128 of 512 sets per bank, scale
     * 0.25) so that the compressed time scale can still warm and
     * exercise the full cache; every capacity *ratio* (footprint vs.
     * LLC, allocation vs. deadline) is preserved. paperDefault()
     * keeps 1.0.
     */
    double capacityScale = 1.0;

    /**
     * When > 0, overrides the LoadLevel utilization (used by the
     * harness's service-time calibration runs).
     */
    double utilizationOverride = 0.0;

    /**
     * When > 0, latency-critical allocations are pinned to this many
     * lines instead of being feedback-controlled (Fig. 8 and Fig. 12
     * study fixed partitions).
     */
    std::uint64_t fixedLcTargetLines = 0;

    // ---- Ablation switches (bench/ablation_design_choices) ----

    /** Convex-hull miss curves (the paper's DRRIP approximation). */
    bool hullCurves = true;
    /** Rate-normalize batch curves (see RuntimeAppInfo). */
    bool rateNormalizeCurves = true;
    /**
     * Migrate lines on reconfiguration (the scaled-simulator model
     * of the background coherence walk); false = invalidate them as
     * the Jigsaw hardware literally does, which at compressed epoch
     * length over-penalizes reconfiguration (DESIGN.md).
     */
    bool migrateOnReconfig = true;

    /** KV-serving traffic shape (ignored by non-KV mixes). */
    KvTrafficConfig kv;

    // ---- Observability ----

    /**
     * Event tracer (non-owning; nullptr = tracing off, the default).
     * The System allocates its own lane block via Tracer::beginRun,
     * so several Systems may share one tracer.
     */
    Tracer *tracer = nullptr;

    /** Label prefixed to this run's trace process names. */
    std::string traceLabel = "system";

    /**
     * Dotted-name prefixes selecting which registry leaves the
     * per-epoch recorder samples (see EpochRecorder).
     */
    std::vector<std::string> timelineStats = {"apps.", "epoch.",
                                              "llc.bank", "runtime."};

    /** Table II parameters with paper-scale time constants. */
    static SystemConfig paperDefault();

    /** Table II geometry with bench-scale time constants. */
    static SystemConfig benchScaled();

    /** A tiny geometry for unit tests (4 banks, 2x2 mesh). */
    static SystemConfig testTiny();

    /** Derived placement geometry. */
    PlacementGeometry placementGeometry() const;

    // ---- Serialization (docs/INTERNALS.md §12) ----

    /**
     * Serializes every result-affecting field (every row of the field
     * table) as a JSON object, nested by parameter block (llc / mesh
     * / mem / umon / controller / kv + top-level scalars).
     * Observability handles (tracer, traceLabel) are not data and
     * are excluded; timelineStats is included.
     */
    JsonValue toJson() const;

    /**
     * Strict inverse of toJson: default-constructed config +
     * applyConfigJson + validateConfig. Round-tripping is identity
     * on toJson, hence on foldConfig. Throws FatalError with a
     * "field: reason" diagnostic on unknown keys, type mismatches,
     * out-of-range values, or inconsistent geometry.
     */
    static SystemConfig fromJson(const JsonValue &json);
};

/**
 * Applies a (possibly partial) JSON object onto @p cfg: every key
 * present is validated (type + range) and assigned; unknown keys are
 * fatal. This is the "overrides" half of the scenario layer — a
 * preset plus a patch. @p path is the patch's place in its document
 * ("overrides", "variants[1].overrides"; "" for a whole config) and
 * prefixes every diagnostic. Callers compose with validateConfig for
 * the cross-field rules.
 */
void applyConfigJson(SystemConfig &cfg, const JsonValue &json,
                     const std::string &path = "");

/**
 * Cross-field validation: bank count must equal mesh tiles, the
 * controller's thresholds must be ordered
 * (lowFrac < highFrac < panicFrac), and the measurement windows must
 * be non-degenerate. Throws FatalError ("field: reason") on the
 * first violation. @p path is the place in its document of the patch
 * that produced @p cfg, as for applyConfigJson, and prefixes the
 * field.
 */
void validateConfig(const SystemConfig &cfg, const std::string &path = "");

/**
 * Named preset lookup for scenario files: "paperDefault" |
 * "benchScaled" | "testTiny". @p path labels the diagnostic on an
 * unknown name.
 */
SystemConfig configPreset(const std::string &name,
                          const std::string &path = "preset");

/** Parses an llcDesignName() string; fatal("<path>: ...") otherwise. */
LlcDesign llcDesignFromName(const std::string &name,
                            const std::string &path);

/** Parses a loadName() string; fatal("<path>: ...") otherwise. */
LoadLevel loadLevelFromName(const std::string &name,
                            const std::string &path);

class Fingerprint;

/**
 * Folds @p cfg into @p fp as its compact toJson() text — the config
 * half of the driver's content-addressed result-cache key
 * (src/driver/result_cache.hh). A field is keyed if and only if it
 * serializes, so a new field with a table row cannot serve stale
 * results.
 */
void foldConfig(Fingerprint &fp, const SystemConfig &cfg);

} // namespace jumanji

#endif // JUMANJI_SYSTEM_CONFIG_HH
