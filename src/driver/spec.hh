/**
 * @file
 * ExperimentSpec: the declarative scenario layer (docs/INTERNALS.md
 * §12). A spec is a *value* describing a whole experiment grid —
 * preset + config overrides, variant list, design list, load levels,
 * LC-app groups, mix policy, seed policy, and an output descriptor —
 * that expands deterministically into the driver's JobGraph. Because
 * expansion bottoms out in SweepJobs, every spec-driven run inherits
 * the orchestrator's guarantees for free: JUMANJI_JOBS-parallel
 * execution with byte-identical output, the content-addressed result
 * cache, and submission-order merging.
 *
 * It is the only way a sweep runs: each spec-based exhibit is one
 * document under examples/scenarios/ (run by jumanji_cli --scenario,
 * or loaded by the bench that prints its own table), and
 * jumanji_cli's flags build one too. The Sec. VII
 * methodology — per-mix seed derivation, mix RNG salting, and every
 * job's calibration requests in first-seen order — lives in
 * expandSpec alone, pinned from outside by tests/test_spec.cc's
 * serial reference loop and the committed goldens under tests/golden/.
 */

#ifndef JUMANJI_DRIVER_SPEC_HH
#define JUMANJI_DRIVER_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/orchestrator.hh"
#include "src/sim/json.hh"
#include "src/system/config.hh"

namespace jumanji {
namespace driver {

/**
 * Base-seed policy. With fromEnv, JUMANJI_SEED overrides the
 * fallback — parsed by driver::seedFromEnv (src/driver/env.hh), which
 * warns once on values it must ignore instead of silently running the
 * wrong seed.
 */
struct SeedPolicy
{
    bool fromEnv = true;
    std::uint64_t fallback = 1;
};

/**
 * How workload mixes are generated: @p count random mixes
 * (JUMANJI_MIXES overrides when fromEnv), each built by
 * makeMix(group.lc, vms, batchPerVm, rng) with the rng seeded from
 * the job's seed — salted for the sweep-style exhibits (fig13/14/15/
 * 17/18, table1, jumanji_cli), unsalted for the single-mix case
 * studies (fig09, ablations). expandSpec holds the derivation.
 */
struct MixPolicy
{
    std::uint32_t count = 3;
    bool fromEnv = true;
    std::uint32_t vms = 4;
    std::uint32_t batchPerVm = 4;
    bool salt = true;
};

/** One LC-app selection ("xapian", or "Mixed" = all five). */
struct SpecGroup
{
    std::string label;
    std::vector<std::string> lcNames;
};

/**
 * One experiment variant: a labelled config patch (same schema as
 * the top-level overrides) applied on top of the resolved base
 * config, plus the Fig. 17 VM-regrouping knob. The default spec has
 * a single anonymous variant (the base config itself).
 */
struct SpecVariant
{
    std::string label;
    /** Config patch (JSON object; Null = no change). */
    JsonValue overrides;
    /** When > 0, regroupMix(mix, regroupVms) after generation. */
    std::uint32_t regroupVms = 0;
};

/**
 * LC calibration policy: which config each LC app is calibrated
 * under. Either way expandSpec plans the requests, runSpec runs them
 * through Orchestrator::runCalibrations (cached and logged) before
 * any job starts, and every job carries its calibrations.
 *  - Shared: one request per (variant, LC app), under the config of
 *    the variant's first job whose mix contains the app (the order
 *    one lazily calibrating sweep over the jobs would use); the jobs
 *    have selfCalibrate = false. fig05, fig13-16, fig18, table1, and
 *    `jumanji_cli --sweep`.
 *  - PerJob: one request per (job, distinct LC app), under the job's
 *    own config; the jobs have selfCalibrate = true. fig09, fig17,
 *    the ablations, and jumanji_cli's default.
 */
enum class CalibrationMode
{
    Shared,
    PerJob,
};

/** One output column: an aggregate key plus its printed header. */
struct SpecColumn
{
    /**
     * Aggregate over a cell's mixes:
     *  "tailMean"    mean of stat("sys.tail.meanRatio")
     *  "tailWorst"   max of stat("sys.tail.worstRatio")
     *  "batchWS"     gmean of batch weighted speedup (gmeanSpeedups)
     *  "batchWSMean" arithmetic mean of batch speedup (fig17)
     *  "attackers"   mean of stat("sys.attackersPerAccess")
     *  "a.b.c"       mean of stat(key); a dotted key must name a
     *                registry leaf, which checkSpec verifies
     */
    std::string key;
    std::string header;
};

/**
 * How the grid is rendered. Two layouts:
 *  - "design-table": one section per (load, group); rows are the
 *    designs (optionally preceded by the Static baseline row).
 *    Requires exactly one variant. (fig13, fig16)
 *  - "variant-table": one section per (load, group); rows are the
 *    variants. Requires exactly one design. (fig09, fig17, fig18,
 *    ablations, epoch_load_grid)
 */
struct SpecOutput
{
    std::string title;
    std::string caption;
    /** Trailing "note: ..." line; empty = none. */
    std::string note;
    std::string layout = "design-table";
    /**
     * Section heading template; "{load}", "{group}" and "{mixes}"
     * expand per section, and any other "{...}" placeholder is
     * rejected. Empty = single-section output with no heading line
     * (requires one load and one group).
     */
    std::string sectionLabel;
    /** First-column header ("design", "parameters", ...). */
    std::string labelHeader = "design";
    std::uint32_t labelWidth = 20;
    /** design-table: prepend the Static normalization baseline row. */
    bool staticRow = false;
    std::vector<SpecColumn> columns;
};

/** The declarative experiment description. */
struct ExperimentSpec
{
    std::string name;
    /** Base preset: "paperDefault" | "benchScaled" | "testTiny". */
    std::string preset = "benchScaled";
    /**
     * Config patch applied to the preset (JSON object; Null = none).
     * Never "seed": the seed policy sets the base seed, so fromJson
     * rejects it here (a variant's overrides may fix one).
     */
    JsonValue overrides;
    SeedPolicy seed;
    MixPolicy mixes;
    std::vector<LlcDesign> designs;
    std::vector<LoadLevel> loads = {LoadLevel::High};
    std::vector<SpecGroup> groups;
    std::vector<SpecVariant> variants = {SpecVariant{}};
    CalibrationMode calibration = CalibrationMode::Shared;
    SpecOutput output;

    /**
     * Parses and validates a scenario document. Throws FatalError
     * with a "field: reason" diagnostic (unknown keys, bad enum
     * names, layout/shape mismatches) — never a silent default.
     */
    static ExperimentSpec fromJson(const JsonValue &json);

    /**
     * Reads, parses and validates the scenario document at @p path
     * (fromJson). Throws FatalError "cannot open <path>" when the
     * file cannot be read. Stat references are not resolved here;
     * checkSpec does that.
     */
    static ExperimentSpec fromFile(const std::string &path);
};

/**
 * The fully expanded grid: resolved configs, mixes and jobs in the
 * deterministic expansion order variants → loads → groups → mixes
 * (jobIndex gives the flattening), and the calibration requests of
 * both modes. The jobs expect their calibrations to be filled in
 * from the plan before running (runSpec does).
 */
struct SpecPlan
{
    /** Preset + overrides + seed policy applied. */
    SystemConfig base;
    /** base + each variant's overrides, revalidated. */
    std::vector<SystemConfig> variantConfigs;
    /** Mix count after the env override. */
    std::uint32_t mixCount = 0;
    JobGraph graph;
    /** Every calibration the jobs need, in first-seen order. */
    std::vector<CalibrationJob> calibrationPlan;
    /**
     * jobCalibrations[id]: the calibrationPlan indices of job id's
     * distinct LC apps, in the order its mix names them.
     */
    std::vector<std::vector<std::size_t>> jobCalibrations;

    std::size_t
    jobIndex(std::size_t variant, std::size_t load, std::size_t group,
             std::size_t mix, const ExperimentSpec &spec) const
    {
        return ((variant * spec.loads.size() + load) *
                    spec.groups.size() +
                group) *
                   mixCount +
               mix;
    }

    /** Variant index of job @p id: jobIndex's outermost level. */
    std::size_t
    variantOf(std::size_t id, const ExperimentSpec &spec) const
    {
        return id / (spec.loads.size() * spec.groups.size() * mixCount);
    }
};

/** Expands @p spec without running anything (validation, tests). */
SpecPlan expandSpec(const ExperimentSpec &spec);

/**
 * Checks @p spec's stat references against the live registry. Expands
 * the spec and, for every job and every design it runs (Static first,
 * as runCalibrated does), builds the System without running it.
 * Throws FatalError "field: reason", naming the job label and design,
 * when a dotted output.columns key is not a registry leaf or a
 * timelineStats selector selects no leaf. It costs one System build
 * per (job, design), so fromJson, expandSpec and runSpec never call
 * it; jumanji_cli's --scenario and --scenario-check do.
 */
void checkSpec(const ExperimentSpec &spec);

/** A finished spec run: the plan plus results in job order. */
struct SpecRun
{
    SpecPlan plan;
    std::vector<MixResult> results;
};

/**
 * Expands @p spec, runs its calibration plan through @p orchestrator,
 * fills every job's calibrations from it, runs the JobGraph, and
 * returns results in job order. Throws FatalError if any calibration
 * or job fails — a figure with silently missing points would be worse
 * than no figure.
 */
SpecRun runSpec(const ExperimentSpec &spec, Orchestrator &orchestrator);

/**
 * Renders the result table(s) — the section headings, column
 * headers, and "%12.3f" value rows — as a string (src/ routes output
 * through return values, not stdout; callers print it). Does not
 * include the banner or note; renderSpec does.
 */
std::string renderSpecTable(const ExperimentSpec &spec,
                            const SpecRun &run);

/** Full report: banner + renderSpecTable + optional note line. */
std::string renderSpec(const ExperimentSpec &spec, const SpecRun &run);

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_SPEC_HH
