/**
 * @file
 * The figure benches as ExperimentSpec values. Each builder is the
 * C++ twin of a scenario document (fig13Small() mirrors
 * examples/scenarios/fig13_small.json — tests/test_spec.cc proves
 * they normalize to the same JSON), and each bench binary is a thin
 * main() around runSpecMain(spec), or runSpec(spec) plus its own
 * table formatting.
 */

#ifndef JUMANJI_BENCH_SPECS_HH
#define JUMANJI_BENCH_SPECS_HH

#include "bench/bench_common.hh"
#include "src/driver/spec.hh"

namespace jumanji {
namespace bench {
namespace specs {

/**
 * A full controller block: Fig. 9 replaces the whole ControllerParams
 * (default-constructed + the swept field), so the override must spell
 * out every field — a partial patch would inherit benchScaled's
 * re-centered lowFrac/highFrac instead of the struct defaults.
 */
inline JsonValue
controllerOverride(double lowFrac, double highFrac, double panicFrac,
                   double stepFrac)
{
    JsonValue ctl = JsonValue::makeObject();
    ctl.set("lowFrac", JsonValue::makeNumber(lowFrac));
    ctl.set("highFrac", JsonValue::makeNumber(highFrac));
    ctl.set("panicFrac", JsonValue::makeNumber(panicFrac));
    ctl.set("stepFrac", JsonValue::makeNumber(stepFrac));
    ctl.set("configurationInterval", JsonValue::makeU64(20));
    ctl.set("percentile", JsonValue::makeNumber(95.0));
    JsonValue overrides = JsonValue::makeObject();
    overrides.set("controller", std::move(ctl));
    return overrides;
}

/** Single-key config patch helpers. */
inline JsonValue
overrideU64(const std::string &key, std::uint64_t value)
{
    JsonValue overrides = JsonValue::makeObject();
    overrides.set(key, JsonValue::makeU64(value));
    return overrides;
}

inline JsonValue
overrideBool(const std::string &key, bool value)
{
    JsonValue overrides = JsonValue::makeObject();
    overrides.set(key, JsonValue::makeBool(value));
    return overrides;
}

/** Fig. 13: the main evaluation (fig13-small at JUMANJI_MIXES=1). */
inline driver::ExperimentSpec
fig13Small()
{
    driver::ExperimentSpec spec;
    spec.name = "fig13-small";
    spec.designs = mainDesigns();
    spec.loads = {LoadLevel::High, LoadLevel::Low};
    spec.groups.clear();
    for (const std::string &lc : allTailAppNames())
        spec.groups.push_back({lc, {lc}});
    spec.groups.push_back({"Mixed", allTailAppNames()});
    spec.variants = {driver::SpecVariant{}};
    spec.output.title = "Figure 13";
    spec.output.caption = "tail latency + batch speedup vs. Static, "
                          "all LC apps, high/low load";
    spec.output.layout = "design-table";
    spec.output.sectionLabel = "[{load} load, LC={group}, {mixes} "
                               "mixes]";
    spec.output.labelHeader = "design";
    spec.output.labelWidth = 20;
    spec.output.staticRow = true;
    spec.output.columns = {{"tailMean", "tail(mean)"},
                           {"tailWorst", "tail(worst)"},
                           {"batchWS", "batchWS(gmean)"},
                           {"attackers", "attackers"}};
    spec.output.note =
        "tail = p95 latency / calibrated deadline (<=1 meets the "
        "deadline); batchWS is gmean weighted speedup vs. Static. "
        "Paper: Adaptive/VM-Part/Jumanji meet deadlines, Jigsaw "
        "violates badly; Jumanji/Jigsaw speed up batch 11-18%, "
        "S-NUCAs <= 4%.";
    return spec;
}

/**
 * The main-designs comparison behind fig15 and table1: the Mixed
 * group at high load under mainDesigns(), calibrations shared. Those
 * benches print their own tables from SpecRun::results, so the
 * output block is unused; since both expand to the same jobs, a
 * shared JUMANJI_CACHE_DIR answers the second from the first.
 */
inline driver::ExperimentSpec
mainComparison(const std::string &name)
{
    driver::ExperimentSpec spec;
    spec.name = name;
    spec.designs = mainDesigns();
    spec.groups = {{"Mixed", allTailAppNames()}};
    return spec;
}

/** Fig. 14: mainComparison at high and low load (high half shared). */
inline driver::ExperimentSpec
fig14Vulnerability()
{
    driver::ExperimentSpec spec = mainComparison("fig14-vulnerability");
    spec.loads = {LoadLevel::High, LoadLevel::Low};
    spec.output.sectionLabel = "[{load} load]";
    return spec;
}

/** Fig. 5: the Sec. III case study, mainComparison on xapian. */
inline driver::ExperimentSpec
fig05CaseStudy()
{
    driver::ExperimentSpec spec = mainComparison("fig05-case-study");
    spec.groups = {{"xapian", {"xapian"}}};
    return spec;
}

/** Fig. 9: feedback-controller parameter sensitivity. */
inline driver::ExperimentSpec
fig09Sensitivity()
{
    driver::ExperimentSpec spec;
    spec.name = "fig09-controller-sensitivity";
    spec.mixes = {1, false, 4, 4, false};
    spec.designs = {LlcDesign::Jumanji};
    spec.groups = {{"xapian", {"xapian"}}};
    spec.calibration = driver::CalibrationMode::PerJob;
    spec.variants = {
        {"range [0.80, 0.90]",
         controllerOverride(0.80, 0.90, 1.10, 0.10), 0},
        {"range [0.85, 0.95] *",
         controllerOverride(0.85, 0.95, 1.10, 0.10), 0},
        {"range [0.90, 0.99]",
         controllerOverride(0.90, 0.99, 1.10, 0.10), 0},
        {"panic 1.05", controllerOverride(0.85, 0.95, 1.05, 0.10), 0},
        {"panic 1.10 *",
         controllerOverride(0.85, 0.95, 1.10, 0.10), 0},
        {"panic 1.20", controllerOverride(0.85, 0.95, 1.20, 0.10), 0},
        {"step 0.05", controllerOverride(0.85, 0.95, 1.10, 0.05), 0},
        {"step 0.10 *", controllerOverride(0.85, 0.95, 1.10, 0.10), 0},
        {"step 0.20", controllerOverride(0.85, 0.95, 1.10, 0.20), 0},
    };
    spec.output.title = "Figure 9";
    spec.output.caption = "feedback-controller parameter sensitivity";
    spec.output.layout = "variant-table";
    spec.output.labelHeader = "parameters";
    spec.output.labelWidth = 26;
    spec.output.columns = {{"batchWSMean", "batchWS"},
                           {"tailMean", "tail ratio"}};
    spec.output.note = "* = the paper's defaults. Paper: results "
                       "change very little across parameter values.";
    return spec;
}

/** Fig. 16: Jumanji vs. Insecure vs. Ideal Batch. */
inline driver::ExperimentSpec
fig16IdealBatch()
{
    driver::ExperimentSpec spec;
    spec.name = "fig16-ideal-batch";
    spec.designs = {LlcDesign::Jumanji, LlcDesign::JumanjiInsecure,
                    LlcDesign::JumanjiIdealBatch};
    spec.loads = {LoadLevel::High, LoadLevel::Low};
    spec.groups = {{"Mixed", allTailAppNames()}};
    spec.variants = {driver::SpecVariant{}};
    spec.output.title = "Figure 16";
    spec.output.caption = "Jumanji vs. Insecure vs. Ideal Batch "
                          "(ablations of Jumanji's constraints)";
    spec.output.layout = "design-table";
    spec.output.sectionLabel = "[{load} load]";
    spec.output.labelHeader = "design";
    spec.output.labelWidth = 22;
    spec.output.columns = {{"batchWS", "batchWS"},
                           {"attackers", "attackers"}};
    spec.output.note =
        "Paper: Jumanji 11-15%, Insecure 14-19%, Jumanji within 2% "
        "of Ideal Batch on average — the security and greedy-"
        "placement costs are small.";
    return spec;
}

/** Fig. 17: batch speedup vs. VM count (regrouped population). */
inline driver::ExperimentSpec
fig17VmScaling()
{
    driver::ExperimentSpec spec;
    spec.name = "fig17-vm-scaling";
    spec.designs = {LlcDesign::Jumanji};
    spec.groups = {{"Mixed", allTailAppNames()}};
    spec.calibration = driver::CalibrationMode::PerJob;
    spec.variants = {{"1 VM (all apps)", JsonValue(), 1},
                     {"2 x (2 LC + 8 B)", JsonValue(), 2},
                     {"4 x (1 LC + 4 B)", JsonValue(), 4},
                     {"6 VMs", JsonValue(), 6},
                     {"8 VMs", JsonValue(), 8},
                     {"12 VMs", JsonValue(), 12}};
    spec.output.title = "Figure 17";
    spec.output.caption = "Jumanji batch speedup vs. number of VMs";
    spec.output.layout = "variant-table";
    spec.output.labelHeader = "configuration";
    spec.output.labelWidth = 22;
    spec.output.columns = {{"batchWSMean", "batchWS"},
                           {"tailMean", "tail ratio"},
                           {"attackers", "attackers"}};
    spec.output.note =
        "Paper: gmean speedup 16% with one VM, 13% with twelve; no "
        "degradation from 4 to 12 VMs; attackers stay 0 throughout "
        "(isolation holds at every VM count).";
    return spec;
}

/** Fig. 18: batch speedup vs. NoC router delay. */
inline driver::ExperimentSpec
fig18NocSensitivity()
{
    driver::ExperimentSpec spec;
    spec.name = "fig18-noc-sensitivity";
    spec.designs = {LlcDesign::Jumanji};
    spec.groups = {{"Mixed", allTailAppNames()}};
    spec.variants.clear();
    for (std::uint64_t delay : {1, 2, 3}) {
        JsonValue mesh = JsonValue::makeObject();
        mesh.set("routerDelay", JsonValue::makeU64(delay));
        JsonValue overrides = JsonValue::makeObject();
        overrides.set("mesh", std::move(mesh));
        spec.variants.push_back(
            {std::to_string(delay), std::move(overrides), 0});
    }
    spec.output.title = "Figure 18";
    spec.output.caption = "Jumanji batch speedup vs. NoC router delay";
    spec.output.layout = "variant-table";
    spec.output.labelHeader = "router delay";
    spec.output.labelWidth = 18;
    spec.output.columns = {{"batchWS", "batchWS"},
                           {"tailMean", "tail ratio"}};
    spec.output.note =
        "Paper: speedup rises from 9% to 15% as routers go from 1 "
        "to 3 cycles (2 cycles is the default elsewhere).";
    return spec;
}

/**
 * Ablations table (sections 1-4 of bench/ablation_design_choices;
 * the trading-policy probe stays hand-driven in the binary). The
 * epoch overrides are benchScaled's 600000 scaled by 0.5x / 2x.
 */
inline driver::ExperimentSpec
ablationVariants()
{
    driver::ExperimentSpec spec;
    spec.name = "ablation-design-choices";
    spec.mixes = {1, false, 4, 4, false};
    spec.designs = {LlcDesign::Jumanji};
    spec.groups = {{"xapian", {"xapian"}}};
    spec.calibration = driver::CalibrationMode::PerJob;
    spec.variants = {
        {"baseline (all defaults)", JsonValue(), 0},
        {"epoch x0.5", overrideU64("epochTicks", 300000), 0},
        {"epoch x2.0", overrideU64("epochTicks", 1200000), 0},
        {"raw curves (no hull)", overrideBool("hullCurves", false), 0},
        {"no rate normalization",
         overrideBool("rateNormalizeCurves", false), 0},
        {"invalidate on reconfig",
         overrideBool("migrateOnReconfig", false), 0},
    };
    spec.output.title = "Ablations";
    spec.output.caption = "design-choice studies (Jumanji, case-study "
                          "workload)";
    spec.output.layout = "variant-table";
    spec.output.labelHeader = "variant";
    spec.output.labelWidth = 34;
    spec.output.columns = {{"tailMean", "tail ratio"},
                           {"batchWSMean", "batchWS"}};
    // The note is printed by the binary after the trading probe, so
    // it is not part of the spec output.
    return spec;
}

/**
 * The novel sweep shipped as examples/scenarios/epoch_load_grid.json:
 * reconfiguration-epoch length (0.5x / 1x / 2x benchScaled's 600000)
 * crossed with both load levels, Jumanji only — the scenario-file
 * form of the ablation's epoch study, extended across the load grid.
 */
inline driver::ExperimentSpec
epochLoadGrid()
{
    driver::ExperimentSpec spec;
    spec.name = "epoch-load-grid";
    spec.mixes.count = 2;
    spec.designs = {LlcDesign::Jumanji};
    spec.loads = {LoadLevel::High, LoadLevel::Low};
    spec.groups = {{"Mixed", allTailAppNames()}};
    spec.variants = {
        {"epoch 300k", overrideU64("epochTicks", 300000), 0},
        {"epoch 600k (default)", overrideU64("epochTicks", 600000), 0},
        {"epoch 1200k", overrideU64("epochTicks", 1200000), 0},
    };
    spec.output.title = "Epoch x load grid";
    spec.output.caption = "Jumanji across reconfiguration-epoch "
                          "lengths and load levels";
    spec.output.layout = "variant-table";
    spec.output.sectionLabel = "[{load} load, {mixes} mixes]";
    spec.output.labelHeader = "epoch length";
    spec.output.labelWidth = 22;
    spec.output.columns = {{"batchWS", "batchWS"},
                           {"tailMean", "tail ratio"},
                           {"tailWorst", "tail(worst)"}};
    spec.output.note = "Scenario-layer demo: the paper's claim that "
                       "longer epochs do not hurt (Sec. IV-B), "
                       "checked at both load levels.";
    return spec;
}

/**
 * KV flash crowd (bench/fig_kv, examples/scenarios/
 * kv_flash_crowd.json): a kv_small server rides the "flashcrowd"
 * load trace — offered load steps to 1.8x mid-measurement — under
 * Jumanji, the plain D-NUCA (Adaptive), and way-partitioning
 * (VM-Part). The dotted columns read the per-phase
 * apps.kv.<phase>.{p95,p99} formulas System registers for KV mixes,
 * so the table shows each design's tail before, during, and after
 * the spike.
 */
inline driver::ExperimentSpec
kvFlashCrowd()
{
    driver::ExperimentSpec spec;
    spec.name = "kv-flash-crowd";
    JsonValue kv = JsonValue::makeObject();
    kv.set("trace", JsonValue::makeString("flashcrowd"));
    // 1.8x on top of 50% (high-load) utilization puts the spike at
    // ~90% offered load: heavy queueing, where the designs' LLC
    // allocations actually differentiate — 4x would saturate every
    // design identically (unbounded backlog for the whole phase).
    kv.set("peakMultiplier", JsonValue::makeNumber(1.8));
    JsonValue overrides = JsonValue::makeObject();
    overrides.set("kv", std::move(kv));
    spec.overrides = std::move(overrides);
    spec.designs = {LlcDesign::Adaptive, LlcDesign::VMPart,
                    LlcDesign::Jumanji};
    spec.groups = {{"kv_small", {"kv_small"}}};
    spec.variants = {driver::SpecVariant{}};
    spec.output.title = "KV flash crowd";
    spec.output.caption = "kv_small p95/p99 vs. deadline through a "
                          "load spike (Jumanji vs. D-NUCA vs. "
                          "way-partitioning)";
    spec.output.layout = "design-table";
    spec.output.sectionLabel = "[{load} load, LC={group}, {mixes} "
                               "mixes]";
    spec.output.labelHeader = "design";
    spec.output.labelWidth = 20;
    spec.output.staticRow = true;
    spec.output.columns = {{"apps.kv.before.p95", "before p95"},
                           {"apps.kv.spike.p95", "spike p95"},
                           {"apps.kv.after.p95", "after p95"},
                           {"apps.kv.spike.p99", "spike p99"},
                           {"tailWorst", "tail(worst)"},
                           {"batchWS", "batchWS"}};
    spec.output.note =
        "phase columns are latency/deadline at that percentile, "
        "averaged over the scenario's KV apps (<=1 meets the "
        "deadline); the spike phase is the middle 30% of the "
        "measurement window at 1.8x offered load.";
    return spec;
}

} // namespace specs
} // namespace bench
} // namespace jumanji

#endif // JUMANJI_BENCH_SPECS_HH
