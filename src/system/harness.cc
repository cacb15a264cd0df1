#include "src/system/harness.hh"

#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"

namespace jumanji {

const DesignResult &
MixResult::of(LlcDesign design) const
{
    for (const auto &d : designs)
        if (d.design == design) return d;
    fatal("MixResult::of: design not present");
}

LcCalibration
calibrateLcApp(const SystemConfig &config, const std::string &lcName)
{
    JUMANJI_PROF_SCOPE("sim.calibrate");
    const WorkloadMix solo = soloMix(lcName);
    LcCalibration calib;

    // Step 1: uncontended service time at the Static 4-way
    // allocation, at 5% load so queueing is negligible.
    {
        SystemConfig cfg = config;
        cfg.design = LlcDesign::Static;
        // Calibration measures the app, not the traffic shape: a
        // time-varying KV load trace (flash crowd etc.) must not
        // leak into the service time or the deadline, or the
        // deadline absorbs the spike it exists to judge.
        cfg.kv.trace = "flat";
        cfg.utilizationOverride = 0.05;
        cfg.measureTicks *= 2;
        cfg.tracer = nullptr; // internal run; keep traces clean
        // The solo mix has one app, so it is always a00.
        calib.serviceCycles =
            System(cfg, solo).run().stat("apps.a00.reqLatency.mean");
    }
    if (calib.serviceCycles <= 0.0) {
        warn("service calibration produced 0 for " + lcName +
             "; falling back to the analytic nominal");
        calib.serviceCycles =
            System::nominalServiceCycles(lcAppParams(lcName));
    }

    // Step 2 (Sec. VII): the deadline is the 95th-percentile latency
    // running alone at *high* load with the fixed 4-way partition.
    {
        SystemConfig cfg = config;
        cfg.design = LlcDesign::Static;
        cfg.load = LoadLevel::High;
        cfg.utilizationOverride = 0.0; // High, even under an override
        cfg.kv.trace = "flat"; // steady-state deadline (see above)
        cfg.tracer = nullptr; // internal run; keep traces clean
        // The deadline is a distribution tail; use a long window so
        // it varies little from seed to seed.
        cfg.measureTicks *= 4;
        LcCalibrationMap serviceOnly;
        serviceOnly[lcName] = LcCalibration{calib.serviceCycles, 0.0};
        calib.deadline = System(cfg, solo, serviceOnly)
                             .run()
                             .stat("apps.a00.reqLatency.p95");
    }
    if (calib.deadline <= 0.0) {
        warn("deadline calibration produced 0 for " + lcName +
             "; falling back to 5x service");
        calib.deadline = 5.0 * calib.serviceCycles;
    }
    // Slack on the calibrated p95 (DESIGN.md §5): a time-scaled
    // window holds ~100x fewer requests than the paper's, so the
    // worst-of-N-VMs p95 is biased upward, and tail-aware designs
    // could not settle at an unpadded deadline.
    constexpr double kDeadlinePadding = 1.6;
    calib.deadline *= kDeadlinePadding;
    return calib;
}

LcCalibrationMap
calibrateMix(const SystemConfig &config, const WorkloadMix &mix)
{
    LcCalibrationMap calibrations;
    for (const auto &vm : mix.vms)
        for (const auto &name : vm.lcApps)
            if (calibrations.count(name) == 0)
                calibrations[name] = calibrateLcApp(config, name);
    return calibrations;
}

MixResult
runCalibrated(const SystemConfig &config, const WorkloadMix &mix,
              const std::vector<LlcDesign> &designs, LoadLevel load,
              const LcCalibrationMap &calibrations)
{
    MixResult result;
    result.mix = mix;
    for (const SystemConfig &cfg : designConfigs(config, designs, load)) {
        System system(cfg, mix, calibrations);
        DesignResult dr;
        dr.design = cfg.design;
        dr.run = system.run();
        // The first config is Static, the normalization baseline.
        dr.batchSpeedup =
            result.designs.empty()
                ? 1.0
                : dr.run.batchWeightedSpeedup(result.designs.front().run);
        result.designs.push_back(std::move(dr));
    }
    return result;
}

std::vector<SystemConfig>
designConfigs(const SystemConfig &config,
              const std::vector<LlcDesign> &designs, LoadLevel load)
{
    std::vector<LlcDesign> order = {LlcDesign::Static};
    for (LlcDesign design : designs)
        if (design != LlcDesign::Static) order.push_back(design);
    std::vector<SystemConfig> configs;
    for (LlcDesign design : order) {
        SystemConfig cfg = config;
        cfg.design = design;
        cfg.load = load;
        cfg.traceLabel =
            config.traceLabel + " " + llcDesignName(design);
        configs.push_back(std::move(cfg));
    }
    return configs;
}

MixResult
runMix(const SystemConfig &config, const WorkloadMix &mix,
       const std::vector<LlcDesign> &designs, LoadLevel load)
{
    return runCalibrated(config, mix, designs, load,
                         calibrateMix(config, mix));
}

std::map<LlcDesign, double>
gmeanSpeedups(const std::vector<MixResult> &results)
{
    std::map<LlcDesign, std::vector<double>> byDesign;
    for (const auto &mix : results)
        for (const auto &d : mix.designs)
            byDesign[d.design].push_back(d.batchSpeedup);

    std::map<LlcDesign, double> out;
    for (const auto &[design, values] : byDesign)
        out[design] = gmean(values);
    return out;
}

std::map<LlcDesign, double>
meanVulnerability(const std::vector<MixResult> &results)
{
    std::map<LlcDesign, std::vector<double>> byDesign;
    for (const auto &mix : results)
        for (const auto &d : mix.designs)
            byDesign[d.design].push_back(d.run.attackersPerAccess());

    std::map<LlcDesign, double> out;
    for (const auto &[design, values] : byDesign) {
        double sum = 0.0;
        for (double v : values) sum += v;
        out[design] = values.empty()
                          ? 0.0
                          : sum / static_cast<double>(values.size());
    }
    return out;
}

void
fingerprintRun(Fingerprint &fp, const RunResult &run)
{
    fp.addU64(run.apps.size());
    for (const auto &app : run.apps) {
        fp.addString(app.name);
        fp.addI64(app.app);
        fp.addI64(app.vm);
        fp.addU64(app.latencyCritical ? 1 : 0);
        fp.addU64(app.progress.instrs);
        fp.addU64(app.progress.cycles);
        fp.addU64(app.counters.l1Hits);
        fp.addU64(app.counters.l1Misses);
        fp.addU64(app.counters.l2Hits);
        fp.addU64(app.counters.l2Misses);
        fp.addU64(app.counters.llcHits);
        fp.addU64(app.counters.llcMisses);
        fp.addU64(app.counters.nocHops);
        fp.addU64(app.counters.memAccesses);
        fp.addDouble(app.avgAccessLatency);
        fp.addDouble(app.tailLatency);
        fp.addDouble(app.deadline);
        fp.addU64(app.requestsCompleted);
    }
    // Attackers, energy, reconfigurations and invalidations are views
    // over apps and statDump, so they are redundant with the streams
    // below; they keep their fixed positions in the digest so that
    // published fingerprints stay comparable.
    fp.addDouble(run.attackersPerAccess());
    EnergyBreakdown energy = run.energy();
    fp.addDouble(energy.l1);
    fp.addDouble(energy.l2);
    fp.addDouble(energy.llc);
    fp.addDouble(energy.noc);
    fp.addDouble(energy.mem);
    fp.addU64(run.measuredTicks);
    fp.addU64(run.reconfigurations());
    fp.addU64(run.coherenceInvalidations());

    // The registry stream: every leaf name and value, plus the
    // per-epoch timeline. Folding names as well as values means a
    // stat that silently vanishes (or is renamed) also trips the
    // self-check, not just a value divergence.
    fp.addU64(run.statDump.size());
    for (const StatValue &sv : run.statDump) {
        fp.addString(sv.name);
        fp.addDouble(sv.value);
    }
    run.timeline.fold(fp);
}

void
fingerprintMix(Fingerprint &fp, const MixResult &mix)
{
    foldMix(fp, mix.mix);
    fp.addU64(mix.designs.size());
    for (const auto &d : mix.designs) {
        fp.addI64(static_cast<std::int64_t>(d.design));
        fp.addDouble(d.batchSpeedup);
        fp.addDouble(d.tailRatio());
        fp.addDouble(d.meanTailRatio());
        fingerprintRun(fp, d.run);
    }
}

std::uint64_t
fingerprintResults(const std::vector<MixResult> &results)
{
    Fingerprint fp;
    fp.addU64(results.size());
    for (const auto &mix : results) fingerprintMix(fp, mix);
    return fp.value();
}

} // namespace jumanji
