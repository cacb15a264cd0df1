#include "src/system/system.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"
#include "src/sim/tracing.hh"
#include "src/workloads/spec_like.hh"

namespace jumanji {

namespace {

/** Scales working-set footprints by the config's capacityScale. */
std::vector<WorkingSet>
scaleWorkingSets(const std::vector<WorkingSet> &sets, double scale)
{
    std::vector<WorkingSet> scaled = sets;
    if (scale == 1.0) return scaled;
    for (auto &ws : scaled) {
        if (ws.streaming) continue;
        ws.lines = std::max<std::uint64_t>(
            16, static_cast<std::uint64_t>(
                    static_cast<double>(ws.lines) * scale));
    }
    return scaled;
}

} // namespace

// ------------------------------------------------------------ Sampler

/**
 * An epoch-rate agent that refreshes the epoch gauges (vulnerability,
 * epoch count, per-LC-app mean latency), has the recorder append a
 * row, and emits the bank-occupancy trace counters. It keeps only
 * the current epoch's values; the recorder holds the history.
 */
class System::Sampler : public Agent
{
  public:
    Sampler(System *sys, Tick period)
        : sys_(sys), period_(period), latency_(sys->apps_.size())
    {
    }

    /** Attackers per access over the last epoch. */
    double vuln() const { return vuln_; }
    /** Epochs sampled so far. */
    std::uint64_t epochs() const { return epochs_; }
    /** Mean request latency of app @p i over the last epoch. */
    double epochLatency(std::size_t i) const { return latency_[i].mean; }

    Tick
    resume(Tick now) override
    {
        MemPath &path = sys_->memPath();
        vuln_ = path.avgAttackersPerAccess();
        path.clearVulnerabilityStats();
        epochs_++;

        for (std::size_t i = 0; i < latency_.size(); i++) {
            auto *app =
                dynamic_cast<TailLatencyApp *>(sys_->apps_[i].get());
            if (app == nullptr) continue;
            LatencyWindow &w = latency_[i];
            const auto &all = app->latencies().raw();
            double mean = 0.0;
            std::size_t n = all.size() > w.seen ? all.size() - w.seen : 0;
            for (std::size_t j = w.seen; j < all.size(); j++)
                mean += all[j];
            if (n > 0) mean /= static_cast<double>(n);
            w.mean = mean;
            w.seen = all.size();
        }

        // Snapshot the registry after the runtime's reconfiguration
        // (scheduled before this agent at the same tick) and after
        // the epoch gauges above were refreshed.
        sys_->recorder_->record(now);

        if (Tracer *tracer = sys_->config_.tracer) {
            std::uint32_t banksPid =
                sys_->tracePid_ + Tracer::kBanksPid;
            for (std::uint32_t b = 0; b < path.numBanks(); b++) {
                tracer->counterInterned(
                    banksPid, sys_->bankTrackNames_[b], now,
                    static_cast<double>(
                        path.bank(b).constArray().validLines()));
            }
        }
        return now + period_;
    }

  private:
    /** Latency samples already consumed, and the last epoch's mean. */
    struct LatencyWindow
    {
        std::size_t seen = 0;
        double mean = 0.0;
    };

    System *sys_;
    Tick period_;
    double vuln_ = 0.0;
    std::uint64_t epochs_ = 0;
    /** Per app slot; non-LC slots stay zero. */
    std::vector<LatencyWindow> latency_;
};

// --------------------------------------------------------- KvLoadAgent

/**
 * Applies the KV offered-load trace: every quarter-epoch each KV app
 * re-reads the trace (arrival-rate multiplier, skew delta, hot-key
 * rotation) at the current tick. Only scheduled when the mix has KV
 * apps, so other runs see no extra events.
 */
class System::KvLoadAgent : public Agent
{
  public:
    KvLoadAgent(System *sys, Tick period) : sys_(sys), period_(period)
    {
    }

    Tick
    resume(Tick now) override
    {
        for (KvServerApp *app : sys_->kvApps_) app->onTraceTick(now);
        return now + period_;
    }

  private:
    System *sys_;
    Tick period_;
};

// ------------------------------------------------------------- System

System::~System() = default;

double
System::nominalServiceCycles(const TailAppParams &params)
{
    // Average LLC latency estimate, cycles.
    constexpr double kLlcLatency = 30.0;
    double computeCycles = static_cast<double>(params.instrsPerRequest) /
                           params.traits.baseIpc;
    double accesses = static_cast<double>(params.instrsPerRequest) *
                      params.apki / 1000.0;
    double stall = accesses * kLlcLatency * params.traits.stallFactor;
    return computeCycles + stall;
}

System::System(const SystemConfig &config, const WorkloadMix &mix,
               const LcCalibrationMap &calibrations)
    : config_(config),
      rootRng_(config.seed)
{
    path_ = std::make_unique<MemPath>(config_.llc, config_.mesh,
                                      config_.mem, config_.umon,
                                      config_.seed);

    auto policy = LlcPolicy::create(config_.design);
    bool wantsIdeal = policy->wantsIdealBatchLlc();
    if (wantsIdeal) {
        idealBatchPath_ = std::make_unique<MemPath>(
            config_.llc, config_.mesh, config_.mem, config_.umon,
            config_.seed ^ 0xabcdef);
    }

    path_->memory().setActiveVms(
        static_cast<std::uint32_t>(mix.vms.size()));
    if (idealBatchPath_) {
        idealBatchPath_->memory().setActiveVms(
            static_cast<std::uint32_t>(mix.vms.size()));
    }

    runtime_ = std::make_unique<RuntimeDriver>(
        std::move(policy), path_.get(), idealBatchPath_.get(),
        config_.placementGeometry(), config_.epochTicks);

    assignTiles(mix);

    // KV apps are traffic-shaped by a load trace; plain mixes skip
    // the whole mechanism (no trace, no agent, no kv stats) so their
    // event streams and stat dumps are bit-identical to before.
    bool anyKv = false;
    for (const AppSlot &slot : slots_)
        if (slot.latencyCritical && isKvAppName(slot.name))
            anyKv = true;
    if (anyKv)
        kvTrace_ = loadTraceFromName(
            config_.kv.trace, config_.warmupTicks,
            config_.measureTicks, config_.kv.peakMultiplier);

    buildApps(mix, calibrations);

    if (config_.fixedLcTargetLines > 0)
        runtime_->setFixedLcTarget(config_.fixedLcTargetLines);
    runtime_->setHullCurves(config_.hullCurves);
    runtime_->setRateNormalize(config_.rateNormalizeCurves);
    path_->setMigrateOnReconfig(config_.migrateOnReconfig);
    if (idealBatchPath_)
        idealBatchPath_->setMigrateOnReconfig(config_.migrateOnReconfig);

    sampler_ = std::make_unique<Sampler>(this, config_.epochTicks);
    registerStats();
    recorder_ = std::make_unique<EpochRecorder>(&statreg_,
                                                config_.timelineStats);
    setupTracing();

    // Initial placement before any app runs, then steady epochs.
    runtime_->reconfigureNow(0);
    queue_.schedule(runtime_.get(), config_.epochTicks);

    queue_.schedule(sampler_.get(), config_.epochTicks);

    if (!kvApps_.empty()) {
        Tick period = std::max<Tick>(1, config_.epochTicks / 4);
        kvAgent_ = std::make_unique<KvLoadAgent>(this, period);
        queue_.schedule(kvAgent_.get(), period);
    }

    for (auto &core : cores_) queue_.schedule(core.get(), 0);
}

void
System::assignTiles(const WorkloadMix &mix)
{
    const std::uint32_t tiles = config_.mesh.cols * config_.mesh.rows;
    if (mix.totalApps() > tiles)
        fatal("System: more apps than cores/tiles");

    MeshTopology mesh(config_.mesh);

    // Anchor each VM at a spread-out tile: corners first, then the
    // tiles farthest from every existing anchor.
    std::vector<std::uint32_t> anchors;
    std::vector<std::uint32_t> corners = {
        mesh.tileAt(0, 0),
        mesh.tileAt(config_.mesh.cols - 1, config_.mesh.rows - 1),
        mesh.tileAt(config_.mesh.cols - 1, 0),
        mesh.tileAt(0, config_.mesh.rows - 1),
    };
    for (std::size_t v = 0; v < mix.vms.size(); v++) {
        if (v < corners.size()) {
            anchors.push_back(corners[v]);
            continue;
        }
        std::uint32_t best = 0;
        std::uint32_t bestDist = 0;
        for (std::uint32_t t = 0; t < tiles; t++) {
            std::uint32_t nearest = ~0u;
            for (std::uint32_t a : anchors)
                nearest = std::min(nearest, mesh.hops(t, a));
            if (nearest != ~0u && nearest >= bestDist) {
                if (nearest > bestDist ||
                    std::find(anchors.begin(), anchors.end(), t) ==
                        anchors.end()) {
                    bestDist = nearest;
                    best = t;
                }
            }
        }
        anchors.push_back(best);
    }

    // Deal tiles: VM by VM, LC apps first (they sit on the anchor,
    // i.e. the corner, as in Fig. 2a), then batch apps nearby.
    std::vector<bool> taken(tiles, false);
    auto takeNearest = [&](std::uint32_t anchor) {
        for (std::uint32_t t : mesh.tilesByDistance(anchor)) {
            if (!taken[t]) {
                taken[t] = true;
                return t;
            }
        }
        fatal("System: ran out of tiles");
        return 0u;
    };

    for (std::size_t v = 0; v < mix.vms.size(); v++) {
        const VmSpec &vm = mix.vms[v];
        for (const auto &name : vm.lcApps) {
            AppSlot slot;
            slot.name = name;
            slot.vm = static_cast<VmId>(v);
            slot.latencyCritical = true;
            slot.tile = takeNearest(anchors[v]);
            slots_.push_back(slot);
        }
        for (const auto &name : vm.batchApps) {
            AppSlot slot;
            slot.name = name;
            slot.vm = static_cast<VmId>(v);
            slot.latencyCritical = false;
            slot.tile = takeNearest(anchors[v]);
            slots_.push_back(slot);
        }
    }
}

void
System::buildApps(const WorkloadMix &,
                  const LcCalibrationMap &calibrations)
{
    double util = config_.utilizationOverride > 0.0
                      ? config_.utilizationOverride
                      : loadUtilization(config_.load);

    for (std::size_t i = 0; i < slots_.size(); i++) {
        AppSlot &slot = slots_[i];
        auto appId = static_cast<AppId>(i);
        auto vcId = static_cast<VcId>(i);

        std::unique_ptr<AppModel> app;
        double deadline = 0.0;

        if (slot.latencyCritical) {
            const KvAppParams *kvParams = findKvApp(slot.name);
            TailAppParams params = kvParams
                                       ? kvTailAppParams(slot.name)
                                       : tailAppParams(slot.name);
            params.workingSets = scaleWorkingSets(
                params.workingSets, config_.capacityScale);
            double service = nominalServiceCycles(params);
            double deadlineDefault = 5.0 * service;
            auto it = calibrations.find(slot.name);
            if (it != calibrations.end()) {
                if (it->second.serviceCycles > 0.0)
                    service = it->second.serviceCycles;
                if (it->second.deadline > 0.0)
                    deadlineDefault = it->second.deadline;
            }
            double interarrival = service / util;

            std::unique_ptr<TailLatencyApp> tailApp;
            if (kvParams != nullptr) {
                auto kvApp = std::make_unique<KvServerApp>(
                    *kvParams, params, appId, interarrival,
                    Rng(config_.seed * 7919 + i * 13 + 1));
                kvApp->bindTrace(&kvTrace_, interarrival);
                // Apply the trace's t=0 state before the first event
                // (a diurnal trace does not start at multiplier 1).
                kvApp->onTraceTick(0);
                kvApps_.push_back(kvApp.get());
                tailApp = std::move(kvApp);
            } else {
                tailApp = std::make_unique<TailLatencyApp>(
                    params, appId, interarrival,
                    Rng(config_.seed * 7919 + i * 13 + 1));
            }

            deadline = deadlineDefault;
            slot.deadline = deadline;

            // Listing 1: request completions feed the controller.
            // Traced runs also get one span per request on the
            // app's core lane.
            RuntimeDriver *rt = runtime_.get();
            std::uint32_t tile = slot.tile;
            tailApp->setCompletionListener(
                [this, rt, vcId, tile](Tick now, double latency) {
                    auto dur = static_cast<Tick>(latency);
                    JUMANJI_TRACE(
                        config_.tracer,
                        complete(tracePid_ + Tracer::kCoresPid, tile,
                                 "request", now > dur ? now - dur : 0,
                                 dur));
                    rt->requestCompleted(vcId, latency, now);
                });
            app = std::move(tailApp);
        }

        double nominalRate = 0.0;
        if (!slot.latencyCritical) {
            SpecAppParams params = specAppParams(slot.name);
            params.workingSets = scaleWorkingSets(
                params.workingSets, config_.capacityScale);
            nominalRate = params.apki / 1000.0 * params.traits.baseIpc;
            app = std::make_unique<SpecLikeApp>(params, appId);
        }

        RuntimeAppInfo info;
        info.vc = vcId;
        info.app = appId;
        info.vm = slot.vm;
        info.coreTile = slot.tile;
        info.latencyCritical = slot.latencyCritical;
        info.name = slot.name;
        info.nominalAccessesPerCycle = nominalRate;
        runtime_->registerApp(info, config_.controller, deadline);

        AccessOwner owner;
        owner.app = appId;
        owner.vc = vcId;
        owner.vm = slot.vm;
        owner.latencyCritical = slot.latencyCritical;

        MemPath *corePath = path_.get();
        if (idealBatchPath_ && !slot.latencyCritical)
            corePath = idealBatchPath_.get();

        cores_.push_back(std::make_unique<CoreModel>(
            static_cast<CoreId>(slot.tile), owner, app.get(), corePath,
            Rng(config_.seed * 104729 + i * 31 + 7)));
        apps_.push_back(std::move(app));
    }
}

void
System::registerStats()
{
    // Component subtrees. The contention-free twin registers under
    // "ideal." so selectors like "llc.bank" only match the primary
    // path and timeline columns stay identical across designs.
    path_->registerStats(statreg_, "");
    if (idealBatchPath_)
        idealBatchPath_->registerStats(statreg_, "ideal.");
    runtime_->registerStats(statreg_, "runtime.");

    for (std::size_t i = 0; i < cores_.size(); i++) {
        const AppSlot &slot = slots_[i];
        std::string prefix = "apps.a" + statIndexName(i) + ".";
        cores_[i]->registerStats(statreg_, prefix);
        statreg_.addGauge(prefix + "tile", "tile hosting this app",
                          [this, i] {
                              return static_cast<double>(slots_[i].tile);
                          });
        if (!slot.latencyCritical) continue;
        auto *tail = dynamic_cast<TailLatencyApp *>(apps_[i].get());
        if (tail == nullptr) continue;
        statreg_.addDistribution(prefix + "reqLatency",
                                 "end-to-end request latency (cycles)",
                                 &tail->latencies());
        statreg_.addGauge(prefix + "deadline",
                          "tail-latency deadline (cycles)", [this, i] {
                              return slots_[i].deadline;
                          });
        statreg_.addGauge(
            prefix + "epochLatency",
            "mean request latency over the last sampled epoch",
            [this, i] { return sampler_->epochLatency(i); });
    }

    statreg_.addGauge("epoch.index", "epochs sampled so far", [this] {
        return static_cast<double>(sampler_->epochs());
    });
    statreg_.addGauge("epoch.vuln",
                      "attackers per access over the last epoch",
                      [this] { return sampler_->vuln(); });

    statreg_.addFormula(
        "sys.attackersPerAccess",
        "attackers per access since the last epoch clear", [this] {
            double sum = path_->avgAttackersPerAccess() *
                         static_cast<double>(path_->llcAccesses());
            std::uint64_t n = path_->llcAccesses();
            if (idealBatchPath_) {
                sum += idealBatchPath_->avgAttackersPerAccess() *
                       static_cast<double>(
                           idealBatchPath_->llcAccesses());
                n += idealBatchPath_->llcAccesses();
            }
            return n == 0 ? 0.0 : sum / static_cast<double>(n);
        });
    statreg_.addFormula(
        "sys.tail.meanRatio",
        "mean over LC apps of p95 tail / deadline", [this] {
            double sum = 0.0;
            int n = 0;
            for (std::size_t i = 0; i < apps_.size(); i++) {
                if (!slots_[i].latencyCritical ||
                    slots_[i].deadline <= 0.0) {
                    continue;
                }
                auto *tail =
                    dynamic_cast<TailLatencyApp *>(apps_[i].get());
                if (tail == nullptr) continue;
                sum += tail->latencies().percentile(95.0) /
                       slots_[i].deadline;
                n++;
            }
            return n == 0 ? 0.0 : sum / n;
        });
    statreg_.addFormula(
        "sys.tail.worstRatio",
        "max over LC apps of p95 tail / deadline", [this] {
            double worst = 0.0;
            for (std::size_t i = 0; i < apps_.size(); i++) {
                if (!slots_[i].latencyCritical ||
                    slots_[i].deadline <= 0.0) {
                    continue;
                }
                auto *tail =
                    dynamic_cast<TailLatencyApp *>(apps_[i].get());
                if (tail == nullptr) continue;
                worst = std::max(worst,
                                 tail->latencies().percentile(95.0) /
                                     slots_[i].deadline);
            }
            return worst;
        });

    // Per-trace-phase KV tail stats, registered only when the mix
    // actually contains KV apps: the selfcheck fingerprint folds
    // every registry leaf name, so non-KV runs must not grow stats.
    if (!kvApps_.empty()) {
        for (const std::string &phase : kvTrace_.phaseLabels()) {
            statreg_.addFormula(
                "apps.kv." + phase + ".p95",
                "mean over KV apps of phase p95 tail / deadline",
                [this, phase] { return kvPhaseRatio(phase, 95.0); });
            statreg_.addFormula(
                "apps.kv." + phase + ".p99",
                "mean over KV apps of phase p99 tail / deadline",
                [this, phase] { return kvPhaseRatio(phase, 99.0); });
            statreg_.addFormula(
                "apps.kv." + phase + ".count",
                "KV requests completed in this phase", [this, phase] {
                    double n = 0.0;
                    for (const KvServerApp *app : kvApps_)
                        n += static_cast<double>(
                            app->phaseCount(phase));
                    return n;
                });
        }
    }
}

double
System::kvPhaseRatio(const std::string &phase, double p) const
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < apps_.size(); i++) {
        if (!slots_[i].latencyCritical || slots_[i].deadline <= 0.0)
            continue;
        auto *app = dynamic_cast<KvServerApp *>(apps_[i].get());
        if (app == nullptr || app->phaseCount(phase) == 0) continue;
        sum += app->phasePercentile(phase, p) / slots_[i].deadline;
        n++;
    }
    return n == 0 ? 0.0 : sum / n;
}

void
System::setupTracing()
{
    Tracer *tracer = config_.tracer;
    if (tracer == nullptr) return;

    tracePid_ = tracer->beginRun(config_.traceLabel);
    runtime_->setTracer(tracer, tracePid_);

    // Intern the per-bank track names once: the tracer's interned
    // storage is pointer-stable, so the sampler can emit with
    // counterInterned() and skip the per-epoch interning lookup.
    bankTrackNames_.clear();
    bankTrackNames_.reserve(path_->numBanks());
    for (std::uint32_t b = 0; b < path_->numBanks(); b++)
        bankTrackNames_.push_back(tracer->internName(
            ("occupancy.bank" + statIndexName(b)).c_str()));

    tracer->threadName(tracePid_ + Tracer::kRuntimePid, 0, "placement");
    for (const AppSlot &slot : slots_) {
        tracer->threadName(tracePid_ + Tracer::kCoresPid, slot.tile,
                           "core" + statIndexName(slot.tile) + " " +
                               slot.name);
    }
    for (std::uint32_t b = 0; b < path_->numBanks(); b++)
        tracer->threadName(tracePid_ + Tracer::kBanksPid, b,
                           "bank" + statIndexName(b));
}

void
System::migrateApp(std::size_t appIndex, std::uint32_t newTile)
{
    if (appIndex >= cores_.size())
        fatal("System::migrateApp: app index out of range");
    for (std::size_t i = 0; i < slots_.size(); i++) {
        if (i != appIndex && slots_[i].tile == newTile)
            fatal("System::migrateApp: target tile is occupied");
    }
    slots_[appIndex].tile = newTile;
    cores_[appIndex]->setTile(static_cast<CoreId>(newTile));
    runtime_->migrateApp(static_cast<VcId>(appIndex), newTile);
}

std::vector<TailLatencyApp *>
System::tailApps()
{
    std::vector<TailLatencyApp *> result;
    for (auto &app : apps_) {
        if (auto *tail = dynamic_cast<TailLatencyApp *>(app.get()))
            result.push_back(tail);
    }
    return result;
}

void
System::runUntil(Tick tick)
{
    queue_.runUntil(tick);
}

void
System::startMeasurement()
{
    measureStart_ = queue_.now();
    for (auto &core : cores_) core->resetAccounting();
    for (TailLatencyApp *app : tailApps()) app->clearMeasurement();
    path_->clearVulnerabilityStats();
    if (idealBatchPath_) idealBatchPath_->clearVulnerabilityStats();
}

RunResult
System::collect()
{
    RunResult result;
    result.measuredTicks = queue_.now() - measureStart_;

    for (std::size_t i = 0; i < cores_.size(); i++) {
        const AppSlot &slot = slots_[i];
        AppResult ar;
        ar.name = slot.name;
        ar.app = static_cast<AppId>(i);
        ar.vm = slot.vm;
        ar.latencyCritical = slot.latencyCritical;
        ar.progress.instrs = cores_[i]->instrsRetired();
        ar.progress.cycles = result.measuredTicks;
        ar.counters = cores_[i]->counters();
        std::uint64_t accesses = ar.counters.llcHits +
                                 ar.counters.llcMisses;
        double stallFactor = apps_[i]->traits().stallFactor;
        if (accesses > 0 && stallFactor > 0.0) {
            ar.avgAccessLatency =
                static_cast<double>(cores_[i]->stallCycles()) /
                stallFactor / static_cast<double>(accesses);
        }
        if (slot.latencyCritical) {
            auto *tail = dynamic_cast<TailLatencyApp *>(apps_[i].get());
            if (tail != nullptr) {
                ar.tailLatency = tail->latencies().percentile(95.0);
                ar.requestsCompleted = tail->latencies().count();
            }
            ar.deadline = slot.deadline;
        }
        result.apps.push_back(std::move(ar));
    }

    result.statDump = statreg_.snapshot();
    result.timeline = recorder_->series();
    return result;
}

RunResult
System::run()
{
    JUMANJI_PROF_SCOPE("sim.run");
    // One live run per worker thread: resets the thread's check
    // context and (in Debug) rejects interleaved runs.
    CheckContextScope runScope;
    runUntil(config_.warmupTicks);
    startMeasurement();
    runUntil(config_.warmupTicks + config_.measureTicks);
    return collect();
}

double
RunResult::stat(const std::string &name, double fallback) const
{
    auto it = std::lower_bound(
        statDump.begin(), statDump.end(), name,
        [](const StatValue &sv, const std::string &n) {
            return sv.name < n;
        });
    if (it == statDump.end() || it->name != name) return fallback;
    return it->value;
}

double
RunResult::batchWeightedSpeedup(const RunResult &reference) const
{
    std::vector<AppProgress> mix;
    std::vector<AppProgress> ref;
    for (std::size_t i = 0; i < apps.size() && i < reference.apps.size();
         i++) {
        if (apps[i].latencyCritical) continue;
        mix.push_back(apps[i].progress);
        ref.push_back(reference.apps[i].progress);
    }
    if (mix.empty()) return 1.0;
    return weightedSpeedup(mix, ref);
}

double
RunResult::attackersPerAccess() const
{
    return stat("sys.attackersPerAccess");
}

std::uint64_t
RunResult::reconfigurations() const
{
    return static_cast<std::uint64_t>(stat("runtime.reconfigurations"));
}

std::uint64_t
RunResult::coherenceInvalidations() const
{
    return static_cast<std::uint64_t>(
        stat("runtime.coherenceInvalidations"));
}

double
RunResult::worstTailRatio() const
{
    return stat("sys.tail.worstRatio");
}

double
RunResult::meanTailRatio() const
{
    return stat("sys.tail.meanRatio");
}

EnergyBreakdown
RunResult::energy() const
{
    EnergyBreakdown total;
    for (const AppResult &app : apps)
        total += dataMovementEnergy(app.counters);
    return total;
}

} // namespace jumanji
