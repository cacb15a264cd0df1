#include "src/core/runtime_driver.hh"

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"
#include "src/sim/statreg.hh"
#include "src/sim/tracing.hh"

namespace jumanji {

RuntimeDriver::RuntimeDriver(std::unique_ptr<LlcPolicy> policy,
                             MemPath *path, MemPath *idealBatchPath,
                             const PlacementGeometry &geo, Tick epochTicks)
    : policy_(std::move(policy)),
      path_(path),
      idealBatchPath_(idealBatchPath),
      geo_(geo),
      epochTicks_(epochTicks)
{
    if (!policy_) fatal("RuntimeDriver: policy must be non-null");
    if (path_ == nullptr) fatal("RuntimeDriver: path must be non-null");
    if (policy_->wantsIdealBatchLlc() && idealBatchPath_ == nullptr)
        fatal("RuntimeDriver: Ideal Batch policy needs a second LLC");
    if (epochTicks_ == 0) fatal("RuntimeDriver: epoch must be nonzero");
}

void
RuntimeDriver::registerApp(const RuntimeAppInfo &info,
                           const ControllerParams &params, double deadline)
{
    JUMANJI_ASSERT(info.vc != kInvalidVc && info.app != kInvalidApp,
                   "app registration with invalid ids");
    for (const auto &app : apps_)
        JUMANJI_ASSERT(app.vc != info.vc, "VC registered twice");
    apps_.push_back(info);
    path_->registerVc(info.vc);
    if (idealBatchPath_ != nullptr) idealBatchPath_->registerVc(info.vc);

    if (info.latencyCritical) {
        std::uint64_t total = geo_.totalLines();
        // The paper's panic size: one-eighth of the LLC; start each
        // LC app at the panic size so early epochs are safe.
        std::uint64_t panic = total / 8;
        // Cap each LC app at a quarter of the LLC so that several
        // panicked controllers cannot jointly demand more capacity
        // than exists.
        // Floor at 1/32 of the LLC: S-NUCA designs get an implicit
        // floor of one way in every bank from CAT quantization; the
        // D-NUCA controller gets the same so it cannot ride its
        // allocation over the thrash cliff between epochs (Fig. 4b's
        // Jumanji allocations never drop near zero either).
        std::uint64_t minLines =
            std::max<std::uint64_t>(geo_.linesPerWay(), total / 32);
        controllers_[info.vc] = std::make_unique<FeedbackController>(
            params, deadline, panic, panic, minLines,
            /*maxLines=*/total / 4);
    }
}

void
RuntimeDriver::requestCompleted(VcId vc, double latencyCycles, Tick now)
{
    auto *slot = controllers_.lookup(vc);
    if (slot == nullptr)
        panic("RuntimeDriver::requestCompleted: not a controlled VC");
    FeedbackController &ctrl = **slot;
    if (latencyCycles > ctrl.deadline()) {
        JUMANJI_TRACE(
            tracer_,
            instant(tracePid_ + Tracer::kCoresPid, appTile(vc),
                    "deadlineViolation", now,
                    {{"vc", static_cast<double>(vc)},
                     {"latencyCycles", latencyCycles},
                     {"deadline", ctrl.deadline()}}));
    }
    ctrl.requestCompleted(latencyCycles);
}

void
RuntimeDriver::setTracer(Tracer *tracer, std::uint32_t basePid)
{
    tracer_ = tracer;
    tracePid_ = basePid;
    // Cached track names point into the previous tracer's interned
    // storage; re-intern lazily against the new one.
    allocTrackNames_.clear();
}

void
RuntimeDriver::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + "reconfigurations",
                   "placement epochs executed", &reconfigs_);
    reg.addCounter(prefix + "coherenceInvalidations",
                   "lines moved by coherence walks across all epochs",
                   &invalidations_);
    for (const auto &app : apps_) {
        VcId vc = app.vc;
        std::string p =
            prefix + "vc" +
            statIndexName(static_cast<std::uint64_t>(vc)) + ".";
        reg.addGauge(p + "allocLines",
                     "lines installed at the last reconfiguration",
                     [this, vc] {
                         const std::uint64_t *lines = lastAlloc_.lookup(vc);
                         return lines == nullptr
                                    ? 0.0
                                    : static_cast<double>(*lines);
                     });
        if (auto *ctrl = controller(vc)) {
            reg.addGauge(p + "targetLines",
                         "feedback-controller capacity target",
                         [ctrl] {
                             return static_cast<double>(
                                 ctrl->targetLines());
                         });
            reg.addGauge(p + "deadline",
                         "tail-latency deadline in cycles",
                         [ctrl] { return ctrl->deadline(); });
        }
    }
}

void
RuntimeDriver::migrateApp(VcId vc, std::uint32_t newTile)
{
    for (auto &app : apps_) {
        if (app.vc == vc) {
            app.coreTile = newTile;
            return;
        }
    }
    panic("RuntimeDriver::migrateApp: unknown VC");
}

std::uint32_t
RuntimeDriver::appTile(VcId vc) const
{
    for (const auto &app : apps_)
        if (app.vc == vc) return app.coreTile;
    panic("RuntimeDriver::appTile: unknown VC");
}

FeedbackController *
RuntimeDriver::controller(VcId vc)
{
    auto *slot = controllers_.lookup(vc);
    return slot == nullptr ? nullptr : slot->get();
}

void
RuntimeDriver::setDeadline(VcId vc, double deadline)
{
    auto *slot = controllers_.lookup(vc);
    if (slot == nullptr)
        panic("RuntimeDriver::setDeadline: not a controlled VC");
    (*slot)->setDeadline(deadline);
}

EpochInputs
RuntimeDriver::gatherInputs()
{
    EpochInputs in;
    in.geo = geo_;
    in.mesh = &path_->mesh();

    for (const auto &app : apps_) {
        VcInfo vc;
        vc.vc = app.vc;
        vc.app = app.app;
        vc.vm = app.vm;
        vc.coreTile = app.coreTile;
        vc.latencyCritical = app.latencyCritical;
        vc.name = app.name;

        // UMON curve, convex-hulled: the DRRIP approximation
        // (Sec. IV-A). Batch VCs on the ideal path use its UMONs.
        MemPath *source = path_;
        if (idealBatchPath_ != nullptr && !app.latencyCritical)
            source = idealBatchPath_;
        Umon &umon = source->umon(app.vc);
        vc.curve = hullCurves_ ? umon.missCurve().convexHull()
                               : umon.missCurve();

        // Rate-normalize batch curves (see RuntimeAppInfo).
        if (rateNormalize_ && !app.latencyCritical &&
            app.nominalAccessesPerCycle > 0.0 &&
            umon.accesses() > 0) {
            double nominal = app.nominalAccessesPerCycle *
                             static_cast<double>(epochTicks_);
            double factor = nominal /
                            static_cast<double>(umon.accesses());
            if (factor > 1.0) vc.curve = vc.curve.scaled(factor);
        }

        if (app.latencyCritical) {
            if (fixedLcTarget_ > 0) {
                vc.targetLines = fixedLcTarget_;
            } else {
                auto *slot = controllers_.lookup(app.vc);
                if (slot == nullptr)
                    panic("RuntimeDriver: LC app without controller");
                vc.targetLines = (*slot)->targetLines();

                // Installation deadband: relocating an LC reservation
                // invalidates its hottest lines (the coherence walk),
                // which at our compressed epoch length costs a
                // meaningful fraction of an epoch's accesses. Only
                // move the installed size for changes >= 15% — except
                // growth demands (missed deadlines), which always
                // apply immediately.
                const std::uint64_t *inst =
                    installedLcTarget_.lookup(app.vc);
                if (inst != nullptr && vc.targetLines < *inst) {
                    double rel = static_cast<double>(*inst -
                                                     vc.targetLines) /
                                 static_cast<double>(*inst);
                    if (rel < 0.15) vc.targetLines = *inst;
                }
                installedLcTarget_[app.vc] = vc.targetLines;
            }
        }
        in.vcs.push_back(std::move(vc));
    }
    return in;
}

void
RuntimeDriver::installPlan(const PlacementPlan &plan,
                           [[maybe_unused]] Tick now)
{
    std::uint64_t invalidations = 0;
    lastAlloc_.clear();
    for (const auto &app : apps_) {
        auto descIt = plan.descriptors.find(app.vc);
        if (descIt == plan.descriptors.end()) {
            warn("RuntimeDriver: no placement for app " + app.name);
            continue;
        }

        MemPath *target = path_;
        if (idealBatchPath_ != nullptr && !app.latencyCritical)
            target = idealBatchPath_;

        // Way masks first: the placement walk migrates lines into
        // their new banks, and those fills must land inside the
        // VC's *new* partition, not the stale one.
        auto maskIt = plan.wayMasks.find(app.vc);
        if (maskIt != plan.wayMasks.end())
            target->installWayMasks(app.vc, maskIt->second);

        // Stabilize against the installed descriptor so that small
        // allocation changes move few hash slices (fewer coherence
        // invalidations).
        PlacementDescriptor desc = descIt->second;
        if (target->vtb().has(app.vc))
            desc = desc.stabilizedAgainst(
                target->vtb().descriptor(app.vc));

        invalidations += target->installPlacement(app.vc, desc);
        lastAlloc_[app.vc] = plan.matrix.vcTotal(app.vc);
    }
    invalidations_ += invalidations;

#if !defined(JUMANJI_DISABLE_TRACING)
    if (tracer_ != nullptr) {
        tracer_->instant(
            tracePid_ + Tracer::kRuntimePid, 0, "repartition", now,
            {{"epoch", static_cast<double>(reconfigs_)},
             {"invalidations", static_cast<double>(invalidations)}});
        if (invalidations > 0) {
            tracer_->instant(tracePid_ + Tracer::kRuntimePid, 0,
                             "coherenceWalk", now,
                             {{"lines",
                               static_cast<double>(invalidations)}});
        }
        for (const auto &[vc, lines] : lastAlloc_) {
            const char *track = nullptr;
            if (const char *const *cached = allocTrackNames_.lookup(vc)) {
                track = *cached;
            } else {
                // Intern once per VC; the tracer owns pointer-stable
                // storage, so later epochs skip the interning lookup.
                track = tracer_->internName(
                    ("allocLines.vc" +
                     statIndexName(static_cast<std::uint64_t>(vc)))
                        .c_str());
                allocTrackNames_[vc] = track;
            }
            tracer_->counterInterned(tracePid_ + Tracer::kRuntimePid,
                                     track, now,
                                     static_cast<double>(lines));
        }
    }
#endif
}

void
RuntimeDriver::reconfigureNow(Tick now)
{
    JUMANJI_PROF_SCOPE("sim.epoch.repartition");
    checkSetPhase("reconfigure");
    EpochInputs in = gatherInputs();
    PlacementPlan plan = policy_->reconfigure(in);
#if JUMANJI_CHECKS_ACTIVE
    // Every registered app with allocated lines must come out of the
    // policy with a descriptor and a full set of way masks; a missing
    // entry would silently leave the app on its stale placement.
    for (const auto &app : apps_) {
        if (plan.matrix.vcTotal(app.vc) == 0) continue;
        JUMANJI_INVARIANT(plan.descriptors.count(app.vc) == 1,
                          "allocated VC missing a descriptor");
        auto maskIt = plan.wayMasks.find(app.vc);
        JUMANJI_INVARIANT(maskIt != plan.wayMasks.end() &&
                              maskIt->second.size() == geo_.banks,
                          "allocated VC missing per-bank way masks");
    }
#endif
    installPlan(plan, now);
    reconfigs_++;
    checkSetPhase("simulate");

    // Age UMON counters so curves track the recent epochs while
    // keeping enough history to stay stable (see DESIGN.md).
    for (const auto &app : apps_) {
        MemPath *source = path_;
        if (idealBatchPath_ != nullptr && !app.latencyCritical)
            source = idealBatchPath_;
        source->umon(app.vc).decay(0.5);
    }
}

Tick
RuntimeDriver::resume(Tick now)
{
    reconfigureNow(now);
    return now + epochTicks_;
}

} // namespace jumanji
