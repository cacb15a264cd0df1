#include "src/cpu/core_model.hh"

#include <cmath>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

void
CoreModel::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + "instrs", "instructions retired", &instrs_);
    reg.addCounter(prefix + "stallCycles",
                   "cycles stalled on LLC accesses", &stallCycles_);
    reg.addCounter(prefix + "l1Hits", "statistical L1 hits",
                   &counters_.l1Hits);
    reg.addCounter(prefix + "l2Hits", "statistical L2 hits",
                   &counters_.l2Hits);
    reg.addCounter(prefix + "llcAccesses",
                   "post-L2 accesses issued to the LLC",
                   &counters_.l2Misses);
    reg.addCounter(prefix + "llcHits", "LLC hits seen by this core",
                   &counters_.llcHits);
    reg.addCounter(prefix + "llcMisses", "LLC misses seen by this core",
                   &counters_.llcMisses);
}

CoreModel::CoreModel(CoreId id, const AccessOwner &owner, AppModel *app,
                     MemPath *path, Rng rng)
    : id_(id),
      owner_(owner),
      app_(app),
      path_(path),
      rng_(rng)
{
    if (app_ == nullptr || path_ == nullptr)
        fatal("CoreModel: app and path must be non-null");
    traits_ = &app_->traits();
}

Tick
CoreModel::completeAccess(Tick now)
{
    // `now` is the access's arrival tick at its bank.
    checkSetCore(id_);
    JUMANJI_ASSERT(now >= pendingIssueTick_,
                   "access arrived before it was issued");
    accessPending_ = false;

    PathAccessResult r =
        path_->accessArrived(now, static_cast<std::uint32_t>(id_), owner_,
                             pendingLine_, pendingRoute_);
    if (r.llcHit) {
        counters_.llcHits++;
    } else {
        counters_.llcMisses++;
        counters_.memAccesses++;
    }
    counters_.nocHops += 2ull * r.hopsToBank;

    // Latency seen by the core: request traversal + bank/memory +
    // response traversal (the latter two are in r.latency).
    Tick latency = pendingRoute_.traversal + r.latency;
    Tick stall = static_cast<Tick>(std::ceil(
        static_cast<double>(latency) * traits_->stallFactor));
    stallCycles_ += stall;
    app_->onAccessComplete(pendingIssueTick_ + latency);

    Tick next = pendingIssueTick_ + stall;
    return next > now ? next : now + 1;
}

Tick
CoreModel::resume(Tick now)
{
    checkSetCore(id_);
    if (accessPending_) return completeAccess(now);

    AppStep step = app_->next(now, rng_);

    if (step.kind == AppStep::Kind::Idle) {
        return step.wakeTick;
    }

    // Compute burst.
    const AppTraits &traits = *traits_;
    Tick burst = static_cast<Tick>(
        std::ceil(static_cast<double>(step.instrs) / traits.baseIpc));
    instrs_ += step.instrs;

    // L1/L2 energy accounting: these hit counts are statistical (the
    // generators emit the post-L2 stream), derived from traits.
    double l1Accesses = static_cast<double>(step.instrs) *
                        traits.l1PerInstr;
    double l2Accesses = l1Accesses * traits.l1MissFrac;
    counters_.l1Hits += static_cast<std::uint64_t>(l1Accesses - l2Accesses);
    counters_.l1Misses += static_cast<std::uint64_t>(l2Accesses);
    counters_.l2Hits += static_cast<std::uint64_t>(
        l2Accesses * (1.0 - traits.l2MissFrac));

    if (step.access) {
        counters_.l2Misses++;
        // Issue: resume at the bank-arrival tick to take the port in
        // true arrival order.
        pendingRoute_ = path_->planAccess(
            static_cast<std::uint32_t>(id_), owner_.vc, *step.access);
        accessPending_ = true;
        pendingLine_ = *step.access;
        pendingIssueTick_ = now + burst;
        return pendingIssueTick_ + pendingRoute_.traversal;
    }

    Tick next = now + burst;
    return next > now ? next : now + 1;
}

} // namespace jumanji
