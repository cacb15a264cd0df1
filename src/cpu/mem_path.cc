#include "src/cpu/mem_path.hh"

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

MemPath::MemPath(const LlcParams &llc, const MeshParams &mesh,
                 const MemoryParams &mem, const UmonParams &umon,
                 std::uint64_t seed)
    : mesh_(mesh),
      memory_(mem, mesh_),
      llcParams_(llc),
      umonParams_(umon)
{
    if (llc.banks == 0) fatal("MemPath: need at least one LLC bank");
    if (llc.banks > mesh_.numTiles())
        fatal("MemPath: more banks than mesh tiles");
    banks_.reserve(llc.banks);
    for (std::uint32_t b = 0; b < llc.banks; b++) {
        banks_.push_back(std::make_unique<CacheBank>(
            static_cast<BankId>(b), llc.setsPerBank, llc.ways, llc.repl,
            llc.timing, seed + 0x1000 + b));
    }
    // Max one-way hops on an X-Y route is (cols-1) + (rows-1).
    hopCounters_.assign(mesh.cols + mesh.rows - 1, 0);
}

void
MemPath::registerVc(VcId vc)
{
    if (umons_.count(vc)) return;
    umons_[vc] = std::make_unique<Umon>(umonParams_, totalLines());
}

Umon &
MemPath::umon(VcId vc)
{
    auto *u = umons_.lookup(vc);
    if (u == nullptr) panic("MemPath::umon: unregistered VC");
    return **u;
}

std::uint64_t
MemPath::linesPerBank() const
{
    return static_cast<std::uint64_t>(llcParams_.setsPerBank) *
           llcParams_.ways;
}

std::uint64_t
MemPath::totalLines() const
{
    return linesPerBank() * llcParams_.banks;
}

MemPath::Route
MemPath::planAccess(std::uint32_t coreTile, VcId vc, LineAddr line) const
{
    Route route;
    route.bank = vtb_.lookup(vc, line);
    if (route.bank == kInvalidBank)
        panic("MemPath::planAccess: VC descriptor has an invalid slot");
    JUMANJI_ASSERT(static_cast<std::uint32_t>(route.bank) <
                       llcParams_.banks,
                   "descriptor names a bank outside the LLC");
    route.hops = mesh_.hops(coreTile,
                            static_cast<std::uint32_t>(route.bank));
    route.traversal = mesh_.traversalLatency(route.hops);
    route.tile = coreTile;
    route.generation = vtb_.generation();
    return route;
}

PathAccessResult
MemPath::accessArrived(Tick now, std::uint32_t coreTile,
                       const AccessOwner &owner, LineAddr line,
                       const Route &planned)
{
    PathAccessResult result;

    const Route route =
        planned.generation == vtb_.generation() && planned.tile == coreTile
            ? planned
            : planAccess(coreTile, owner.vc, line);
    JUMANJI_ASSERT(route.bank == vtb_.lookup(owner.vc, line),
                   "a reused route names a stale bank");
    result.bank = route.bank;
    result.hopsToBank = route.hops;

    // With link contention modelled, the request may arrive later
    // than the uncontended estimate the core scheduled with; the
    // extra wait is part of the observed latency.
    Tick linkDelay = 0;
    if (mesh_.params().modelLinkContention) {
        // A reconfiguration or migration between issue and arrival
        // re-plans the route and can change the traversal, so
        // clamp instead of underflowing Tick (an underflow would
        // poison the link busy-until times permanently).
        Tick issue = now > route.traversal ? now - route.traversal : 0;
        Tick actual = mesh_.traverse(
            issue, coreTile, static_cast<std::uint32_t>(route.bank),
            /*request flits=*/1);
        if (actual > now) linkDelay = actual - now;
        now = std::max(now, actual);
    }

    JUMANJI_ASSERT(route.hops <
                       mesh_.params().cols + mesh_.params().rows - 1,
                   "X-Y route exceeds the mesh diameter");
    CacheBank &bank = *banks_[static_cast<std::size_t>(route.bank)];

    // Vulnerability metric (Sec. VII): apps from other VMs occupying
    // this bank when the access arrives are potential port attackers.
    attackerSum_ += bank.constArray().appsFromOtherVms(owner.vm);
    llcAccesses_++;

    // UMON observes the access regardless of hit/miss.
    if (auto *umon = umons_.lookup(owner.vc)) (*umon)->access(line);

    counters_.nocHops += 2ull * route.hops;
    hopCounters_[route.hops]++;

    BankAccessResult bankResult = bank.access(now, line, owner);
    result.llcHit = bankResult.hit;
    result.bankQueueDelay = bankResult.queueDelay;

    // Bank (+memory) plus the response traversal back to the core.
    Tick total = linkDelay + bankResult.latency + route.traversal;
    if (mesh_.params().modelLinkContention) {
        // The data response occupies links for its flit count.
        Tick respStart = now + bankResult.latency;
        Tick respEnd = mesh_.traverse(
            respStart, static_cast<std::uint32_t>(route.bank), coreTile,
            kDataFlits);
        total = linkDelay + bankResult.latency +
                (respEnd - respStart);
    }
    if (bankResult.hit) {
        counters_.llcHits++;
    } else {
        counters_.llcMisses++;
        counters_.memAccesses++;
        // Bank -> memory controller -> bank.
        std::uint32_t mc = memory_.controllerFor(line);
        std::uint32_t mcTile = memory_.controllerTile(mc);
        std::uint32_t mcHops = mesh_.hops(
            static_cast<std::uint32_t>(route.bank), mcTile);
        counters_.nocHops += 2ull * mcHops;
        Tick arriveAtMem = now + bankResult.latency +
                           mesh_.traversalLatency(mcHops);
        MemAccessResult memResult = memory_.access(
            arriveAtMem, line, owner.vm, owner.latencyCritical);
        total += 2 * mesh_.traversalLatency(mcHops) + memResult.latency;
    }

    result.latency = total;
    return result;
}

PathAccessResult
MemPath::access(Tick now, std::uint32_t coreTile, const AccessOwner &owner,
                LineAddr line)
{
    Route route = planAccess(coreTile, owner.vc, line);
    PathAccessResult result = accessArrived(now + route.traversal,
                                            coreTile, owner, line, route);
    // Full issue-to-data latency includes the request traversal.
    result.latency += route.traversal;
    return result;
}

std::uint64_t
MemPath::installPlacement(VcId vc, const PlacementDescriptor &desc)
{
    const PlacementDescriptor *installed = vtb_.descriptorPtr(vc);
    if (installed == nullptr) {
        vtb_.install(vc, desc);
        return 0;
    }
    const PlacementDescriptor old = *installed;
    vtb_.install(vc, desc);
    if (old == desc) return 0;

    // Background coherence walk: *migrate* lines whose bank changed.
    // (Jigsaw's hardware invalidates them; at paper scale a refetch
    // costs ~0.1% of an epoch, so invalidation and migration are
    // equivalent. At this simulator's compressed epoch length an
    // invalidation storm would cost ~100x more *relative* time than
    // it does in the paper, so migration is the behaviour-preserving
    // model — see DESIGN.md.)
    //
    // Only banks that lose a slot can hold a line that moves. Every
    // resident line of the VC sits in old.bankFor(line): fills land
    // on the VTB bank at arrival and migrations on desc.bankFor. So
    // a bank all of whose old slots keep it holds no moving line,
    // and skipping it leaves the evictee order unchanged.
    std::vector<bool> losesSlot(banks_.size(), false);
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++) {
        // kInvalidBank converts to an index past the end.
        const auto was = static_cast<std::size_t>(old.slot(s));
        if (old.slot(s) != desc.slot(s) && was < losesSlot.size())
            losesSlot[was] = true;
    }

    std::uint64_t moved = 0;
    std::vector<std::pair<LineAddr, AccessOwner>> evictees;
    for (auto &bank : banks_) {
        BankId here = bank->id();
        auto moves = [&](LineAddr line, const AccessOwner &o) {
            return o.vc == vc && desc.bankFor(line) != here;
        };
        if (!losesSlot[static_cast<std::size_t>(here)]) {
#if JUMANJI_CHECKS_ACTIVE
            // A predicate that never accepts leaves the array as is.
            bank->array().invalidateIf(
                [&](LineAddr line, const AccessOwner &o) {
                    JUMANJI_INVARIANT(!moves(line, o),
                                      "the walk skipped a bank holding "
                                      "a line that moves");
                    return false;
                });
#endif
            continue;
        }
        bank->array().invalidateIf(
            [&](LineAddr line, const AccessOwner &o) {
                if (!moves(line, o)) return false;
                evictees.emplace_back(line, o);
                return true;
            });
    }
    coherenceWalkLines_ += evictees.size();
    if (!migrate_) return evictees.size();
    for (const auto &[line, owner] : evictees) {
        BankId target = desc.bankFor(line);
        if (target == kInvalidBank) continue;
        JUMANJI_ASSERT(static_cast<std::size_t>(target) < banks_.size(),
                       "coherence walk targets a nonexistent bank");
        JUMANJI_ASSERT(owner.vc == vc,
                       "coherence walk moved another VC's line");
        banks_[static_cast<std::size_t>(target)]->array().insert(line,
                                                                 owner);
        moved++;
    }
    return moved;
}

std::uint64_t
MemPath::flushBankForVm(BankId bank, VmId incoming)
{
    std::uint64_t flushed =
        banks_[static_cast<std::size_t>(bank)]->array().invalidateIf(
            [incoming](LineAddr, const AccessOwner &o) {
                return o.vm != incoming;
            });
    vmFlushLines_ += flushed;
    return flushed;
}

void
MemPath::registerStats(StatRegistry &reg, const std::string &top)
{
    // LLC: aggregates plus one subtree per bank.
    reg.addCounter(top + "llc.hits", "LLC hits on the timed path",
                   &counters_.llcHits);
    reg.addCounter(top + "llc.misses", "LLC misses on the timed path",
                   &counters_.llcMisses);
    for (std::uint32_t b = 0; b < banks_.size(); b++) {
        banks_[b]->registerStats(
            reg, top + "llc.bank" + statIndexName(b) + ".");
    }

    // D-NUCA structures.
    vtb_.registerStats(reg, top + "dnuca.vtb.");
    reg.addCounter(top + "dnuca.vtb.invalidations",
                   "lines displaced by reconfiguration coherence walks",
                   &coherenceWalkLines_);
    reg.addCounter(top + "dnuca.vmFlushLines",
                   "lines dropped by VM swap-in bank flushes",
                   &vmFlushLines_);
    for (const auto &[vc, umon] : umons_) {
        umon->registerStats(
            reg, top + "dnuca.umon" +
                     statIndexName(static_cast<std::uint64_t>(vc)) + ".");
    }

    // NoC: hop totals plus the per-hop-count histogram.
    reg.addCounter(top + "noc.hops", "total hops traversed (both ways)",
                   &counters_.nocHops);
    mesh_.registerStats(reg, top + "noc.");
    for (std::uint32_t h = 0; h < hopCounters_.size(); h++) {
        reg.addCounter(top + "noc.hopHist.h" + statIndexName(h),
                       "accesses routed over this many hops",
                       &hopCounters_[h]);
    }

    // Memory controllers.
    memory_.registerStats(reg, top + "mem.");
}

void
MemPath::installWayMasks(VcId vc, const std::vector<WayMask> &masksPerBank)
{
    if (masksPerBank.size() != banks_.size())
        panic("MemPath::installWayMasks: mask count != bank count");
    for (std::size_t b = 0; b < banks_.size(); b++)
        banks_[b]->array().setWayMask(vc, masksPerBank[b]);
}

} // namespace jumanji
