#include "src/core/policies.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "src/core/jigsaw_placer.hh"
#include "src/core/lat_crit_placer.hh"
#include "src/core/lookahead.hh"
#include "src/sim/logging.hh"

namespace jumanji {

const char *
llcDesignName(LlcDesign design)
{
    switch (design) {
      case LlcDesign::Static: return "Static";
      case LlcDesign::Adaptive: return "Adaptive";
      case LlcDesign::VMPart: return "VM-Part";
      case LlcDesign::Jigsaw: return "Jigsaw";
      case LlcDesign::Jumanji: return "Jumanji";
      case LlcDesign::JumanjiInsecure: return "Jumanji-Insecure";
      case LlcDesign::JumanjiIdealBatch: return "Jumanji-IdealBatch";
    }
    return "?";
}

std::unique_ptr<LlcPolicy>
LlcPolicy::create(LlcDesign design)
{
    switch (design) {
      case LlcDesign::Static:
        return std::make_unique<StaticPolicy>();
      case LlcDesign::Adaptive:
        return std::make_unique<AdaptivePolicy>();
      case LlcDesign::VMPart:
        return std::make_unique<VmPartPolicy>();
      case LlcDesign::Jigsaw:
        return std::make_unique<JigsawPolicy>();
      case LlcDesign::Jumanji:
        return std::make_unique<JumanjiPolicy>(true);
      case LlcDesign::JumanjiInsecure:
        return std::make_unique<JumanjiPolicy>(false);
      case LlcDesign::JumanjiIdealBatch:
        return std::make_unique<JumanjiIdealBatchPolicy>();
    }
    panic("unknown LLC design");
}

namespace {

std::vector<VcInfo>
latCritOf(const EpochInputs &in)
{
    std::vector<VcInfo> lc;
    for (const auto &vc : in.vcs)
        if (vc.latencyCritical) lc.push_back(vc);
    return lc;
}

/**
 * The batch VCs of @p in, or only those of VM @p vm. Pointers, not
 * copies: the placement steps run every epoch.
 */
std::vector<const VcInfo *>
batchOf(const EpochInputs &in, std::optional<VmId> vm = std::nullopt)
{
    std::vector<const VcInfo *> batch;
    for (const auto &vc : in.vcs)
        if (!vc.latencyCritical && (!vm || vc.vm == *vm))
            batch.push_back(&vc);
    return batch;
}

std::vector<VcId>
idsOf(const std::vector<const VcInfo *> &vcs)
{
    std::vector<VcId> ids;
    for (const VcInfo *vc : vcs) ids.push_back(vc->vc);
    return ids;
}

std::vector<VmId>
vmsOf(const EpochInputs &in)
{
    std::vector<VmId> vms;
    for (const auto &vc : in.vcs)
        if (std::find(vms.begin(), vms.end(), vc.vm) == vms.end())
            vms.push_back(vc.vm);
    std::sort(vms.begin(), vms.end());
    return vms;
}

/**
 * Guarantees every VC has a descriptor and a mask vector, even VCs
 * that received no capacity this epoch (e.g. when latency-critical
 * reservations consume a whole bank's ways): they get a striped
 * descriptor over all banks and empty (uncached) fill masks.
 */
PlacementPlan
finalizePlan(PlacementPlan plan, const EpochInputs &in)
{
    std::vector<BankId> allBanks;
    for (std::uint32_t b = 0; b < in.geo.banks; b++)
        allBanks.push_back(static_cast<BankId>(b));

    for (const auto &vc : in.vcs) {
        if (!plan.descriptors.count(vc.vc)) {
            // Stripe over the VC's *own VM's* banks so the fallback
            // cannot route accesses into other VMs' banks (that
            // would reopen the port channel Jumanji closes). Only if
            // the VM owns nothing at all do we fall back to the
            // whole LLC.
            std::vector<BankId> vmBanks;
            for (const auto &other : in.vcs) {
                if (other.vm != vc.vm) continue;
                for (BankId b : plan.matrix.banksOfVc(other.vc))
                    if (std::find(vmBanks.begin(), vmBanks.end(), b) ==
                        vmBanks.end())
                        vmBanks.push_back(b);
            }
            std::sort(vmBanks.begin(), vmBanks.end());
            PlacementDescriptor desc;
            desc.fillStriped(vmBanks.empty() ? allBanks : vmBanks);
            plan.descriptors[vc.vc] = desc;
        }
        if (!plan.wayMasks.count(vc.vc)) {
            plan.wayMasks[vc.vc] =
                std::vector<WayMask>(in.geo.banks, WayMask(0));
        }
    }
    return plan;
}

// The placement steps. Each design below is a sequence of these, so
// every step of Listing 3 (and of the S-NUCA baselines) is written
// once.

/**
 * Splits each bank's whole @p pool evenly among @p vcs (earlier VCs
 * take the remainder) and empties the pool: one unpartitioned share.
 */
void
shareEvenly(const std::vector<VcId> &vcs, std::vector<std::uint64_t> &pool,
            AllocationMatrix &matrix)
{
    if (vcs.empty()) return;
    auto n = static_cast<std::uint64_t>(vcs.size());
    for (std::size_t b = 0; b < pool.size(); b++) {
        std::uint64_t per = pool[b] / n;
        std::uint64_t extra = pool[b] % n;
        for (std::size_t i = 0; i < vcs.size(); i++)
            matrix.add(static_cast<BankId>(b), vcs[i],
                       per + (i < extra ? 1 : 0));
        pool[b] = 0;
    }
}

/**
 * S-NUCA: takes @p lines uniformly from every bank (as far as each
 * bank's balance allows) and shares each bank's stripe evenly among
 * @p vcs.
 */
void
stripeAcrossBanks(const std::vector<VcId> &vcs, std::uint64_t lines,
                  std::vector<std::uint64_t> &balance,
                  AllocationMatrix &matrix)
{
    std::uint64_t per = lines / balance.size();
    std::uint64_t extra = lines % balance.size();
    std::vector<std::uint64_t> stripe(balance.size());
    for (std::size_t b = 0; b < balance.size(); b++) {
        stripe[b] = std::min(per + (b < extra ? 1 : 0), balance[b]);
        balance[b] -= stripe[b];
    }
    shareEvenly(vcs, stripe, matrix);
}

/**
 * VM @p vm's claim in a per-VM lookahead: its batch apps' curves
 * combined as if optimally partitioned among them. The floor is 0;
 * each caller sets its own.
 */
LookaheadClaim
vmBatchClaim(const EpochInputs &in, VmId vm)
{
    std::vector<MissCurve> curves;
    for (const auto &vc : in.vcs)
        if (vc.vm == vm && !vc.latencyCritical) curves.push_back(vc.curve);
    LookaheadClaim claim;
    claim.id = vm;
    claim.curve = curves.empty() ? MissCurve::flat(1, 0.0)
                                 : MissCurve::combineOptimal(curves);
    return claim;
}

/**
 * Per-VC lookahead over @p budget lines, then Jigsaw placement of
 * the grants into @p banks (empty: every bank). Each VC is floored at
 * one way. Coarse (4-way) quanta keep allocations put when curves
 * wobble, which keeps coherence-walk churn low.
 */
void
lookaheadAndPlace(const std::vector<const VcInfo *> &vcs,
                  std::uint64_t budget, const std::vector<BankId> &banks,
                  const EpochInputs &in,
                  std::vector<std::uint64_t> &balance,
                  AllocationMatrix &matrix)
{
    const PlacementGeometry &geo = in.geo;
    std::vector<LookaheadClaim> claims;
    for (const VcInfo *vc : vcs) {
        LookaheadClaim claim;
        claim.id = vc->vc;
        claim.curve = vc->curve;
        claim.floorLines = geo.linesPerWay();
        claims.push_back(std::move(claim));
    }
    LookaheadResult alloc =
        lookahead(claims, budget, geo, 4 * geo.linesPerWay());

    std::vector<PlacementRequest> requests;
    for (std::size_t i = 0; i < vcs.size(); i++) {
        PlacementRequest r;
        r.vc = vcs[i]->vc;
        r.coreTile = vcs[i]->coreTile;
        r.lines = alloc.lines[i];
        // Access intensity proxy: misses avoided by full allocation.
        r.intensity = vcs[i]->curve.at(0);
        requests.push_back(r);
    }
    jigsawPlacer(requests, balance, banks, *in.mesh, matrix);
}

/**
 * JumanjiLookahead: divides @p budget (a whole number of banks) among
 * the VMs' batch claims, VM i floored at @p floors[i], and returns
 * each VM's share in banks.
 */
std::vector<std::uint32_t>
bankQuotas(const EpochInputs &in, const std::vector<VmId> &vms,
           const std::vector<std::uint64_t> &floors, std::uint64_t budget)
{
    std::vector<LookaheadClaim> claims;
    for (std::size_t i = 0; i < vms.size(); i++) {
        claims.push_back(vmBatchClaim(in, vms[i]));
        claims.back().floorLines = floors[i];
    }
    LookaheadResult totals = jumanjiLookahead(claims, budget, in.geo);
    std::vector<std::uint32_t> banks;
    for (std::uint64_t lines : totals.lines)
        banks.push_back(
            static_cast<std::uint32_t>(lines / in.geo.linesPerBank));
    return banks;
}

/**
 * Listing 3 lines 8-9: VMs take turns claiming the free bank nearest
 * to their first core, until VM i has claimed @p needed[i] banks or
 * no bank is free.
 */
void
claimNearestBanks(const EpochInputs &in, const std::vector<VmId> &vms,
                  std::vector<std::uint32_t> needed,
                  std::vector<VmId> &bankOwner)
{
    std::vector<std::vector<std::uint32_t>> nearest;
    for (VmId vm : vms) {
        auto first = std::find_if(
            in.vcs.begin(), in.vcs.end(),
            [vm](const VcInfo &vc) { return vc.vm == vm; });
        nearest.push_back(in.mesh->tilesByDistance(first->coreTile));
    }
    bool assigned = true;
    while (assigned) {
        assigned = false;
        for (std::size_t i = 0; i < vms.size(); i++) {
            if (needed[i] == 0) continue;
            for (std::uint32_t tile : nearest[i]) {
                if (tile >= bankOwner.size()) continue;
                if (bankOwner[tile] != kInvalidVm) continue;
                bankOwner[tile] = vms[i];
                needed[i]--;
                assigned = true;
                break;
            }
        }
    }
}

/**
 * Listing 3 lines 10-12: each VM's batch apps divide the free lines
 * of the VM's banks by lookahead and are placed inside those banks.
 * A VM that owns no bank places nothing, since an empty bank list
 * would let the placer use every bank.
 */
void
placeBatchInVmBanks(const EpochInputs &in, const std::vector<VmId> &vms,
                    const std::vector<VmId> &bankOwner,
                    std::vector<std::uint64_t> &balance,
                    AllocationMatrix &matrix)
{
    for (VmId vm : vms) {
        std::vector<BankId> vmBanks;
        std::uint64_t capacity = 0;
        for (std::size_t b = 0; b < bankOwner.size(); b++) {
            if (bankOwner[b] != vm) continue;
            vmBanks.push_back(static_cast<BankId>(b));
            capacity += balance[b];
        }
        if (vmBanks.empty()) continue;
        lookaheadAndPlace(batchOf(in, vm), capacity, vmBanks, in, balance,
                          matrix);
    }
}

} // namespace

// ------------------------------------------------------------- Static

PlacementPlan
StaticPolicy::reconfigure(const EpochInputs &in)
{
    const PlacementGeometry &geo = in.geo;
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);
    std::vector<std::vector<VcId>> sharedGroups{idsOf(batchOf(in))};
    auto lcCount = static_cast<std::uint32_t>(
        in.vcs.size() - sharedGroups.front().size());

    // Each LC app: lcWays_ ways in every bank — clamped so that,
    // when batch apps exist, they keep at least a quarter of the
    // bank (a real administrator would not CAT-out all ways).
    std::uint32_t lcWaysEff = lcWays_;
    if (!sharedGroups.front().empty() && lcCount > 0) {
        std::uint32_t budget =
            geo.waysPerBank - std::max(1u, geo.waysPerBank / 4);
        lcWaysEff = std::max(1u, std::min(lcWays_, budget / lcCount));
    }
    std::uint64_t lcLinesPerBank =
        static_cast<std::uint64_t>(lcWaysEff) * geo.linesPerWay();
    for (const auto &vc : in.vcs)
        if (vc.latencyCritical)
            stripeAcrossBanks({vc.vc}, lcLinesPerBank * geo.banks, balance,
                              matrix);

    // Batch apps share all remaining ways in every bank: equal
    // claims that the materializer merges into one partition.
    shareEvenly(sharedGroups.front(), balance, matrix);
    return finalizePlan(materializePlan(matrix, geo, &sharedGroups), in);
}

// ----------------------------------------------------------- Adaptive

PlacementPlan
AdaptivePolicy::snucaPlan(const EpochInputs &in, bool partitionVms)
{
    const PlacementGeometry &geo = in.geo;
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    // LC apps: feedback-controlled size, striped across all banks
    // (way-partitioned S-NUCA, Fig. 2b).
    for (const auto &vc : in.vcs)
        if (vc.latencyCritical)
            stripeAcrossBanks({vc.vc}, vc.targetLines, balance, matrix);

    if (!partitionVms) {
        // Batch data unpartitioned: one shared pool (Fig. 2b).
        std::vector<std::vector<VcId>> sharedGroups{idsOf(batchOf(in))};
        shareEvenly(sharedGroups.front(), balance, matrix);
        return finalizePlan(materializePlan(matrix, geo, &sharedGroups), in);
    }

    // VM-Part: divide batch capacity among VMs by lookahead over
    // each VM's combined batch curve, then stripe each VM's share
    // across all banks (still S-NUCA; Fig. 2c). A VM's batch VCs
    // share one partition per bank: one way-mask group per VM.
    std::uint64_t batchBudget = 0;
    for (std::uint64_t free : balance) batchBudget += free;
    auto vms = vmsOf(in);
    std::vector<LookaheadClaim> claims;
    std::vector<std::vector<VcId>> vmBatchVcs;
    for (VmId vm : vms) {
        claims.push_back(vmBatchClaim(in, vm));
        vmBatchVcs.push_back(idsOf(batchOf(in, vm)));
        // Each VM keeps at least one way per bank so every batch app
        // has a fillable partition (CAT cannot express zero ways).
        if (!vmBatchVcs.back().empty())
            claims.back().floorLines =
                static_cast<std::uint64_t>(geo.banks) * geo.linesPerWay();
    }
    LookaheadResult shares = lookahead(claims, batchBudget, geo);
    for (std::size_t i = 0; i < vms.size(); i++)
        if (!vmBatchVcs[i].empty())
            stripeAcrossBanks(vmBatchVcs[i], shares.lines[i], balance,
                              matrix);
    return finalizePlan(materializePlan(matrix, geo, &vmBatchVcs), in);
}

PlacementPlan
AdaptivePolicy::reconfigure(const EpochInputs &in)
{
    return snucaPlan(in, false);
}

PlacementPlan
VmPartPolicy::reconfigure(const EpochInputs &in)
{
    return snucaPlan(in, true);
}

// ------------------------------------------------------------- Jigsaw

PlacementPlan
JigsawPolicy::reconfigure(const EpochInputs &in)
{
    const PlacementGeometry &geo = in.geo;
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    // Pure data-movement allocation: lookahead over every VC's miss
    // curve, LC and batch alike. LC apps at low load have tiny
    // curves, so Jigsaw starves them — the paper's Fig. 4b.
    std::vector<const VcInfo *> vcs;
    for (const auto &vc : in.vcs) vcs.push_back(&vc);
    lookaheadAndPlace(vcs, geo.totalLines(), {}, in, balance, matrix);
    return finalizePlan(materializePlan(matrix, geo, nullptr), in);
}

// ------------------------------------------------------------ Jumanji

PlacementPlan
JumanjiPolicy::reconfigure(const EpochInputs &in)
{
    return isolate_ ? securePlan(in) : insecurePlan(in);
}

PlacementPlan
JumanjiPolicy::securePlan(const EpochInputs &in)
{
    const PlacementGeometry &geo = in.geo;
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    // Listing 3 line 2: reserve latency-critical space in nearby
    // banks, never co-locating two VMs' LC data.
    auto lc = latCritOf(in);
    latCritPlacer(lc, balance, *in.mesh, geo, /*isolateVms=*/true, matrix);

    // JumanjiLookahead divides the LLC among VMs in whole banks; a
    // VM's claim is floored at its LC reservation.
    auto vms = vmsOf(in);
    std::vector<std::uint64_t> lcLines(vms.size(), 0);
    for (std::size_t i = 0; i < vms.size(); i++)
        for (const auto &vc : lc)
            if (vc.vm == vms[i]) lcLines[i] += matrix.vcTotal(vc.vc);
    std::vector<std::uint32_t> needed =
        bankQuotas(in, vms, lcLines, geo.totalLines());

    // Banks already holding a VM's LC data belong to that VM.
    std::vector<VmId> bankOwner(geo.banks, kInvalidVm);
    std::map<VcId, VmId> vmOf;
    for (const auto &vc : in.vcs) vmOf[vc.vc] = vc.vm;
    for (std::uint32_t b = 0; b < geo.banks; b++) {
        auto inBank = matrix.vmsInBank(static_cast<BankId>(b), vmOf);
        if (inBank.empty()) continue;
        if (inBank.size() > 1)
            warn("JumanjiPolicy: LC placement co-located two VMs");
        bankOwner[b] = inBank.front();
        for (std::size_t i = 0; i < vms.size(); i++) {
            if (vms[i] == inBank.front() && needed[i] > 0) needed[i]--;
        }
    }

    // Sticky pass: each VM first reclaims the banks it owned last
    // epoch, so quota wobbles move at most a bank or two.
    if (lastOwner_.size() == geo.banks) {
        for (std::size_t i = 0; i < vms.size(); i++) {
            for (std::uint32_t b = 0; b < geo.banks && needed[i] > 0;
                 b++) {
                if (bankOwner[b] != kInvalidVm) continue;
                if (lastOwner_[b] != vms[i]) continue;
                bankOwner[b] = vms[i];
                needed[i]--;
            }
        }
    }

    claimNearestBanks(in, vms, needed, bankOwner);
    lastOwner_ = bankOwner;
    placeBatchInVmBanks(in, vms, bankOwner, balance, matrix);
    return finalizePlan(materializePlan(matrix, geo, nullptr), in);
}

PlacementPlan
JumanjiPolicy::insecurePlan(const EpochInputs &in)
{
    const PlacementGeometry &geo = in.geo;
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> balance(geo.banks, geo.linesPerBank);

    // LC reservations exactly as Jumanji, but no VM isolation. Batch:
    // per-app lookahead over the whole remaining LLC, placed with no
    // bank-ownership constraint.
    latCritPlacer(latCritOf(in), balance, *in.mesh, geo,
                  /*isolateVms=*/false, matrix);
    std::uint64_t batchBudget = 0;
    for (std::uint64_t free : balance) batchBudget += free;
    lookaheadAndPlace(batchOf(in), batchBudget, {}, in, balance, matrix);
    return finalizePlan(materializePlan(matrix, geo, nullptr), in);
}

// --------------------------------------------------- Ideal batch LLC

PlacementPlan
JumanjiIdealBatchPolicy::reconfigure(const EpochInputs &in)
{
    const PlacementGeometry &geo = in.geo;

    // LC and batch data live in *separate copies* of the LLC, so
    // their allocations are materialized independently and merged;
    // the System routes LC VCs to one MemPath and batch to another.
    // LC apps: Jumanji's nearby reservation, in the LC copy of the
    // LLC (full balance; batch does not compete).
    AllocationMatrix lcMatrix(geo.banks);
    std::vector<std::uint64_t> lcBalance(geo.banks, geo.linesPerBank);
    auto lc = latCritOf(in);
    latCritPlacer(lc, lcBalance, *in.mesh, geo, /*isolateVms=*/true,
                  lcMatrix);
    std::uint64_t lcTotal = 0;
    for (const auto &vc : lc) lcTotal += lcMatrix.vcTotal(vc.vc);

    // Batch apps: Jumanji's per-VM steps, VM isolation included
    // (Sec. VIII-C), with the capacity LC left over. The budget is
    // rounded down to whole banks (an idealized design need not
    // squeeze partial banks) and placed in a *fresh* LLC copy where
    // every bank is empty, so no VM claim carries an LC floor and no
    // bank is pre-assigned or sticky.
    std::uint64_t batchBudget =
        geo.totalLines() > lcTotal ? geo.totalLines() - lcTotal : 0;
    auto vms = vmsOf(in);
    std::vector<VmId> bankOwner(geo.banks, kInvalidVm);
    claimNearestBanks(
        in, vms,
        bankQuotas(in, vms, std::vector<std::uint64_t>(vms.size(), 0),
                   batchBudget / geo.linesPerBank * geo.linesPerBank),
        bankOwner);
    AllocationMatrix matrix(geo.banks);
    std::vector<std::uint64_t> batchBalance(geo.banks, geo.linesPerBank);
    placeBatchInVmBanks(in, vms, bankOwner, batchBalance, matrix);

    // Merge: LC descriptors/masks from the LC copy, batch from the
    // batch copy. Bank ids coincide; the System routes by VC.
    PlacementPlan lcPlan = materializePlan(lcMatrix, geo, nullptr);
    PlacementPlan batchPlan = materializePlan(matrix, geo, nullptr);
    for (auto &[vc, desc] : lcPlan.descriptors)
        batchPlan.descriptors[vc] = desc;
    for (auto &[vc, mask] : lcPlan.wayMasks)
        batchPlan.wayMasks[vc] = mask;
    // Keep the batch matrix for reporting; merge LC totals in.
    for (std::uint32_t b = 0; b < geo.banks; b++)
        for (const auto &[vc, lines] : lcMatrix.bank(
                 static_cast<BankId>(b)))
            batchPlan.matrix.add(static_cast<BankId>(b), vc, lines);
    return finalizePlan(std::move(batchPlan), in);
}

} // namespace jumanji
