#include "src/cache/cache_array.hh"

#include <bit>
#include <string>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/** Mixes line address bits so consecutive lines spread across sets. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

CacheArray::CacheArray(std::uint32_t sets, std::uint32_t ways,
                       ReplKind repl, std::uint64_t seed)
    : sets_(sets),
      ways_(ways),
      tags_(static_cast<std::size_t>(sets) * ways, 0),
      validBits_(sets, 0),
      lineOwners_(static_cast<std::size_t>(sets) * ways, 0),
      repl_(ReplPolicy::create(repl, sets, ways, seed)),
      fullMask_(WayMask::all(ways))
{
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("CacheArray: sets must be a nonzero power of two");
    if (ways == 0 || ways > 64)
        fatal("CacheArray: ways must be in [1, 64]");
}

std::uint32_t
CacheArray::setIndex(LineAddr line) const
{
    return static_cast<std::uint32_t>(mixBits(line) & (sets_ - 1));
}

std::uint32_t
CacheArray::findWay(std::uint32_t set, LineAddr line) const
{
    // Ascending ways, tag first: each iteration is independent, unlike
    // a clear-lowest-bit walk over the valid mask. A way keeps its tag
    // after invalidation, so the valid bit decides.
    const LineAddr *tagRow =
        tags_.data() + static_cast<std::size_t>(set) * ways_;
    const std::uint64_t valid = validBits_[set];
    for (std::uint32_t w = 0; w < ways_; w++)
        if (tagRow[w] == line && ((valid >> w) & 1) != 0) return w;
    return ways_;
}

std::uint16_t
CacheArray::internOwner(const AccessOwner &owner)
{
    std::uint16_t id;
    if (const std::uint16_t *known = ownerIndex_.lookup(owner)) {
        id = *known;
    } else {
        if (ownerTable_.size() == kMaxOwners)
            panic("CacheArray: more than " + std::to_string(kMaxOwners) +
                  " distinct line owners, the limit of a 2-byte owner id");
        id = static_cast<std::uint16_t>(ownerTable_.size());
        ownerTable_.push_back(owner);
        ownerIndex_[owner] = id;
    }
    lastOwnerOfVc_[owner.vc] = id;
    return id;
}

void
CacheArray::accountFill(const AccessOwner &owner)
{
    JUMANJI_ASSERT(validCount_ < numLines(),
                   "fill would exceed array capacity");
    validCount_++;
    appOccupancy_[owner.app]++;
    vcOccupancy_[owner.vc]++;
    std::uint64_t &perVm = vmApps_[owner.vm][owner.app];
    if (perVm == 0) vmAppTotal_++;
    perVm++;
}

void
CacheArray::accountDrop(const AccessOwner &owner)
{
    JUMANJI_ASSERT(validCount_ > 0, "drop from an empty array");
    JUMANJI_ASSERT(appOccupancy_[owner.app] > 0,
                   "app occupancy underflow");
    JUMANJI_ASSERT(vcOccupancy_[owner.vc] > 0,
                   "VC occupancy underflow");
    validCount_--;
    appOccupancy_[owner.app]--;
    vcOccupancy_[owner.vc]--;
    if (auto *apps = vmApps_.lookup(owner.vm)) {
        auto *count = apps->lookup(owner.app);
        if (count != nullptr && --*count == 0) {
            apps->erase(owner.app);
            vmAppTotal_--;
        }
    }
}

void
CacheArray::checkOccupancyInvariant() const
{
#if JUMANJI_CHECKS_ACTIVE
    std::uint64_t valid = 0;
    SmallIdMap<AppId, std::uint64_t> byApp;
    SmallIdMap<VcId, std::uint64_t> byVc;
    for (std::uint32_t s = 0; s < sets_; s++) {
        for (std::uint64_t bits = validBits_[s]; bits != 0;
             bits &= bits - 1) {
            auto w = static_cast<std::uint32_t>(std::countr_zero(bits));
            const AccessOwner &o =
                ownerOf(static_cast<std::size_t>(s) * ways_ + w);
            valid++;
            byApp[o.app]++;
            byVc[o.vc]++;
        }
    }
    JUMANJI_INVARIANT(valid == validCount_,
                      "validCount_ disagrees with the line array");
    for (const auto &[app, count] : byApp) {
        const std::uint64_t *have = appOccupancy_.lookup(app);
        JUMANJI_INVARIANT(have != nullptr && *have == count,
                          "per-app occupancy accounting drifted");
    }
    for (const auto &[vc, count] : byVc) {
        const std::uint64_t *have = vcOccupancy_.lookup(vc);
        JUMANJI_INVARIANT(have != nullptr && *have == count,
                          "per-VC occupancy accounting drifted");
    }
    std::uint64_t appSum = 0, vcSum = 0;
    for (const auto &[app, count] : appOccupancy_) appSum += count;
    for (const auto &[vc, count] : vcOccupancy_) vcSum += count;
    JUMANJI_INVARIANT(appSum == validCount_ && vcSum == validCount_,
                      "occupancy sums disagree with validCount_");
    std::size_t vmAppPairs = 0;
    for (const auto &[vm, apps] : vmApps_) {
        (void)vm;
        vmAppPairs += apps.size();
    }
    JUMANJI_INVARIANT(vmAppPairs == vmAppTotal_,
                      "vulnerability tally disagrees with vmApps_");
#endif
}

ArrayAccessResult
CacheArray::access(LineAddr line, const AccessOwner &owner)
{
    ArrayAccessResult result;
    std::uint32_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const LineAddr *tagRow = tags_.data() + base;

    // Lookup: CAT semantics, hits may land in any way.
    if (std::uint32_t w = findWay(set, line); w < ways_) {
        repl_->onHit(set, w);
        result.hit = true;
        return result;
    }

    // Miss: fill within the owner's way mask (resolved once).
    const WayMask &mask = *maskFor(owner.vc);
    if (mask.empty()) {
        // No fill rights: treat as an uncached access (still a miss).
        return result;
    }
    // Resolved before any line changes: a new owner may grow the
    // table, and one past its limit panics with the array intact.
    const std::uint16_t ownerId = ownerIdFor(owner);

    // Prefer the lowest invalid allowed way (one bit-scan).
    std::uint32_t victim;
    std::uint64_t invalidAllowed = mask.bits() & ~validBits_[set] &
                                   fullMask_.bits();
    if (invalidAllowed != 0)
        victim = static_cast<std::uint32_t>(
            std::countr_zero(invalidAllowed));
    else
        victim = repl_->victimWay(set, mask);
    JUMANJI_ASSERT(victim < ways_, "victim way out of range");
    JUMANJI_ASSERT(mask.contains(victim),
                   "replacement chose a victim outside the way mask");

    if (validBits_[set] & (1ull << victim)) {
        result.evicted = true;
        result.evictedOwner = ownerOf(base + victim);
        result.evictedLine = tagRow[victim];
        accountDrop(result.evictedOwner);
    }
    tags_[base + victim] = line;
    validBits_[set] |= 1ull << victim;
    lineOwners_[base + victim] = ownerId;
    accountFill(owner);
    repl_->onFill(set, victim);
    return result;
}

bool
CacheArray::insert(LineAddr line, const AccessOwner &owner)
{
    std::uint32_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    if (findWay(set, line) < ways_) return true;
    const WayMask &mask = *maskFor(owner.vc);
    if (mask.empty()) return false;
    const std::uint16_t ownerId = ownerIdFor(owner);

    std::uint32_t victim;
    std::uint64_t invalidAllowed = mask.bits() & ~validBits_[set] &
                                   fullMask_.bits();
    if (invalidAllowed != 0)
        victim = static_cast<std::uint32_t>(
            std::countr_zero(invalidAllowed));
    else
        victim = repl_->victimWay(set, mask);
    JUMANJI_ASSERT(victim < ways_ && mask.contains(victim),
                   "migration fill outside the way mask");

    if (validBits_[set] & (1ull << victim))
        accountDrop(ownerOf(base + victim));
    tags_[base + victim] = line;
    validBits_[set] |= 1ull << victim;
    lineOwners_[base + victim] = ownerId;
    accountFill(owner);
    repl_->onFill(set, victim);
    return true;
}

bool
CacheArray::contains(LineAddr line) const
{
    return findWay(setIndex(line), line) < ways_;
}

void
CacheArray::setWayMask(VcId vc, const WayMask &mask)
{
    masks_[vc] = mask;
}

WayMask
CacheArray::wayMaskFor(VcId vc) const
{
    return *maskFor(vc);
}

void
CacheArray::clearWayMasks()
{
    masks_.clear();
}

std::uint64_t
CacheArray::invalidateVc(VcId vc)
{
    return invalidateIf([vc](LineAddr, const AccessOwner &o) {
        return o.vc == vc;
    });
}

std::uint64_t
CacheArray::invalidateAll()
{
    return invalidateIf([](LineAddr, const AccessOwner &) { return true; });
}

std::uint64_t
CacheArray::occupancyOfApp(AppId app) const
{
    const std::uint64_t *p = appOccupancy_.lookup(app);
    return p == nullptr ? 0 : *p;
}

std::uint64_t
CacheArray::occupancyOfVc(VcId vc) const
{
    const std::uint64_t *p = vcOccupancy_.lookup(vc);
    return p == nullptr ? 0 : *p;
}

std::uint32_t
CacheArray::appsFromOtherVms(VmId exceptVm) const
{
    // vmAppTotal_ tracks the distinct (vm, app) pairs with >0 lines,
    // so the per-access vulnerability probe is a subtraction instead
    // of a walk over every VM's app set.
    std::size_t own = 0;
    if (const auto *apps = vmApps_.lookup(exceptVm)) own = apps->size();
    return static_cast<std::uint32_t>(vmAppTotal_ - own);
}

} // namespace jumanji
