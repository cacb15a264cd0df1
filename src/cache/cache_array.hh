/**
 * @file
 * A set-associative cache array with CAT-style way-partitioning.
 *
 * Lines are tagged with the application, virtual cache (VC), and
 * trust domain (VM) that own them, so higher layers can account for
 * per-VC occupancy, run the coherence walk on reconfiguration, and
 * compute the security vulnerability metric.
 */

#ifndef JUMANJI_CACHE_CACHE_ARRAY_HH
#define JUMANJI_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/replacement.hh"
#include "src/cache/way_mask.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace jumanji {

/** Identity of a cached line's owner, carried on every access. */
struct AccessOwner
{
    AppId app = kInvalidApp;
    VcId vc = kInvalidVc;
    VmId vm = kInvalidVm;
    /** LC traffic gets reserved memory bandwidth (Heracles-style). */
    bool latencyCritical = false;
};

/** Result of one array access. */
struct ArrayAccessResult
{
    bool hit = false;
    /** Valid line was evicted to make room (never true on a hit). */
    bool evicted = false;
    /** Owner of the evicted line, if any. */
    AccessOwner evictedOwner;
    LineAddr evictedLine = 0;
};

/**
 * The tag/data array of one cache (an LLC bank, or a private cache).
 *
 * Partitioning follows Intel CAT semantics: an access may *hit* in
 * any way, but fills choose victims only within the accessor's way
 * mask. When a VC has no mask installed, the fallback mask (all ways)
 * applies.
 */
class CacheArray
{
  public:
    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity (<= 64).
     * @param repl Replacement policy kind.
     * @param seed Seed for stochastic replacement state.
     */
    CacheArray(std::uint32_t sets, std::uint32_t ways, ReplKind repl,
               std::uint64_t seed);

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t numLines() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_;
    }

    /**
     * Performs an access: on miss, fills the line, evicting within
     * the owner VC's way mask.
     */
    ArrayAccessResult access(LineAddr line, const AccessOwner &owner);

    /**
     * Inserts @p line without hit/miss semantics (no-op if already
     * present): used by the reconfiguration walk to migrate lines
     * between banks. Fills within the owner's way mask; silently
     * drops the line if the mask is empty.
     *
     * @return true if the line is resident afterwards.
     */
    bool insert(LineAddr line, const AccessOwner &owner);

    /** Looks up @p line without side effects. */
    bool contains(LineAddr line) const;

    /** Installs the way mask for @p vc; empty() removes fill rights. */
    void setWayMask(VcId vc, const WayMask &mask);

    /** Returns the installed mask for @p vc, or the full mask. */
    WayMask wayMaskFor(VcId vc) const;

    /**
     * Hot-path variant: a pointer to the installed mask for @p vc, or
     * to the array-wide full mask. Resolved once per access so the
     * fill path pays one dense lookup, not one per candidate way.
     * Invalidated by setWayMask/clearWayMasks.
     */
    const WayMask *maskFor(VcId vc) const
    {
        const WayMask *m = masks_.lookup(vc);
        return m != nullptr ? m : &fullMask_;
    }

    /** Removes all per-VC masks (back to fully shared). */
    void clearWayMasks();

    /**
     * Invalidates every line for which @p pred returns true; used by
     * the reconfiguration coherence walk. Templated on the predicate
     * so the walk — which visits every valid line in the array —
     * calls it directly instead of through a std::function.
     *
     * @return Number of lines invalidated.
     */
    template <typename Pred>
    std::uint64_t invalidateIf(Pred &&pred)
    {
        std::uint64_t dropped = 0;
        for (std::uint32_t s = 0; s < sets_; s++) {
            const std::size_t base =
                static_cast<std::size_t>(s) * ways_;
            for (std::uint64_t bits = validBits_[s]; bits != 0;
                 bits &= bits - 1) {
                auto w = static_cast<std::uint32_t>(
                    std::countr_zero(bits));
                const AccessOwner &o = owners_[base + w];
                if (pred(tags_[base + w], o)) {
                    accountDrop(o);
                    validBits_[s] &= ~(1ull << w);
                    repl_->onInvalidate(s, w);
                    dropped++;
                }
            }
        }
        checkOccupancyInvariant();
        return dropped;
    }

    /** Invalidates all lines owned by @p vc. @return lines dropped. */
    std::uint64_t invalidateVc(VcId vc);

    /** Invalidates the whole array (VM swap-in flush). */
    std::uint64_t invalidateAll();

    /** Lines currently valid for @p app (occupancy accounting). */
    std::uint64_t occupancyOfApp(AppId app) const;

    /** Lines currently valid for @p vc. */
    std::uint64_t occupancyOfVc(VcId vc) const;

    /** Distinct apps, excluding @p exceptVm's, with >=1 valid line. */
    std::uint32_t appsFromOtherVms(VmId exceptVm) const;

    /** Total valid lines. */
    std::uint64_t validLines() const { return validCount_; }

    /** Test hook: the replacement policy instance. */
    ReplPolicy &replacement() { return *repl_; }

  private:
    std::uint32_t setIndex(LineAddr line) const;

    /** The valid way of @p set holding @p line, or numWays(). */
    std::uint32_t findWay(std::uint32_t set, LineAddr line) const;

    void accountFill(const AccessOwner &owner);
    void accountDrop(const AccessOwner &owner);

    /**
     * Recomputes occupancy from the line array and checks it against
     * the incremental accounting (sum over apps == sum over VCs ==
     * validCount_ == valid lines). Debug builds call this after bulk
     * mutations; it is O(lines), so not per-access.
     */
    void checkOccupancyInvariant() const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    // Structure-of-arrays line storage. The hit scan is the hottest
    // loop in the simulator, so tags live in their own compact array
    // (8 B/way instead of a ~32 B Line struct) and validity is one
    // bitmask word per set, which also turns the invalid-victim
    // search into a single bit-scan. Owners are only touched on
    // fill/evict, never on the hit path.
    std::vector<LineAddr> tags_;
    std::vector<std::uint64_t> validBits_;
    std::vector<AccessOwner> owners_;
    std::unique_ptr<ReplPolicy> repl_;
    // Dense id-indexed maps throughout: these sit on the per-access
    // path (mask resolution, occupancy accounting, the vulnerability
    // metric), and they iterate in ascending-id order, so stats and
    // placement output is as deterministic as the std::map originals.
    SmallIdMap<VcId, WayMask> masks_;
    /** Fallback fill rights when no mask is installed (all ways). */
    WayMask fullMask_;

    std::uint64_t validCount_ = 0;
    SmallIdMap<AppId, std::uint64_t> appOccupancy_;
    SmallIdMap<VcId, std::uint64_t> vcOccupancy_;
    /** Per-VM set of apps with >0 lines: vm -> (app -> count). */
    SmallIdMap<VmId, SmallIdMap<AppId, std::uint64_t>> vmApps_;
    /** Distinct (vm, app) pairs with >0 lines, summed over all VMs. */
    std::size_t vmAppTotal_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_CACHE_CACHE_ARRAY_HH
