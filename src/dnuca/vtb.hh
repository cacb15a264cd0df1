/**
 * @file
 * Virtual caches and the virtual-cache translation buffer (VTB).
 *
 * A virtual cache (VC) is the OS abstraction for a group of pages
 * managed together (one per application in this paper). Each VC has a
 * placement descriptor — a 128-entry array of bank ids; the target
 * bank of an address is descriptor[hash(line) % 128]. Software
 * controls placement by writing descriptor entries (Fig. 7).
 */

#ifndef JUMANJI_DNUCA_VTB_HH
#define JUMANJI_DNUCA_VTB_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;

namespace vtb_detail {

/** Hash spreading lines across descriptor slots. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ull;
    x ^= x >> 27;
    x *= 0x81dadef4bc2dd44dull;
    x ^= x >> 33;
    return x;
}

} // namespace vtb_detail

/**
 * A placement descriptor: 128 slots, each naming the LLC bank that
 * holds the corresponding hash-slice of the VC's address space.
 */
class PlacementDescriptor
{
  public:
    static constexpr std::uint32_t kSlots = 128;

    PlacementDescriptor() { slots_.fill(kInvalidBank); }

    BankId slot(std::uint32_t i) const { return slots_[i % kSlots]; }
    void setSlot(std::uint32_t i, BankId bank) { slots_[i % kSlots] = bank; }

    /** Target bank for @p line. Inline: probed on every access. */
    BankId bankFor(LineAddr line) const { return slots_[slotFor(line)]; }

    /** Hash slot used for @p line (exposed for tests/attacks). */
    static std::uint32_t slotFor(LineAddr line)
    {
        return static_cast<std::uint32_t>(vtb_detail::mix(line) %
                                          kSlots);
    }

    /**
     * Fills slots proportionally to per-bank capacity shares:
     * shares[b] is bank b's fraction of the VC's capacity (sums to
     * ~1). Banks receive round(share * 128) slots, adjusted so every
     * positive-share bank gets >= 1 slot and all 128 slots are used.
     * Slot->bank assignment is deterministic (interleaved) so that
     * small share changes move few slots.
     */
    void fillProportional(const std::vector<std::pair<BankId, double>>
                              &shares);

    /** Fills all slots by striping across @p banks (S-NUCA). */
    void fillStriped(const std::vector<BankId> &banks);

    /** Number of slots pointing at @p bank. */
    std::uint32_t slotsOn(BankId bank) const;

    /**
     * Returns a descriptor with the same per-bank slot counts as
     * *this, but with slots assigned to maximize agreement with
     * @p prev. Installing the stabilized descriptor moves the
     * minimum number of hash slices, minimizing coherence-walk
     * invalidations when allocations change only slightly.
     */
    PlacementDescriptor stabilizedAgainst(
        const PlacementDescriptor &prev) const;

    /** All banks with >= 1 slot. */
    std::vector<BankId> ownedBanks() const;

    bool operator==(const PlacementDescriptor &o) const
    {
        return slots_ == o.slots_;
    }

  private:
    std::array<BankId, kSlots> slots_;
};

/**
 * The VTB: maps VC ids to placement descriptors. One logical VTB is
 * shared by all cores in the model (contents would be replicated
 * per-core in hardware; they are identical, so one table suffices).
 */
class Vtb
{
  public:
    /** Installs (or replaces) the descriptor for @p vc. */
    void install(VcId vc, const PlacementDescriptor &desc);

    /** True if @p vc has a descriptor installed. */
    bool has(VcId vc) const { return table_.count(vc) > 0; }

    /** The descriptor for @p vc. @pre has(vc). */
    const PlacementDescriptor &descriptor(VcId vc) const;

    /**
     * Hot-path variant: the descriptor for @p vc, or nullptr. Lets
     * the access loop resolve the descriptor once and reuse the
     * pointer instead of re-querying the table per level.
     */
    const PlacementDescriptor *
    descriptorPtr(VcId vc) const
    {
        return table_.lookup(vc);
    }

    /**
     * Target bank for (@p vc, @p line). @pre has(vc). Inline: called
     * at issue for every access. The miss (unknown-VC) arm funnels
     * through descriptor(), which panics.
     */
    BankId lookup(VcId vc, LineAddr line) const
    {
        const PlacementDescriptor *d = table_.lookup(vc);
        return (d != nullptr ? *d : descriptor(vc)).bankFor(line);
    }

    /** Removes all descriptors. */
    void
    clear()
    {
        table_.clear();
        generation_++;
    }

    /**
     * Bumped by every install() and clear(). A lookup made under the
     * current generation still names the bank a new lookup would.
     */
    std::uint64_t generation() const { return generation_; }

    std::size_t size() const { return table_.size(); }

    /** Descriptor installs since construction (includes replacements). */
    std::uint64_t installs() const { return installs_; }

    /** Registers VTB stats under @p prefix ("dnuca.vtb."). */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    // Dense and ascending-id ordered: the table is probed on every
    // access, and any walk over installed descriptors (stats,
    // debugging dumps) still visits VCs in a deterministic order.
    SmallIdMap<VcId, PlacementDescriptor> table_;
    std::uint64_t installs_ = 0;
    std::uint64_t generation_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_DNUCA_VTB_HH
