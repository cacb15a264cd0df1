#include "src/dnuca/vtb.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/sim/flat_map.hh"

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

void
PlacementDescriptor::fillProportional(
    const std::vector<std::pair<BankId, double>> &shares)
{
    if (shares.empty())
        panic("PlacementDescriptor::fillProportional: no banks");

    // Largest-remainder apportionment of 128 slots.
    double total = 0.0;
    for (const auto &[bank, share] : shares) total += std::max(0.0, share);
    if (total <= 0.0)
        panic("PlacementDescriptor::fillProportional: zero total share");

    struct Alloc
    {
        BankId bank;
        std::uint32_t slots;
        double remainder;
    };
    std::vector<Alloc> allocs;
    std::uint32_t used = 0;
    for (const auto &[bank, share] : shares) {
        double ideal = std::max(0.0, share) / total * kSlots;
        auto whole = static_cast<std::uint32_t>(ideal);
        // Every positive-share bank holds at least one slot so its
        // capacity is reachable.
        if (whole == 0 && share > 0.0) whole = 1;
        allocs.push_back(Alloc{bank, whole, ideal - std::floor(ideal)});
        used += whole;
    }
    // Distribute leftovers by largest remainder; trim overshoot from
    // the smallest-remainder banks with more than one slot.
    std::stable_sort(allocs.begin(), allocs.end(),
                     [](const Alloc &a, const Alloc &b) {
                         return a.remainder > b.remainder;
                     });
    std::size_t i = 0;
    while (used < kSlots) {
        allocs[i % allocs.size()].slots++;
        used++;
        i++;
    }
    i = allocs.size();
    while (used > kSlots) {
        Alloc &a = allocs[--i % allocs.size()];
        if (a.slots > 1) {
            a.slots--;
            used--;
        }
        if (i == 0) i = allocs.size();
    }

    JUMANJI_INVARIANT(used == kSlots,
                      "apportionment must hand out exactly 128 slots");

    // Interleave slots across banks (round-robin over remaining
    // quotas) so hash slices spread evenly.
    std::uint32_t slot = 0;
    while (slot < kSlots) {
        bool progressed = false;
        for (auto &a : allocs) {
            if (a.slots > 0 && slot < kSlots) {
                slots_[slot++] = a.bank;
                a.slots--;
                progressed = true;
            }
        }
        if (!progressed)
            panic("PlacementDescriptor::fillProportional: slot underflow");
    }
    JUMANJI_INVARIANT(
        std::none_of(slots_.begin(), slots_.end(),
                     [](BankId b) { return b == kInvalidBank; }),
        "proportional fill left an unassigned slot");
}

void
PlacementDescriptor::fillStriped(const std::vector<BankId> &banks)
{
    if (banks.empty())
        panic("PlacementDescriptor::fillStriped: no banks");
    for (std::uint32_t s = 0; s < kSlots; s++)
        slots_[s] = banks[s % banks.size()];
}

PlacementDescriptor
PlacementDescriptor::stabilizedAgainst(const PlacementDescriptor &prev)
    const
{
    // Per-bank quotas of the new placement. FlatMap: per-epoch
    // scratch, ascending-bank iteration like the std::map it replaces.
    FlatMap<BankId, std::uint32_t> quota;
    for (BankId b : slots_) quota[b]++;

    PlacementDescriptor result;
    std::vector<std::uint32_t> unassigned;

    // Pass 1: keep every slot that can stay where it was.
    for (std::uint32_t s = 0; s < kSlots; s++) {
        BankId old = prev.slots_[s];
        auto it = quota.find(old);
        if (old != kInvalidBank && it != quota.end() && it->second > 0) {
            result.slots_[s] = old;
            it->second--;
        } else {
            unassigned.push_back(s);
        }
    }

    // Pass 2: hand remaining quota to the slots that must move.
    std::size_t u = 0;
    for (auto &[bank, count] : quota) {
        while (count > 0 && u < unassigned.size()) {
            result.slots_[unassigned[u++]] = bank;
            count--;
        }
    }
    if (u != unassigned.size())
        panic("PlacementDescriptor::stabilizedAgainst: quota mismatch");
#if JUMANJI_CHECKS_ACTIVE
    // Stabilization must preserve per-bank slot counts exactly.
    for (const auto &[bank, count] : quota) {
        JUMANJI_INVARIANT(count == 0,
                          "stabilization left unassigned quota");
        JUMANJI_INVARIANT(result.slotsOn(bank) == slotsOn(bank),
                          "stabilization changed a bank's slot count");
    }
#endif
    return result;
}

std::uint32_t
PlacementDescriptor::slotsOn(BankId bank) const
{
    std::uint32_t n = 0;
    for (BankId b : slots_)
        if (b == bank) n++;
    return n;
}

std::vector<BankId>
PlacementDescriptor::ownedBanks() const
{
    std::vector<BankId> banks;
    for (BankId b : slots_) {
        if (b != kInvalidBank &&
            std::find(banks.begin(), banks.end(), b) == banks.end()) {
            banks.push_back(b);
        }
    }
    std::sort(banks.begin(), banks.end());
    return banks;
}

void
Vtb::install(VcId vc, const PlacementDescriptor &desc)
{
    table_[vc] = desc;
    installs_++;
    generation_++;
}

void
Vtb::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + "installs",
                   "descriptor installs (including replacements)",
                   &installs_);
    reg.addGauge(prefix + "entries", "VCs with a descriptor installed",
                 [this] { return static_cast<double>(table_.size()); });
}

const PlacementDescriptor &
Vtb::descriptor(VcId vc) const
{
    const PlacementDescriptor *d = table_.lookup(vc);
    if (d == nullptr) panic("Vtb::descriptor: unknown VC");
    return *d;
}

} // namespace jumanji
