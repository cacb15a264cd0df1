#include "src/workloads/address_stream.hh"

#include <cmath>

#include "src/sim/logging.hh"

namespace jumanji {

AddressStream::AddressStream(LineAddr base, std::vector<WorkingSet> sets)
    : base_(base),
      sets_(std::move(sets))
{
    if (sets_.empty()) fatal("AddressStream: need at least one working set");

    LineAddr offset = 0;
    for (const auto &ws : sets_) {
        offsets_.push_back(offset);
        if (!ws.streaming) {
            offset += ws.lines;
            footprint_ += ws.lines;
        }
        totalWeight_ += ws.weight;
        cumWeight_.push_back(totalWeight_);
    }
    if (totalWeight_ <= 0.0)
        fatal("AddressStream: total working-set weight must be positive");
    // Streaming region lives above all reusable sets.
    streamCursor_ = offset;
}

LineAddr
AddressStream::draw(Rng &rng)
{
    double pick = rng.uniform() * totalWeight_;
    std::size_t idx = 0;
    while (idx + 1 < cumWeight_.size() && pick >= cumWeight_[idx]) idx++;

    const WorkingSet &ws = sets_[idx];
    if (ws.streaming) {
        // Monotonically advancing, never-reused addresses.
        return base_ + streamCursor_++;
    }
    if (ws.lines == 0)
        return base_ + offsets_[idx];
    if (ws.skew <= 0.0)
        return base_ + offsets_[idx] + rng.below(ws.lines);
    // Hot-front draw: position = N * u^(1+skew).
    double u = rng.uniform();
    std::uint64_t pos =
        ws.skew == 1.0
            ? floorScaledSquare(u, ws.lines)
            : static_cast<std::uint64_t>(static_cast<double>(ws.lines) *
                                         std::pow(u, 1.0 + ws.skew));
    if (pos >= ws.lines) pos = ws.lines - 1;
    return base_ + offsets_[idx] + pos;
}

} // namespace jumanji
