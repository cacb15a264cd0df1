#include "src/dnuca/umon.hh"

#include <algorithm>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

Umon::Umon(const UmonParams &params)
    : params_(params),
      stacks_(params.sets),
      hitCounters_(params.ways, 0)
{
    if (params.sets == 0 || params.ways == 0)
        fatal("Umon: sets and ways must be nonzero");
    // The auxiliary directory holds sets*ways tags modelling
    // modelledLines of capacity, so it samples at that ratio.
    std::uint64_t tags = static_cast<std::uint64_t>(params.sets) *
                         params.ways;
    sampleRate_ = static_cast<double>(params.modelledLines) /
                  static_cast<double>(std::max<std::uint64_t>(1, tags));
    if (sampleRate_ < 1.0) sampleRate_ = 1.0;
    rateInt_ = static_cast<std::uint64_t>(sampleRate_);
    // Stacks grow as sampled lines arrive, and recordSampled caps each
    // at params.ways. Capacity never changes their order or the
    // counts, and a VC's stacks rarely fill, so none is reserved.
}

void
Umon::recordSampled(LineAddr line)
{
    sampledAccesses_++;

    auto set = static_cast<std::uint32_t>(umon_detail::mix(line) %
                                          params_.sets);
    auto &stack = stacks_[set];

    auto it = std::find(stack.begin(), stack.end(), line);
    if (it != stack.end()) {
        auto pos = static_cast<std::size_t>(it - stack.begin());
        JUMANJI_ASSERT(pos < hitCounters_.size(),
                       "recency position beyond UMON ways");
        hitCounters_[pos]++;
        // Move-to-front in one pass (erase + re-insert would shift
        // the suffix twice); the resulting order is identical.
        std::rotate(stack.begin(), it, it + 1);
    } else {
        missCounter_++;
        if (stack.size() >= params_.ways) stack.pop_back();
        stack.insert(stack.begin(), line);
    }
    JUMANJI_INVARIANT(stack.size() <= params_.ways,
                      "UMON LRU stack outgrew its associativity");
    JUMANJI_INVARIANT(sampledAccesses_ <= accesses_,
                      "sampled more accesses than were observed");
}

MissCurve
Umon::missCurve() const
{
    // misses(k buckets) = cold/capacity misses beyond position k:
    // missCounter_ + hits at recency positions >= k.
    std::vector<double> pts(params_.ways + 1);
    double tail = static_cast<double>(missCounter_);
    pts[params_.ways] = tail;
    for (std::int64_t k = params_.ways - 1; k >= 0; k--) {
        tail += static_cast<double>(hitCounters_[k]);
        pts[k] = tail;
    }
    for (double &p : pts) p *= sampleRate_;
    return MissCurve(std::move(pts));
}

std::uint64_t
Umon::linesPerBucket() const
{
    return std::max<std::uint64_t>(1, params_.modelledLines / params_.ways);
}

void
Umon::decay(double factor)
{
    for (auto &h : hitCounters_)
        h = static_cast<std::uint64_t>(static_cast<double>(h) * factor);
    missCounter_ = static_cast<std::uint64_t>(
        static_cast<double>(missCounter_) * factor);
    sampledAccesses_ = static_cast<std::uint64_t>(
        static_cast<double>(sampledAccesses_) * factor);
    accesses_ = static_cast<std::uint64_t>(
        static_cast<double>(accesses_) * factor);
}

void
Umon::registerStats(StatRegistry &reg, const std::string &prefix)
{
    // Counters are decayed/cleared each epoch, so they read as
    // gauges: "activity this epoch", not monotone totals.
    reg.addGauge(prefix + "accesses", "accesses observed this epoch",
                 [this] { return static_cast<double>(accesses_); });
    reg.addGauge(prefix + "sampledAccesses",
                 "accesses past the hash sampler this epoch", [this] {
                     return static_cast<double>(sampledAccesses_);
                 });
    reg.addGauge(prefix + "sampledMisses",
                 "misses in the auxiliary directory this epoch",
                 [this] { return static_cast<double>(missCounter_); });
}

void
Umon::clear()
{
    std::fill(hitCounters_.begin(), hitCounters_.end(), 0);
    missCounter_ = 0;
    sampledAccesses_ = 0;
    accesses_ = 0;
    // Keep stack contents: the working set survives across epochs.
}

} // namespace jumanji
