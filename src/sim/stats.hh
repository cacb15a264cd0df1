/**
 * @file
 * Lightweight statistics: a sample reservoir with percentile
 * queries and the per-component access counters. The registry that
 * reports them is StatRegistry (statreg.hh).
 */

#ifndef JUMANJI_SIM_STATS_HH
#define JUMANJI_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace jumanji {

/**
 * A reservoir of samples supporting percentile queries.
 *
 * Stores all samples (experiments are sized so this is cheap) and
 * sorts lazily on query. Used for request latencies, access times, etc.
 */
class SampleStat
{
  public:
    void
    add(double v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    void
    clear()
    {
        samples_.clear();
        sorted_ = true;
    }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; 0 if empty. */
    double
    mean() const
    {
        if (samples_.empty()) return 0.0;
        double sum = 0.0;
        for (double s : samples_) sum += s;
        return sum / static_cast<double>(samples_.size());
    }

    double
    max() const
    {
        if (samples_.empty()) return 0.0;
        return *std::max_element(samples_.begin(), samples_.end());
    }

    double
    min() const
    {
        if (samples_.empty()) return 0.0;
        return *std::min_element(samples_.begin(), samples_.end());
    }

    /**
     * The p-th percentile (0 <= p <= 100) by linear interpolation
     * between the two nearest ranks of the sorted samples (the
     * "exclusive" definition used by numpy's default): the fractional
     * rank p/100 * (n-1) blends samples[floor] and samples[ceil] by
     * its fractional part. p=0 and p=100 are exactly min and max.
     * Returns 0 if empty.
     */
    double
    percentile(double p) const
    {
        if (samples_.empty()) return 0.0;
        sort();
        double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
        auto lo = static_cast<std::size_t>(rank);
        std::size_t hi = std::min(lo + 1, samples_.size() - 1);
        double frac = rank - static_cast<double>(lo);
        return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
    }

    const std::vector<double> &raw() const { return samples_; }

  private:
    void
    sort() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Per-component counters for data-movement accounting.
 *
 * Every memory access bumps some subset of these; the energy model
 * (src/metrics) converts them to picojoules.
 */
struct AccessCounters
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t nocHops = 0;
    std::uint64_t memAccesses = 0;

    AccessCounters &
    operator+=(const AccessCounters &o)
    {
        l1Hits += o.l1Hits;
        l1Misses += o.l1Misses;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        llcHits += o.llcHits;
        llcMisses += o.llcMisses;
        nocHops += o.nocHops;
        memAccesses += o.memAccesses;
        return *this;
    }
};

} // namespace jumanji

#endif // JUMANJI_SIM_STATS_HH
