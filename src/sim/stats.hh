/**
 * @file
 * Lightweight statistics: a sample reservoir with percentile
 * queries and the per-component access counters. The registry that
 * reports them is StatRegistry (statreg.hh).
 */

#ifndef JUMANJI_SIM_STATS_HH
#define JUMANJI_SIM_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/logging.hh"

namespace jumanji {

/**
 * A reservoir of samples supporting percentile queries.
 *
 * Stores all samples (experiments are sized so this is cheap) and
 * keeps them as a sorted prefix followed by the samples added since
 * the last percentile query, in arrival order. A percentile query
 * sorts only that suffix and merges it into the prefix, so a query
 * costs O(k log k + n) for k new samples and O(1) when none arrived.
 * min() and max() read the prefix's ends and scan only the suffix;
 * mean() sums every sample in storage order. Used for request
 * latencies, access times, etc.
 *
 * The sorted order of a set of non-NaN doubles without -0.0 is
 * unique, so raw() holds the same bytes as a reservoir that re-sorts
 * all samples on the first percentile query after an add(): either
 * way that query leaves all of raw() sorted, and add() appends.
 */
class SampleStat
{
  public:
    void add(double v) { samples_.push_back(v); }

    void
    clear()
    {
        samples_.clear();
        sortedPrefix_ = 0;
    }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Arithmetic mean; 0 if empty. Sums in storage order on every
     * call: a running sum would add in arrival order, and a
     * percentile query between adds reorders storage, so its bits
     * would differ.
     */
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
        double m = samples_[sortedPrefix_ > 0 ? sortedPrefix_ - 1 : 0];
        for (std::size_t i = sortedPrefix_; i < samples_.size(); i++)
            m = std::max(m, samples_[i]);
        return m;
    }

    double
    min() const
    {
        if (samples_.empty()) return 0.0;
        double m = samples_.front();
        for (std::size_t i = sortedPrefix_; i < samples_.size(); i++)
            m = std::min(m, samples_[i]);
        return m;
    }

    /**
     * The p-th percentile (0 <= p <= 100) by linear interpolation
     * between the two nearest ranks of the sorted samples (the
     * inclusive definition: Hyndman-Fan type 7, numpy's default
     * "linear"): the fractional rank p/100 * (n-1) blends
     * samples[floor] and samples[ceil] by its fractional part. p=0
     * and p=100 are exactly min and max. Returns 0 if empty; panics
     * when p is NaN or outside [0, 100].
     */
    double
    percentile(double p) const
    {
        if (!(p >= 0.0 && p <= 100.0)) [[unlikely]]
            panic("SampleStat::percentile: p = " + std::to_string(p) +
                  " is outside [0, 100]");
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
    /** Sorts the new suffix and merges it into the sorted prefix. */
    void
    sort() const
    {
        if (sortedPrefix_ == samples_.size()) return;
        auto suffix = samples_.begin() +
                      static_cast<std::ptrdiff_t>(sortedPrefix_);
        std::sort(suffix, samples_.end());
        std::inplace_merge(samples_.begin(), suffix, samples_.end());
        sortedPrefix_ = samples_.size();
    }

    mutable std::vector<double> samples_;
    /** samples_[0, sortedPrefix_) is sorted; the rest is arrival order. */
    mutable std::size_t sortedPrefix_ = 0;
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
