/**
 * @file
 * Unit tests for the DES kernel, RNG, and statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/workloads/spec_like.hh"

namespace jumanji {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; i++) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, ExponentialMeanApprox)
{
    // The mean of floor(Exp(100)) is 1/(e^0.01 - 1), about 99.50.
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(floorExponential(rng.uniform(), 100.0));
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(5);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (parent.next() == child.next()) same++;
    EXPECT_LT(same, 3);
}

/*
 * Certified integer draws against the libm expressions they replace.
 * Each check runs the expression itself, so a cheap value that is
 * trusted inside too small a margin, a fallback that returns the cheap
 * value, or a pow whose exponent the compiler can fold shows up as a
 * mismatch or as a fallback count out of range.
 */

/** Read at run time, so no compiler can fold pow(u, 1.0 + skew). */
volatile double gSkew = 1.0;

std::uint64_t
libmExponential(double u, double mean)
{
    return static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

std::uint64_t
libmScaledSquare(double u, std::uint64_t n)
{
    return static_cast<std::uint64_t>(static_cast<double>(n) *
                                      std::pow(u, 1.0 + gSkew));
}

/** Every Rng::uniform() value is a multiple of this. */
constexpr double kGrid = 0x1p-53;

/** The u on the uniform grid nearest to @p x, moved by @p steps. */
double
gridNeighbour(double x, int steps)
{
    return (std::nearbyint(x / kGrid) + steps) * kGrid;
}

/** Mismatches and fallbacks of one family of inputs. */
struct DrawTally
{
    std::uint64_t inputs = 0, mismatches = 0, fallbacks = 0;
    /** Inputs within the near band of an integer, and their fallbacks. */
    std::uint64_t near = 0, nearFallbacks = 0;
};

/** 1, every per-access gap (1000/apki) in the catalogs, and arrivals. */
const double kMeans[] = {1.0,    1000.0 / 42, 1000.0 / 28, 1000.0 / 12,
                         1000.0 / 3, 1e3, 1e4,  1e5,        1e6};

/** Per-access means are at most 1000/3 instructions. */
bool
perAccessMean(double mean)
{
    return mean <= 1000.0 / 3;
}

class CertifiedExponential : public ::testing::TestWithParam<double>
{
};

TEST_P(CertifiedExponential, MatchesLibmOnSeededDraws)
{
    const double mean = GetParam();
    Rng rng(0x5eed0000 + static_cast<std::uint64_t>(mean));
    DrawTally t;
    for (t.inputs = 0; t.inputs < 10'000'000; t.inputs++) {
        const double u = rng.uniform();
        if (floorExponential(u, mean) != libmExponential(u, mean))
            t.mismatches++;
        if (!detail::certifiedExponential(u, mean)) t.fallbacks++;
    }
    EXPECT_EQ(t.mismatches, 0u);
    if (perAccessMean(mean)) {
        EXPECT_LE(t.fallbacks, t.inputs / 10'000) << "mean " << mean;
    }
}

TEST_P(CertifiedExponential, MatchesLibmAtEveryBoundary)
{
    // The integer boundaries of -mean ln(1 - u) sit at
    // u = -expm1(-k/mean). Each one's nine nearest grid points are
    // checked; those whose libm value lies within 2^-30 * mean of a
    // boundary k >= 1, far inside the margin, must all reach libm.
    // (No value lies below 0, so k = 0 needs no fallback.)
    const double mean = GetParam();
    const auto last = static_cast<std::uint64_t>(40 * mean);
    const std::uint64_t stride = std::max<std::uint64_t>(1, last / 20'000);
    DrawTally t;
    for (std::uint64_t k = 0; k <= last; k += stride) {
        const double boundary = -std::expm1(-static_cast<double>(k) / mean);
        for (int steps = -4; steps <= 4; steps++) {
            const double u = gridNeighbour(boundary, steps);
            if (u < 0.0 || u > 1.0 - kGrid) continue;
            const std::uint64_t want = libmExponential(u, mean);
            const bool fellBack = !detail::certifiedExponential(u, mean);
            t.inputs++;
            if (floorExponential(u, mean) != want) t.mismatches++;
            const double value = -mean * std::log1p(-u);
            if (k > 0 && std::abs(value - static_cast<double>(k)) <
                             mean * 0x1p-30) {
                t.near++;
                if (fellBack) t.nearFallbacks++;
            }
        }
    }
    for (double u : {0.0, kGrid, 1.0 - kGrid}) {
        t.inputs++;
        if (floorExponential(u, mean) != libmExponential(u, mean))
            t.mismatches++;
    }
    EXPECT_EQ(t.mismatches, 0u) << "of " << t.inputs;
    EXPECT_GT(t.near, t.inputs / 4);
    EXPECT_EQ(t.nearFallbacks, t.near);
}

INSTANTIATE_TEST_SUITE_P(Means, CertifiedExponential,
                         ::testing::ValuesIn(kMeans));

/** Sizes: edge cases, 2^33, and every SPEC-like working-set size. */
std::vector<std::uint64_t>
squareSizes()
{
    std::vector<std::uint64_t> sizes = {1, 2, 3, 64, 1ull << 33};
    const std::size_t edgeCases = sizes.size();
    for (const SpecAppParams &app : specAppCatalog())
        for (const WorkingSet &ws : app.workingSets)
            if (!ws.streaming &&
                std::find(sizes.begin(), sizes.end(), ws.lines) ==
                    sizes.end())
                sizes.push_back(ws.lines);
    EXPECT_GT(sizes.size(), edgeCases);
    return sizes;
}

class CertifiedScaledSquare
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CertifiedScaledSquare, MatchesLibmOnSeededDraws)
{
    const std::uint64_t n = GetParam();
    Rng rng(0x5eed5000 + n);
    DrawTally t;
    for (t.inputs = 0; t.inputs < 10'000'000; t.inputs++) {
        const double u = rng.uniform();
        if (floorScaledSquare(u, n) != libmScaledSquare(u, n))
            t.mismatches++;
        if (!detail::certifiedScaledSquare(u, n)) t.fallbacks++;
    }
    EXPECT_EQ(t.mismatches, 0u);
    // Every working set the catalog draws from is below 2^20 lines.
    if (n < (1ull << 20)) {
        EXPECT_LE(t.fallbacks, t.inputs / 10'000);
    }
}

TEST_P(CertifiedScaledSquare, MatchesLibmAtEveryBoundary)
{
    // Boundaries of n u^2 sit at u = sqrt(k/n); grid points whose libm
    // value lies within 2^-44 * k of one must all reach libm.
    const std::uint64_t n = GetParam();
    const std::uint64_t stride = std::max<std::uint64_t>(1, n / 20'000);
    DrawTally t;
    for (std::uint64_t k = 0; k <= n; k += stride) {
        const double boundary = std::sqrt(static_cast<double>(k) /
                                          static_cast<double>(n));
        for (int steps = -4; steps <= 4; steps++) {
            const double u = gridNeighbour(boundary, steps);
            if (u < 0.0 || u > 1.0) continue;
            const std::uint64_t want = libmScaledSquare(u, n);
            const bool fellBack = !detail::certifiedScaledSquare(u, n);
            t.inputs++;
            if (floorScaledSquare(u, n) != want) t.mismatches++;
            const double value =
                static_cast<double>(n) * std::pow(u, 1.0 + gSkew);
            const double kd = static_cast<double>(k);
            if (std::abs(value - kd) < kd * 0x1p-44) {
                t.near++;
                if (fellBack) t.nearFallbacks++;
            }
        }
    }
    EXPECT_EQ(t.mismatches, 0u) << "of " << t.inputs;
    EXPECT_GT(t.near, t.inputs / 4);
    EXPECT_EQ(t.nearFallbacks, t.near);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CertifiedScaledSquare,
                         ::testing::ValuesIn(squareSizes()));

TEST(CertifiedScaledSquare, PowDiffersFromTheFoldedSquare)
{
    // glibc's pow(u, 2.0) and the u * u a compiler folds a literal
    // exponent into round this input to opposite sides of 537.
    const double u = 0x1.7731ef02e17bbp-1;
    EXPECT_EQ(static_cast<std::uint64_t>(1000.0 * (u * u)), 537u);
    EXPECT_EQ(libmScaledSquare(u, 1000), 536u);
    EXPECT_EQ(floorScaledSquare(u, 1000), 536u);
}

class CountingAgent : public Agent
{
  public:
    explicit CountingAgent(Tick period, int maxRuns = -1)
        : period_(period), maxRuns_(maxRuns)
    {
    }

    Tick
    resume(Tick now) override
    {
        runs++;
        lastTick = now;
        if (maxRuns_ >= 0 && runs >= maxRuns_) return kTickMax;
        return now + period_;
    }

    int runs = 0;
    Tick lastTick = 0;

  private:
    Tick period_;
    int maxRuns_;
};

TEST(EventQueue, RunsAgentsInOrder)
{
    EventQueue queue;
    CountingAgent fast(10);
    CountingAgent slow(100);
    queue.schedule(&fast, 0);
    queue.schedule(&slow, 0);
    queue.runUntil(1000);
    EXPECT_EQ(fast.runs, 100);
    EXPECT_EQ(slow.runs, 10);
}

TEST(EventQueue, StopsAtBoundary)
{
    EventQueue queue;
    CountingAgent agent(10);
    queue.schedule(&agent, 0);
    queue.runUntil(55);
    // Runs at 0,10,20,30,40,50 — not at 60.
    EXPECT_EQ(agent.runs, 6);
    EXPECT_EQ(queue.now(), 55u);
}

TEST(EventQueue, RetiredAgentStops)
{
    EventQueue queue;
    CountingAgent agent(10, 3);
    queue.schedule(&agent, 5);
    queue.runUntil(10000);
    EXPECT_EQ(agent.runs, 3);
}

TEST(EventQueue, ZeroDelaySelfLoopAdvances)
{
    // An agent returning its own wake time must still make progress.
    class Stubborn : public Agent
    {
      public:
        Tick
        resume(Tick now) override
        {
            runs++;
            return runs < 10 ? now : kTickMax;
        }
        int runs = 0;
    };
    EventQueue queue;
    Stubborn agent;
    queue.schedule(&agent, 0);
    queue.runUntil(1000);
    EXPECT_EQ(agent.runs, 10);
}

TEST(EventQueue, DeterministicTieBreak)
{
    // Two agents scheduled at the same tick run in schedule order.
    class Recorder : public Agent
    {
      public:
        Recorder(std::vector<int> *log, int id) : log_(log), id_(id) {}
        Tick
        resume(Tick) override
        {
            log_->push_back(id_);
            return kTickMax;
        }

      private:
        std::vector<int> *log_;
        int id_;
    };

    std::vector<int> log;
    Recorder a(&log, 1), b(&log, 2), c(&log, 3);
    EventQueue queue;
    queue.schedule(&a, 50);
    queue.schedule(&b, 50);
    queue.schedule(&c, 50);
    queue.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

/** The kernel with one std::priority_queue pop and push per event. */
class ReferenceQueue
{
  public:
    void
    schedule(Agent *agent, Tick when)
    {
        heap_.push(Entry{when, seq_++, agent});
    }

    Tick
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.top().when < until) {
            Entry e = heap_.top();
            heap_.pop();
            now_ = e.when;
            Tick next = e.agent->resume(now_);
            if (next != kTickMax) {
                if (next <= now_) next = now_ + 1;
                heap_.push(Entry{next, seq_++, e.agent});
            }
        }
        if (now_ < until) now_ = until;
        return now_;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Agent *agent;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when) return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
};

using ResumeLog = std::vector<std::pair<int, Tick>>;

/**
 * Logs (id, tick) on every resume and draws its next wake-up from a
 * private stream: mostly its short period (so ticks tie often),
 * sometimes now or the past (clamped to now + 1), and kTickMax once
 * its life runs out.
 */
class ScriptedAgent : public Agent
{
  public:
    ScriptedAgent(int id, ResumeLog *log, std::uint64_t seed)
        : id_(id), log_(log), rng_(seed)
    {
        period_ = 1 + rng_.below(6);
        life_ = 20 + rng_.below(400);
    }

    Tick
    resume(Tick now) override
    {
        log_->emplace_back(id_, now);
        if (--life_ == 0) return kTickMax;
        switch (rng_.below(8)) {
        case 0:
            return now;
        case 1:
            return now - std::min<Tick>(now, rng_.below(3));
        case 2:
            return now + period_ * (1 + rng_.below(4));
        default:
            return now + period_;
        }
    }

  private:
    int id_;
    ResumeLog *log_;
    Rng rng_;
    Tick period_;
    std::uint64_t life_;
};

TEST(EventQueue, MatchesAPopAndPushReference)
{
    constexpr int kAgents = 48;
    ResumeLog got, want;
    std::vector<std::unique_ptr<ScriptedAgent>> agents;
    EventQueue queue;
    ReferenceQueue reference;
    Rng rng(2024);
    auto add = [&](int id, Tick when) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(id);
        agents.push_back(std::make_unique<ScriptedAgent>(id, &got, seed));
        queue.schedule(agents.back().get(), when);
        agents.push_back(std::make_unique<ScriptedAgent>(id, &want, seed));
        reference.schedule(agents.back().get(), when);
    };
    for (int id = 0; id < kAgents; id++) add(id, rng.below(4));

    // runUntil in slices, some empty, with late agents joining at or
    // after the current tick between slices.
    Tick until = 0;
    for (int slice = 0; slice < 60; slice++) {
        until += rng.below(50);
        ASSERT_EQ(queue.runUntil(until), reference.runUntil(until));
        if (slice % 6 == 5) add(kAgents + slice, until + rng.below(3));
    }
    EXPECT_EQ(queue.runToCompletion(), reference.runUntil(kTickMax));
    EXPECT_TRUE(queue.empty());

    std::size_t ties = 0;
    for (std::size_t i = 1; i < got.size(); i++)
        if (got[i].second == got[i - 1].second) ties++;
    EXPECT_GT(got.size(), 10000u);
    EXPECT_GT(ties, 1000u);
    EXPECT_EQ(got, want);
}

TEST(SampleStat, PercentilesSorted)
{
    SampleStat stat;
    for (int i = 100; i >= 1; i--) stat.add(i);
    EXPECT_DOUBLE_EQ(stat.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(stat.percentile(100), 100.0);
    EXPECT_NEAR(stat.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(stat.percentile(95), 95.05, 0.1);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat stat;
    EXPECT_EQ(stat.percentile(95), 0.0);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.count(), 0u);
}

TEST(SampleStat, MeanMinMax)
{
    SampleStat stat;
    stat.add(2.0);
    stat.add(4.0);
    stat.add(9.0);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(SampleStat, PercentileLinearInterpolationPinned)
{
    // Regression for the documented definition: linear interpolation
    // between the two nearest ranks (numpy's default). With samples
    // {10, 20, 30, 40, 50}, rank(p) = p/100 * 4.
    SampleStat stat;
    for (double v : {50.0, 10.0, 40.0, 20.0, 30.0}) stat.add(v);
    EXPECT_DOUBLE_EQ(stat.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(stat.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(stat.percentile(25.0), 20.0);
    // p95: rank 3.8 -> 40 * 0.2 + 50 * 0.8 = 48.
    EXPECT_DOUBLE_EQ(stat.percentile(95.0), 48.0);
    EXPECT_DOUBLE_EQ(stat.percentile(100.0), 50.0);
}

TEST(SampleStat, PercentileOutsideZeroToHundredPanics)
{
    SampleStat stat;
    for (int i = 1; i <= 10; i++) stat.add(i);
    try {
        stat.percentile(150.0);
        ADD_FAILURE() << "p = 150 did not panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("p = 150"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(stat.percentile(-50.0), PanicError);
    EXPECT_THROW(stat.percentile(std::numeric_limits<double>::quiet_NaN()),
                 PanicError);
    EXPECT_THROW(SampleStat().percentile(100.5), PanicError);
    // Both ends of the range stay valid.
    EXPECT_EQ(stat.percentile(0.0), 1.0);
    EXPECT_EQ(stat.percentile(100.0), 10.0);
}

/**
 * Reference model for SampleStat: the first percentile query after an
 * add() sorts every sample, and min() and max() scan them all.
 */
class FullSortReservoir
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

    double
    percentile(double p)
    {
        if (samples_.empty()) return 0.0;
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
        double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
        auto lo = static_cast<std::size_t>(rank);
        std::size_t hi = std::min(lo + 1, samples_.size() - 1);
        double frac = rank - static_cast<double>(lo);
        return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
    }

    const std::vector<double> &raw() const { return samples_; }

  private:
    std::vector<double> samples_;
    bool sorted_ = true;
};

TEST(SampleStat, MatchesFullSortReservoirBitForBit)
{
    // A seeded script of adds, clears and queries, run in lock-step
    // against the full-sort reference. Every result and all of raw()
    // must agree bit for bit: mean() sums in storage order, so a
    // different storage order shows up in its bits.
    SampleStat stat;
    FullSortReservoir ref;
    Rng rng(20201017);
    const double kPool[] = {1.0, 2.0, 3.0, 7.0, 40.0, 41.0, 100.0, 1e6};
    const double kFixedP[] = {0.0, 50.0, 95.0, 99.0, 100.0};
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

    std::size_t merges = 0, suffixMinMax = 0, rawChecks = 0;
    std::size_t prefix = 0;
    for (std::size_t op = 0; op < 200000; op++) {
        std::uint64_t kind = rng.below(100);
        if (kind < 50) {
            double v = rng.bernoulli(0.6)
                           ? kPool[rng.below(std::size(kPool))]
                           : rng.uniform() * 5000.0;
            stat.add(v);
            ref.add(v);
        } else if (kind < 51 && rng.bernoulli(0.2)) {
            stat.clear();
            ref.clear();
            prefix = 0;
        } else if (kind < 55) {
            ASSERT_EQ(stat.count(), ref.count()) << "op " << op;
        } else if (kind < 60) {
            ASSERT_EQ(bits(stat.mean()), bits(ref.mean())) << "op " << op;
        } else if (kind < 70) {
            if (prefix > 0 && ref.count() > prefix) suffixMinMax++;
            ASSERT_EQ(bits(stat.min()), bits(ref.min())) << "op " << op;
            ASSERT_EQ(bits(stat.max()), bits(ref.max())) << "op " << op;
        } else if (kind < 98) {
            double p = rng.bernoulli(0.5)
                           ? kFixedP[rng.below(std::size(kFixedP))]
                           : rng.uniform() * 100.0;
            if (prefix > 0 && ref.count() > prefix) merges++;
            ASSERT_EQ(bits(stat.percentile(p)), bits(ref.percentile(p)))
                << "op " << op << " p " << p;
            prefix = ref.count();
        } else {
            rawChecks++;
            const std::vector<double> &got = stat.raw();
            const std::vector<double> &want = ref.raw();
            ASSERT_EQ(got.size(), want.size()) << "op " << op;
            for (std::size_t i = 0; i < got.size(); i++)
                ASSERT_EQ(bits(got[i]), bits(want[i]))
                    << "op " << op << " raw[" << i << "]";
        }
    }
    // The script reached the paths a full sort would hide: merges into
    // a non-empty sorted prefix, and min/max over an unsorted suffix.
    EXPECT_GT(merges, 10000u);
    EXPECT_GT(suffixMinMax, 5000u);
    EXPECT_GT(rawChecks, 1000u);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(AccessCounters, Accumulate)
{
    AccessCounters a, b;
    a.llcHits = 5;
    b.llcHits = 7;
    b.nocHops = 3;
    a += b;
    EXPECT_EQ(a.llcHits, 12u);
    EXPECT_EQ(a.nocHops, 3u);
}

} // namespace
} // namespace jumanji
