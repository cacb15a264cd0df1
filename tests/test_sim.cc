/**
 * @file
 * Unit tests for the DES kernel, RNG, and statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; i++) sum += rng.exponential(100.0);
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
