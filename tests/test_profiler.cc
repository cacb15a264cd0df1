/**
 * @file
 * Tests for the host-side profiler (src/sim/profiler.hh): the
 * inclusive/exclusive nesting math under an injected fake clock,
 * interning stability, the runtime enable flag, thread-profile
 * flushing into the aggregate, and byte-for-byte report determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/json.hh"
#include "src/sim/profiler.hh"

namespace jumanji {
namespace {

using prof::Profiler;
using prof::ScopeId;
using prof::ScopeTotals;

// Scripted monotonic clock: tests set fakeNow before each
// enter/leave so every elapsed interval is exact.
std::uint64_t fakeNow = 0;

std::uint64_t
fakeClock()
{
    return fakeNow;
}

/** Runs a JUMANJI_PROF_SCOPE("proftest.enabled.site") body. */
void
enabledSite()
{
    JUMANJI_PROF_SCOPE("proftest.enabled.site");
}

const ScopeTotals &
totalsFor(const std::vector<ScopeTotals> &totals,
          const std::string &name)
{
    for (const ScopeTotals &t : totals)
        if (t.name == name) return t;
    static ScopeTotals missing;
    ADD_FAILURE() << "no totals for scope " << name;
    return missing;
}

TEST(Profiler, NestingSplitsInclusiveAndExclusiveTime)
{
    Profiler p;
    p.setClock(&fakeClock);
    const ScopeId outer = p.intern("outer");
    const ScopeId inner = p.intern("inner");

    fakeNow = 0;
    p.enter(outer);
    fakeNow = 10;
    p.enter(inner);
    fakeNow = 25;
    p.leave(inner);
    fakeNow = 40;
    p.leave(outer);

    const std::vector<ScopeTotals> totals = p.totals();
    ASSERT_EQ(totals.size(), 2u);

    const ScopeTotals &in = totalsFor(totals, "inner");
    EXPECT_EQ(in.calls, 1u);
    EXPECT_EQ(in.inclusiveNs, 15u);
    EXPECT_EQ(in.exclusiveNs, 15u);

    const ScopeTotals &out = totalsFor(totals, "outer");
    EXPECT_EQ(out.calls, 1u);
    EXPECT_EQ(out.inclusiveNs, 40u);
    EXPECT_EQ(out.exclusiveNs, 25u);
}

TEST(Profiler, SiblingChildrenAllSubtractFromParentExclusive)
{
    Profiler p;
    p.setClock(&fakeClock);
    const ScopeId run = p.intern("sim.run");
    const ScopeId epoch = p.intern("sim.epoch");

    fakeNow = 0;
    p.enter(run);
    fakeNow = 100;
    p.enter(epoch);
    fakeNow = 600;
    p.leave(epoch);
    fakeNow = 700;
    p.enter(epoch);
    fakeNow = 900;
    p.leave(epoch);
    fakeNow = 1000;
    p.leave(run);

    const std::vector<ScopeTotals> totals = p.totals();
    const ScopeTotals &e = totalsFor(totals, "sim.epoch");
    EXPECT_EQ(e.calls, 2u);
    EXPECT_EQ(e.inclusiveNs, 700u);
    EXPECT_EQ(e.exclusiveNs, 700u);
    const ScopeTotals &r = totalsFor(totals, "sim.run");
    EXPECT_EQ(r.calls, 1u);
    EXPECT_EQ(r.inclusiveNs, 1000u);
    EXPECT_EQ(r.exclusiveNs, 300u);
}

TEST(Profiler, RecursionCountsWallTimeOnce)
{
    Profiler p;
    p.setClock(&fakeClock);
    const ScopeId a = p.intern("recurse");

    fakeNow = 0;
    p.enter(a);
    fakeNow = 10;
    p.enter(a); // recursive re-entry
    fakeNow = 20;
    p.leave(a);
    fakeNow = 30;
    p.leave(a);

    const std::vector<ScopeTotals> totals = p.totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].calls, 2u);
    // Inclusive closes only at the outermost activation: 30ns of
    // wall time, not 30 + 10.
    EXPECT_EQ(totals[0].inclusiveNs, 30u);
    // The inner activation's 10ns is both its own exclusive time and
    // subtracted from the outer activation's — self time sums to the
    // outermost elapsed.
    EXPECT_EQ(totals[0].exclusiveNs, 30u);
}

TEST(Profiler, InterningIsStableAndSurvivesReset)
{
    Profiler p;
    p.setClock(&fakeClock);
    const ScopeId a = p.intern("alpha");
    const ScopeId b = p.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(p.intern("alpha"), a);
    EXPECT_EQ(p.name(a), "alpha");
    EXPECT_EQ(p.name(b), "beta");

    fakeNow = 0;
    p.enter(a);
    fakeNow = 5;
    p.leave(a);
    EXPECT_FALSE(p.empty());

    p.reset();
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.totals().size(), 0u);
    // Ids allocated before the reset stay valid — the macro caches
    // them in static thread_locals that outlive any reset.
    EXPECT_EQ(p.intern("alpha"), a);
    EXPECT_EQ(p.name(a), "alpha");
}

TEST(Profiler, TotalsAreNameSortedAndSkipUncalledScopes)
{
    Profiler p;
    p.setClock(&fakeClock);
    const ScopeId z = p.intern("zeta");
    p.intern("never.called");
    const ScopeId a = p.intern("alpha");

    fakeNow = 0;
    p.enter(z);
    fakeNow = 1;
    p.leave(z);
    p.enter(a);
    fakeNow = 2;
    p.leave(a);

    const std::vector<ScopeTotals> totals = p.totals();
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].name, "alpha");
    EXPECT_EQ(totals[1].name, "zeta");
}

TEST(Profiler, MergeFromAccumulatesByName)
{
    Profiler a;
    Profiler b;
    a.setClock(&fakeClock);
    b.setClock(&fakeClock);

    const ScopeId sa = a.intern("shared");
    fakeNow = 0;
    a.enter(sa);
    fakeNow = 10;
    a.leave(sa);

    // Different interning order in b: merge matches by name, not id.
    const ScopeId onlyB = b.intern("only.b");
    const ScopeId sb = b.intern("shared");
    fakeNow = 0;
    b.enter(onlyB);
    fakeNow = 7;
    b.leave(onlyB);
    b.enter(sb);
    fakeNow = 12;
    b.leave(sb);

    a.mergeFrom(b);
    const std::vector<ScopeTotals> totals = a.totals();
    ASSERT_EQ(totals.size(), 2u);
    const ScopeTotals &shared = totalsFor(totals, "shared");
    EXPECT_EQ(shared.calls, 2u);
    EXPECT_EQ(shared.inclusiveNs, 15u);
    const ScopeTotals &only = totalsFor(totals, "only.b");
    EXPECT_EQ(only.calls, 1u);
    EXPECT_EQ(only.inclusiveNs, 7u);
}

TEST(Profiler, ReportsAreDeterministicForIdenticalMeasurements)
{
    const auto record = [](Profiler &p) {
        p.setClock(&fakeClock);
        const ScopeId run = p.intern("sim.run");
        const ScopeId epoch = p.intern("sim.epoch.repartition");
        fakeNow = 0;
        p.enter(run);
        fakeNow = 100000000; // 0.1 s
        p.enter(epoch);
        fakeNow = 700000000; // 0.7 s
        p.leave(epoch);
        fakeNow = 1000000000; // 1.0 s
        p.leave(run);
    };

    Profiler first;
    Profiler second;
    record(first);
    record(second);

    std::ostringstream json1, json2;
    first.writeJson(json1);
    second.writeJson(json2);
    EXPECT_EQ(json1.str(), json2.str());

    // The JSON report is machine-readable and carries exact integer
    // nanoseconds next to the human seconds.
    const JsonValue doc = JsonValue::parse(json1.str(), "profile");
    EXPECT_EQ(doc.find("schema")->asString("schema"),
              "jumanji-profile-v1");
    const JsonValue *scopes = doc.find("scopes");
    ASSERT_NE(scopes, nullptr);
    ASSERT_EQ(scopes->items().size(), 2u);
    const JsonValue &epoch = scopes->items()[0];
    EXPECT_EQ(epoch.find("name")->asString("name"),
              "sim.epoch.repartition");
    EXPECT_EQ(epoch.find("calls")->asU64("calls"), 1u);
    EXPECT_EQ(epoch.find("inclusive_ns")->asU64("inclusive_ns"),
              600000000u);
    const JsonValue &run = scopes->items()[1];
    EXPECT_EQ(run.find("name")->asString("name"), "sim.run");
    EXPECT_EQ(run.find("exclusive_ns")->asU64("exclusive_ns"),
              400000000u);
}

TEST(Profiler, EmptyProfilerStillWritesValidReports)
{
    Profiler p;
    std::ostringstream json;
    p.writeJson(json);
    const JsonValue doc = JsonValue::parse(json.str(), "profile");
    EXPECT_EQ(doc.find("scopes")->items().size(), 0u);
}

TEST(Profiler, ScopeMacroRespectsRuntimeEnableFlag)
{
    Profiler &mine = Profiler::current();
    mine.reset();

    prof::setProfilingEnabled(false);
    enabledSite();
    EXPECT_TRUE(mine.empty());

    prof::setProfilingEnabled(true);
    enabledSite();
    prof::setProfilingEnabled(false);
    const std::vector<ScopeTotals> totals = mine.totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].name, "proftest.enabled.site");
    EXPECT_EQ(totals[0].calls, 1u);
    mine.reset();
}

TEST(Profiler, FlushMergesIntoAggregateAndSkipsOpenScopes)
{
    Profiler &mine = Profiler::current();
    mine.reset();
    mine.setClock(&fakeClock);
    const ScopeId id = mine.intern("proftest.flush");

    fakeNow = 0;
    mine.enter(id);
    // Open scope: flushing now must be a no-op, not a torn merge.
    prof::flushThreadProfile();
    EXPECT_EQ(mine.depth(), 1u);
    fakeNow = 9;
    mine.leave(id);

    prof::flushThreadProfile();
    EXPECT_TRUE(mine.empty());
    // totals() returns by value: keep the vector alive while reading
    // the element it holds.
    const std::vector<ScopeTotals> totals =
        prof::aggregateProfile().totals();
    const ScopeTotals &t = totalsFor(totals, "proftest.flush");
    EXPECT_EQ(t.calls, 1u);
    EXPECT_EQ(t.inclusiveNs, 9u);
    mine.setClock(nullptr);
}

} // namespace
} // namespace jumanji
